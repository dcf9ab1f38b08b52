// Session durability: a checkpoint at a batch boundary, restored by a fresh
// manager over the same checkpoint dir (a restarted pghived), stream the
// remaining batches, and the final schema must be byte-identical to the
// uninterrupted session's. Plus the schema changefeed long-poll semantics
// and corruption rejection.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/schema_diff.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::service {
namespace {

namespace fs = std::filesystem;

pg::PropertyGraph SocialGraph() {
  pg::PropertyGraph g;
  auto ann = g.AddNode({"Person"});
  g.SetNodeProperty(ann, "name", pg::Value("Ann"));
  g.SetNodeProperty(ann, "age", pg::Value(static_cast<int64_t>(31)));
  auto bo = g.AddNode({"Person"});
  g.SetNodeProperty(bo, "name", pg::Value("Bo"));
  auto cy = g.AddNode({"Person"});
  g.SetNodeProperty(cy, "name", pg::Value("Cy"));
  auto p1 = g.AddNode({"Post"});
  g.SetNodeProperty(p1, "text", pg::Value("hi"));
  auto p2 = g.AddNode({"Post"});
  g.SetNodeProperty(p2, "text", pg::Value("yo"));
  g.AddEdge(ann, bo, {"KNOWS"});
  g.AddEdge(bo, cy, {"KNOWS"});
  g.AddEdge(ann, p1, {"WROTE"});
  g.AddEdge(cy, p2, {"WROTE"});
  return g;
}

/// A fresh, empty checkpoint directory unique to `name`.
std::string FreshCheckpointDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "session_state_" + name;
  fs::remove_all(dir);
  return dir;
}

/// A durable manager's options; checkpoint_every 0 writes snapshots only on
/// WriteCheckpoint and Finish.
SessionManager::Options DurableOptions(const std::string& dir,
                                       uint64_t checkpoint_every = 0) {
  SessionManager::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = checkpoint_every;
  return options;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::string UninterruptedSessionPgs(size_t batches) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  EXPECT_TRUE(session.ok());
  pg::PropertyGraph graph = SocialGraph();
  for (const std::string& payload : BuildIngestPayloads(graph, batches)) {
    EXPECT_TRUE((*session)->SubmitIngest(payload).ok());
  }
  auto final_snapshot = (*session)->FinalSnapshot();
  EXPECT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  return final_snapshot.ok() ? *SnapshotForm(**final_snapshot, "pgs")
                             : std::string();
}

TEST(SessionStateTest, SaveRestoreContinueMatchesUninterrupted) {
  const size_t batches = 4;
  const std::string expected = UninterruptedSessionPgs(batches);
  ASSERT_FALSE(expected.empty());
  const std::string dir = FreshCheckpointDir("continue");

  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  // First half into one manager (one daemon lifetime)...
  {
    util::ThreadPool pool(2);
    SessionManager manager(&pool, DurableOptions(dir));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
    }
    util::Status saved = (*session)->WriteCheckpoint();
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }

  // ... second half into a fresh manager (the restarted daemon).
  util::ThreadPool pool(2);
  SessionManager manager(&pool, DurableOptions(dir));
  util::Status restored_dir = manager.RestoreFromCheckpointDir();
  ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->batches_ingested(), 2u);
  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected);
  EXPECT_EQ((*final_snapshot)->batches, batches);
}

TEST(SessionStateTest, SaveAtEveryBoundaryRestoresIdentically) {
  const size_t batches = 3;
  const std::string expected = UninterruptedSessionPgs(batches);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  for (size_t at = 1; at <= batches; ++at) {
    const std::string dir = FreshCheckpointDir("boundary" + std::to_string(at));
    {
      SessionManager saver(nullptr, DurableOptions(dir));
      ASSERT_TRUE(saver.RestoreFromCheckpointDir().ok());
      auto session = saver.CreateSession({});
      ASSERT_TRUE(session.ok());
      for (size_t i = 0; i < at; ++i) {
        ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
      }
      util::Status saved = (*session)->WriteCheckpoint();
      ASSERT_TRUE(saved.ok()) << saved.ToString();
    }

    SessionManager restorer(nullptr, DurableOptions(dir));
    util::Status restored_dir = restorer.RestoreFromCheckpointDir();
    ASSERT_TRUE(restored_dir.ok())
        << "at " << at << ": " << restored_dir.ToString();
    auto restored = restorer.Lookup("s1");
    ASSERT_TRUE(restored.ok());
    for (size_t i = at; i < batches; ++i) {
      ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
    }
    auto final_snapshot = (*restored)->FinalSnapshot();
    ASSERT_TRUE(final_snapshot.ok());
    EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected)
        << "at " << at;
  }
}

TEST(SessionStateTest, FinishedSessionRestoresFinished) {
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  const std::string dir = FreshCheckpointDir("finished");
  std::string expected;
  {
    SessionManager saver(nullptr, DurableOptions(dir));
    ASSERT_TRUE(saver.RestoreFromCheckpointDir().ok());
    auto session = saver.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    // Finish always checkpoints.
    auto final_snapshot = (*session)->FinalSnapshot();
    ASSERT_TRUE(final_snapshot.ok());
    expected = *SnapshotForm(**final_snapshot, "pgs");
  }

  SessionManager restorer(nullptr, DurableOptions(dir));
  util::Status restored_dir = restorer.RestoreFromCheckpointDir();
  ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
  auto restored = restorer.Lookup("s1");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto snapshot = (*restored)->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->is_final);
  EXPECT_EQ(*SnapshotForm(*snapshot, "pgs"), expected);
  // A finished session stays finished: further ingest is rejected.
  EXPECT_FALSE((*restored)->SubmitIngest(payloads[0]).ok());
}

TEST(SessionStateTest, RejectsGarbageAndCorruptState) {
  const std::string dir = FreshCheckpointDir("garbage");
  const std::string path = dir + "/s1.pghd";
  auto restore_fails = [&](const std::string& bytes) {
    WriteFile(path, bytes);
    SessionManager manager(nullptr, DurableOptions(dir));
    return !manager.RestoreFromCheckpointDir().ok();
  };
  std::string bytes;
  {
    SessionManager manager(nullptr, DurableOptions(dir));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    pg::PropertyGraph graph = SocialGraph();
    auto payloads = BuildIngestPayloads(graph, 2);
    ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
    ASSERT_TRUE((*session)->WriteCheckpoint().ok());
    bytes = ReadFile(path);
    ASSERT_FALSE(bytes.empty());
  }
  EXPECT_TRUE(restore_fails(""));
  EXPECT_TRUE(restore_fails("not a session file"));

  // Truncations and bit flips never restore.
  for (size_t len : {size_t{4}, size_t{10}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_TRUE(restore_fails(bytes.substr(0, len))) << "len " << len;
  }
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x10);
  EXPECT_TRUE(restore_fails(corrupt));
  // The intact file still restores: every failure above came from its bytes.
  EXPECT_FALSE(restore_fails(bytes));
}

TEST(SessionStateTest, ChangefeedDeliversDiffsInVersionOrder) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  for (const auto& p : payloads) {
    ASSERT_TRUE((*session)->SubmitIngest(p).ok());
  }
  (*session)->Drain();

  auto feed = (*session)->WaitForDiffs(/*after_version=*/0, /*timeout_ms=*/0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  auto records = core::ParseSchemaDiffStream(*feed);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].version_to, 1u);
  EXPECT_EQ((*records)[1].version_to, 2u);
  EXPECT_EQ((*records)[1].version_from, 1u);
  // The first record introduces types; it must not be empty.
  EXPECT_FALSE((*records)[0].empty());

  // Subscribing from the middle returns only the newer record.
  auto tail = (*session)->WaitForDiffs(1, 0);
  ASSERT_TRUE(tail.ok());
  auto tail_records = core::ParseSchemaDiffStream(*tail);
  ASSERT_TRUE(tail_records.ok());
  ASSERT_EQ(tail_records->size(), 1u);
  EXPECT_EQ((*tail_records)[0].version_to, 2u);

  // Caught up: a zero-timeout poll returns empty, not an error.
  auto empty = (*session)->WaitForDiffs(2, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // Finish publishes one more version (the final post-processed schema).
  ASSERT_TRUE((*session)->FinalSnapshot().ok());
  auto final_feed = (*session)->WaitForDiffs(2, 0);
  ASSERT_TRUE(final_feed.ok());
  auto final_records = core::ParseSchemaDiffStream(*final_feed);
  ASSERT_TRUE(final_records.ok());
  ASSERT_EQ(final_records->size(), 1u);
  EXPECT_EQ((*final_records)[0].version_to, 3u);
}

TEST(SessionStateTest, RestoredSessionPrunesOldFeedWindow) {
  // A restored session's in-memory feed window starts after its snapshot:
  // older versions come only from the feed segment. A restart without the
  // segment is refused, naming it; with it, the session restores, and a
  // subscriber resuming from a pre-restart version once the segment is gone
  // gets OutOfRange and must refetch the schema.
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  const std::string dir = FreshCheckpointDir("pruned");
  const std::string feed_path = dir + "/s1.feed";
  {
    SessionManager saver(nullptr, DurableOptions(dir));
    ASSERT_TRUE(saver.RestoreFromCheckpointDir().ok());
    auto session = saver.CreateSession({});
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
    ASSERT_TRUE((*session)->WriteCheckpoint().ok());
  }
  const std::string feed = ReadFile(feed_path);
  ASSERT_TRUE(fs::remove(feed_path));
  {
    SessionManager refuser(nullptr, DurableOptions(dir));
    util::Status refused = refuser.RestoreFromCheckpointDir();
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.message().find("changefeed " + feed_path +
                                     " holds 0 versions but the snapshot "
                                     "needs 1"),
              std::string::npos)
        << refused.ToString();
    EXPECT_FALSE(fs::exists(feed_path));
  }

  WriteFile(feed_path, feed);
  SessionManager restorer(nullptr, DurableOptions(dir));
  ASSERT_TRUE(restorer.RestoreFromCheckpointDir().ok());
  auto restored = restorer.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto from_disk = (*restored)->WaitForDiffs(/*after_version=*/0, 0);
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  EXPECT_EQ(*from_disk, feed);
  ASSERT_TRUE(fs::remove(feed_path));
  auto stale = (*restored)->WaitForDiffs(/*after_version=*/0, 0);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), util::StatusCode::kOutOfRange);

  // From the restored version onward the feed works again.
  ASSERT_TRUE((*restored)->SubmitIngest(payloads[1]).ok());
  (*restored)->Drain();
  auto fresh = (*restored)->WaitForDiffs(/*after_version=*/1, 0);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto records = core::ParseSchemaDiffStream(*fresh);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].version_to, 2u);
}

}  // namespace
}  // namespace pghive::service

// Daemon-owned durability: a SessionManager given a checkpoint_dir writes
// an ingest log, scheduled hive snapshots and changefeed segment files on
// its own authority, a fresh manager over the same directory restores every
// session under its original id by replaying its log, and subscribers can
// replay the *full* changefeed — including versions evicted from the
// in-memory backlog — byte-identically across the restart. The log's
// failure modes are pinned here too: records past the snapshot are cut
// back, records the snapshot covers must be intact. A checkpoint is the
// snapshot `pghive discover --checkpoint-to` writes, byte for byte.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/pghive.h"
#include "core/schema_diff.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "util/binio.h"
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

/// A fresh, empty checkpoint directory unique to the calling test.
std::string FreshCheckpointDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "durable_session_" + name;
  fs::remove_all(dir);
  return dir;
}

SessionManager::Options DurableOptions(const std::string& dir,
                                       uint64_t checkpoint_every = 1,
                                       size_t feed_backlog = 256) {
  SessionManager::Options options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = checkpoint_every;
  options.feed_backlog = feed_backlog;
  return options;
}

/// What an all-in-memory session streaming every batch ends with.
struct Uninterrupted {
  std::string pgs;   ///< The final PG-Schema, STRICT mode.
  std::string feed;  ///< The full changefeed from version 1.
};

Uninterrupted UninterruptedSession(size_t batches) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  EXPECT_TRUE(session.ok());
  pg::PropertyGraph graph = SocialGraph();
  for (const std::string& payload : BuildIngestPayloads(graph, batches)) {
    EXPECT_TRUE((*session)->SubmitIngest(payload).ok());
  }
  auto final_snapshot = (*session)->FinalSnapshot();
  EXPECT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  auto feed = (*session)->WaitForDiffs(/*after_version=*/0, 0);
  EXPECT_TRUE(feed.ok()) << feed.status().ToString();
  if (!final_snapshot.ok() || !feed.ok()) return {};
  return {*SnapshotForm(**final_snapshot, "pgs"), *feed};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// One CRC-clean record of an ingest log: its batch number, its byte range
/// [begin, end) in the file, and its payload.
struct LogRecord {
  uint32_t batch = 0;
  size_t begin = 0;
  size_t end = 0;
  std::string payload;
};

/// The CRC-clean records at the head of an ingest log, in file order.
std::vector<LogRecord> ScanLog(const std::string& bytes) {
  std::vector<LogRecord> records;
  util::ByteReader in(bytes);
  while (!in.AtEnd()) {
    LogRecord record;
    record.begin = in.pos();
    std::string_view payload;
    if (!util::ReadSection(&in, &record.batch, &payload)) break;
    record.end = in.pos();
    record.payload = std::string(payload);
    records.push_back(std::move(record));
  }
  return records;
}

/// Streams payloads[0..count) into a new session s1 of a durable manager
/// over `dir`, then drops the manager without CheckpointAll — a killed
/// daemon that only wrote its scheduled checkpoints.
void StreamThenDie(const std::string& dir, uint64_t checkpoint_every,
                   const std::vector<std::string>& payloads, size_t count) {
  SessionManager manager(nullptr, DurableOptions(dir, checkpoint_every));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  ASSERT_EQ((*session)->id(), "s1");
  for (size_t i = 0; i < count; ++i) {
    ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
  }
  (*session)->Drain();
  ASSERT_TRUE((*session)->status().ok()) << (*session)->status().ToString();
}

TEST(DurableSessionTest, ScheduledCheckpointRestoresAcrossManagers) {
  const size_t batches = 4;
  const std::string expected = UninterruptedSession(batches).pgs;
  ASSERT_FALSE(expected.empty());
  const std::string dir = FreshCheckpointDir("scheduled");
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  // Half the stream into a durable manager; the daemon dies (no explicit
  // save, no CheckpointAll — only the every-2-batches scheduled write).
  {
    SessionManager manager(nullptr, DurableOptions(dir, /*checkpoint_every=*/2));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    EXPECT_EQ((*session)->id(), "s1");
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
    }
    (*session)->Drain();
    EXPECT_TRUE(fs::exists(dir + "/s1.pghd"));
  }

  // The restarted daemon: restore finds s1 under its original id, the
  // remaining batches stream in, and the schema is byte-identical.
  SessionManager manager(nullptr, DurableOptions(dir, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->batches_ingested(), 2u);
  // Ids continue past everything seen on disk — s1 is never recycled.
  auto fresh = manager.CreateSession({});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->id(), "s2");
  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected);
}

TEST(DurableSessionTest, FinishCheckpointsEvenOffSchedule) {
  const std::string dir = FreshCheckpointDir("finish");
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  std::string expected;
  {
    // checkpoint_every=100 never fires on 2 batches; Finish must still
    // write the final snapshot.
    SessionManager manager(nullptr, DurableOptions(dir, 100));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    auto final_snapshot = (*session)->FinalSnapshot();
    ASSERT_TRUE(final_snapshot.ok());
    expected = *SnapshotForm(**final_snapshot, "pgs");
    EXPECT_TRUE(fs::exists(dir + "/s1.pghd"));
  }

  SessionManager manager(nullptr, DurableOptions(dir, 100));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto snapshot = (*restored)->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_TRUE(snapshot->is_final);
  EXPECT_EQ(*SnapshotForm(*snapshot, "pgs"), expected);
}

TEST(DurableSessionTest, FeedServedFromDiskPastTheBacklog) {
  const size_t batches = 4;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);

  // Ground truth: an all-in-memory session with a roomy backlog.
  std::string expected_feed;
  {
    SessionManager manager(nullptr);
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    ASSERT_TRUE((*session)->FinalSnapshot().ok());
    auto feed = (*session)->WaitForDiffs(/*after_version=*/0, 0);
    ASSERT_TRUE(feed.ok());
    expected_feed = *feed;
  }

  // A 2-record window over 5 published versions: 1..3 are long evicted, so
  // serving from version 0 must splice the segment file in front of the
  // in-memory tail — and produce the exact bytes the roomy session buffered.
  const std::string dir = FreshCheckpointDir("disk_feed");
  SessionManager manager(nullptr,
                         DurableOptions(dir, 1, /*feed_backlog=*/2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  for (const auto& p : payloads) {
    ASSERT_TRUE((*session)->SubmitIngest(p).ok());
  }
  ASSERT_TRUE((*session)->FinalSnapshot().ok());

  auto feed = (*session)->WaitForDiffs(0, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  EXPECT_EQ(*feed, expected_feed);
  auto records = core::ParseSchemaDiffStream(*feed);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), batches + 1);  // +1 for the Finish publish.
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].version_to, i + 1);
  }

  // Mid-stream subscriptions splice correctly too.
  auto tail = (*session)->WaitForDiffs(2, 0);
  ASSERT_TRUE(tail.ok());
  auto tail_records = core::ParseSchemaDiffStream(*tail);
  ASSERT_TRUE(tail_records.ok());
  ASSERT_EQ(tail_records->size(), batches - 1);
  EXPECT_EQ((*tail_records)[0].version_to, 3u);
}

TEST(DurableSessionTest, FullFeedHistorySurvivesRestartByteIdentically) {
  const size_t batches = 4;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("feed_restart");

  std::string before;
  {
    SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    ASSERT_TRUE((*session)->FinalSnapshot().ok());
    auto feed = (*session)->WaitForDiffs(0, 0);
    ASSERT_TRUE(feed.ok());
    before = *feed;
    ASSERT_FALSE(before.empty());
  }

  // After the restart every version predates the (empty) in-memory window,
  // so the whole history comes off disk — and it is the same bytes. This is
  // exactly what protocol v2 clients got OutOfRange for
  // (SessionStateTest.RestoredSessionPrunesOldFeedWindow pins that the
  // restored in-memory window starts after the snapshot).
  SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto after = (*restored)->WaitForDiffs(0, 0);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, before);

  // And the feed keeps extending seamlessly past the restart... but a
  // finished session has nothing left to publish; resubscribing from the
  // last version is a clean empty poll, not an error.
  auto caught_up = (*restored)->WaitForDiffs(batches + 1, 0);
  ASSERT_TRUE(caught_up.ok());
  EXPECT_TRUE(caught_up->empty());
}

TEST(DurableSessionTest, RestartMidStreamExtendsTheSameFeedFile) {
  const size_t batches = 4;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("feed_extend");

  std::string ground_truth;
  {
    SessionManager manager(nullptr);
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (const auto& p : payloads) {
      ASSERT_TRUE((*session)->SubmitIngest(p).ok());
    }
    ASSERT_TRUE((*session)->FinalSnapshot().ok());
    auto feed = (*session)->WaitForDiffs(0, 0);
    ASSERT_TRUE(feed.ok());
    ground_truth = *feed;
  }

  {
    SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i < 2; ++i) {
      ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
    }
    (*session)->Drain();
  }

  SessionManager manager(nullptr, DurableOptions(dir, 1, 2));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  ASSERT_TRUE((*restored)->FinalSnapshot().ok());
  auto feed = (*restored)->WaitForDiffs(0, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  // Versions 1-2 written before the restart, 3-5 after: one contiguous
  // history, byte-identical to the uninterrupted session's feed.
  EXPECT_EQ(*feed, ground_truth);
}

TEST(DurableSessionTest, CloseDeletesCheckpointAndFeedFiles) {
  const std::string dir = FreshCheckpointDir("close");
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  SessionManager manager(nullptr, DurableOptions(dir, 1, 1));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  for (const auto& p : payloads) {
    ASSERT_TRUE((*session)->SubmitIngest(p).ok());
  }
  ASSERT_TRUE((*session)->FinalSnapshot().ok());
  ASSERT_TRUE(fs::exists(dir + "/s1.pghd"));
  ASSERT_TRUE(fs::exists(dir + "/s1.log"));
  ASSERT_TRUE(fs::exists(dir + "/s1.feed"));

  ASSERT_TRUE(manager.Close("s1").ok());
  EXPECT_FALSE(fs::exists(dir + "/s1.pghd"));
  EXPECT_FALSE(fs::exists(dir + "/s1.log"));
  EXPECT_FALSE(fs::exists(dir + "/s1.feed"));
}

TEST(DurableSessionTest, OrphanFeedFileReservesItsSessionId) {
  // A session that ingested and published but died before its first
  // snapshot leaves an orphan .log and .feed; its id must not be handed to
  // an unrelated new session, which would inherit the dead session's
  // history.
  const std::string dir = FreshCheckpointDir("orphan");
  fs::create_directories(dir);
  std::ofstream(dir + "/s7.feed", std::ios::binary) << "leftover";
  {
    SessionManager manager(nullptr, DurableOptions(dir));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    EXPECT_EQ(manager.num_sessions(), 0u);  // No snapshot, nothing restored.
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    EXPECT_EQ((*session)->id(), "s8");
  }

  std::ofstream(dir + "/s9.log", std::ios::binary) << "leftover";
  SessionManager manager(nullptr, DurableOptions(dir));
  ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
  EXPECT_EQ(manager.num_sessions(), 0u);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->id(), "s10");
}

TEST(DurableSessionTest, CorruptCheckpointFailsRestoreLoudly) {
  const std::string dir = FreshCheckpointDir("corrupt");
  fs::create_directories(dir);
  std::ofstream(dir + "/s1.pghd", std::ios::binary) << "not a session file";

  SessionManager manager(nullptr, DurableOptions(dir));
  util::Status status = manager.RestoreFromCheckpointDir();
  ASSERT_FALSE(status.ok());
  // The error names the offending file: an operator needs to know which
  // tenant's snapshot is bad before deciding to delete it.
  EXPECT_NE(status.message().find("s1.pghd"), std::string::npos);
}

TEST(DurableSessionTest, TornFeedTailIsDroppedOnRestore) {
  // A torn record past the snapshot is dropped on restore, and the re-sent
  // batch publishes it again. A torn record the snapshot covers would leave
  // a permanent hole, since nothing publishes a checkpointed version again:
  // that restore is refused, naming the feed, and leaves every file as it
  // was.
  const size_t batches = 3;
  const Uninterrupted expected = UninterruptedSession(batches);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("torn");
  const std::string feed_path = dir + "/s1.feed";
  const std::string log_path = dir + "/s1.log";

  // A snapshot of 2 batches under a feed of 3 versions: tear version 3.
  StreamThenDie(dir, /*checkpoint_every=*/2, payloads, batches);
  ASSERT_TRUE(fs::exists(feed_path));
  fs::resize_file(feed_path, fs::file_size(feed_path) - 5);
  {
    SessionManager manager(nullptr, DurableOptions(dir, 2));
    util::Status restored_dir = manager.RestoreFromCheckpointDir();
    ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
    auto restored = manager.Lookup("s1");
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[2]).ok());
    ASSERT_TRUE((*restored)->FinalSnapshot().ok());
    auto feed = (*restored)->WaitForDiffs(0, 0);
    ASSERT_TRUE(feed.ok()) << feed.status().ToString();
    EXPECT_EQ(*feed, expected.feed);
  }

  // The final checkpoint covers all 4 versions: tear version 4.
  fs::resize_file(feed_path, fs::file_size(feed_path) - 5);
  const std::string torn = ReadFile(feed_path);
  const std::string log = ReadFile(log_path);
  SessionManager manager(nullptr, DurableOptions(dir, 2));
  util::Status refused = manager.RestoreFromCheckpointDir();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("changefeed " + feed_path +
                                   " holds 3 versions but the snapshot "
                                   "needs 4"),
            std::string::npos)
      << refused.ToString();
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(ReadFile(feed_path), torn);
  EXPECT_EQ(ReadFile(log_path), log);
}

// A feed tail lost under a kept snapshot (nothing fsyncs, so a power loss
// can leave one): a restart that accepted it would append the next version
// after the hole, and the restart after that would cut the feed back at the
// hole, losing a version the session had published and checkpointed. So the
// restore is refused. With the feed the run wrote put back, the session
// resumes, and every version it publishes survives the next restart.
TEST(DurableSessionTest, ShortFeedRefusesRestoreAndNoVersionIsLost) {
  const size_t batches = 6;
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("short_feed");
  const std::string feed_path = dir + "/s1.feed";
  const std::string log_path = dir + "/s1.log";
  StreamThenDie(dir, /*checkpoint_every=*/1, payloads, 4);
  const std::string full_feed = ReadFile(feed_path);
  const auto records = core::ScanSchemaDiffStream(full_feed, nullptr);
  ASSERT_EQ(records.size(), 4u);
  const std::string short_feed = full_feed.substr(0, records[2].offset);
  WriteFile(feed_path, short_feed);
  const std::string log = ReadFile(log_path);

  {
    SessionManager manager(nullptr, DurableOptions(dir, 1));
    util::Status refused = manager.RestoreFromCheckpointDir();
    ASSERT_FALSE(refused.ok()) << "a restore over a feed hole";
    EXPECT_NE(refused.message().find("s1.pghd"), std::string::npos);
    EXPECT_NE(refused.message().find("changefeed " + feed_path +
                                     " holds 2 versions but the snapshot "
                                     "needs 4"),
              std::string::npos)
        << refused.ToString();
    EXPECT_EQ(ReadFile(feed_path), short_feed);
    EXPECT_EQ(ReadFile(log_path), log);
  }

  WriteFile(feed_path, full_feed);
  {
    SessionManager manager(nullptr, DurableOptions(dir, 1));
    util::Status restored_dir = manager.RestoreFromCheckpointDir();
    ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
    auto restored = manager.Lookup("s1");
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[4]).ok());
    (*restored)->Drain();
    ASSERT_TRUE((*restored)->status().ok());
  }

  SessionManager manager(nullptr, DurableOptions(dir, 1));
  util::Status restored_dir = manager.RestoreFromCheckpointDir();
  ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  auto from_4 = (*restored)->WaitForDiffs(/*after_version=*/4, 0);
  ASSERT_TRUE(from_4.ok()) << from_4.status().ToString();
  auto tail = core::ParseSchemaDiffStream(*from_4);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].version_to, 5u);
  auto whole = (*restored)->WaitForDiffs(/*after_version=*/0, 0);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->substr(0, full_feed.size()), full_feed);
  auto all = core::ParseSchemaDiffStream(*whole);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 5u);
  for (size_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i].version_to, i + 1);
  }
}

TEST(DurableSessionTest, LogAheadOfTheCheckpointIsCutBack) {
  // Every batch is logged, but only every second one checkpointed: a daemon
  // killed after batch 3 leaves a snapshot of 2 batches and a log of 3.
  const size_t batches = 4;
  const Uninterrupted expected = UninterruptedSession(batches);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("log_ahead");
  const std::string log_path = dir + "/s1.log";
  StreamThenDie(dir, /*checkpoint_every=*/2, payloads, 3);
  ASSERT_EQ(ScanLog(ReadFile(log_path)).size(), 3u);

  SessionManager manager(nullptr, DurableOptions(dir, 2));
  util::Status restored_dir = manager.RestoreFromCheckpointDir();
  ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->batches_ingested(), 2u);
  // Record 3 is gone: the client re-sends batch 3, which logs it again.
  const std::string log = ReadFile(log_path);
  const std::vector<LogRecord> records = ScanLog(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].batch, 1u);
  EXPECT_EQ(records[1].batch, 2u);
  EXPECT_EQ(records[1].end, log.size());

  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected.pgs);
  auto feed = (*restored)->WaitForDiffs(/*after_version=*/0, 0);
  ASSERT_TRUE(feed.ok()) << feed.status().ToString();
  EXPECT_EQ(*feed, expected.feed);
  EXPECT_EQ(ScanLog(ReadFile(log_path)).size(), batches);
}

TEST(DurableSessionTest, TornLogTailPastTheCheckpointIsCut) {
  const size_t batches = 4;
  const Uninterrupted expected = UninterruptedSession(batches);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("log_torn");
  const std::string log_path = dir + "/s1.log";
  StreamThenDie(dir, /*checkpoint_every=*/2, payloads, 3);
  // A crash mid-append: record 3 lost its last 5 bytes.
  const std::vector<LogRecord> full = ScanLog(ReadFile(log_path));
  ASSERT_EQ(full.size(), 3u);
  fs::resize_file(log_path, full[2].end - 5);

  SessionManager manager(nullptr, DurableOptions(dir, 2));
  util::Status restored_dir = manager.RestoreFromCheckpointDir();
  ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->batches_ingested(), 2u);
  EXPECT_EQ(fs::file_size(log_path), full[1].end);

  for (size_t i = 2; i < batches; ++i) {
    ASSERT_TRUE((*restored)->SubmitIngest(payloads[i]).ok());
  }
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected.pgs);
}

TEST(DurableSessionTest, DamagedLogWithinTheCheckpointFailsRestoreLoudly) {
  // Records 1..k are the graph the snapshot of k batches was taken over:
  // losing or damaging any of them cannot be repaired by the client, so the
  // daemon must refuse to start and name the log.
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 4);
  const std::string dir = FreshCheckpointDir("log_damaged");
  const std::string log_path = dir + "/s1.log";
  StreamThenDie(dir, /*checkpoint_every=*/1, payloads, 3);
  const std::string log = ReadFile(log_path);
  const std::vector<LogRecord> records = ScanLog(log);
  ASSERT_EQ(records.size(), 3u);
  ASSERT_EQ(records[2].end, log.size());

  // Returns the restore error, which must name the log.
  auto expect_refused = [&](const std::string& what,
                            const std::optional<std::string>& bytes) {
    if (bytes.has_value()) {
      WriteFile(log_path, *bytes);
    } else {
      fs::remove(log_path);
    }
    SessionManager manager(nullptr, DurableOptions(dir));
    util::Status status = manager.RestoreFromCheckpointDir();
    EXPECT_FALSE(status.ok()) << what;
    EXPECT_NE(status.message().find("s1.log"), std::string::npos)
        << what << ": " << status.message();
    EXPECT_EQ(manager.num_sessions(), 0u) << what;
    return status.message();
  };
  expect_refused("missing log", std::nullopt);
  expect_refused("one record short", log.substr(0, records[1].end));
  std::string flipped = log;
  const size_t middle = (records[1].begin + records[1].end) / 2;
  flipped[middle] = static_cast<char>(flipped[middle] ^ 0x01);
  expect_refused("flipped payload byte", flipped);
  const std::string swapped =
      log.substr(records[1].begin, records[1].end - records[1].begin) +
      log.substr(0, records[0].end) + log.substr(records[2].begin);
  expect_refused("swapped records", swapped);
  // Record 2's payload, CRC-clean, under the wrong batch number: only the
  // sequence check can catch this one.
  std::string renumbered = log.substr(0, records[0].end);
  util::AppendSection(&renumbered, /*id=*/5, records[1].payload);
  renumbered += log.substr(records[2].begin);
  EXPECT_NE(expect_refused("renumbered record", renumbered)
                .find("out of sequence"),
            std::string::npos);

  // The intact log still restores: each failure came from its damage.
  WriteFile(log_path, log);
  SessionManager manager(nullptr, DurableOptions(dir));
  util::Status status = manager.RestoreFromCheckpointDir();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ((*manager.Lookup("s1"))->batches_ingested(), 3u);
}

TEST(DurableSessionTest, CheckpointOfAnotherStreamFailsRestoreLeavingTheLog) {
  // A checkpoint beside the ingest log of a smaller stream with the same
  // labels and keys: the log replays cleanly, but the snapshot's types hold
  // instances the replayed graph lacks. The restore fails naming the type
  // and the id, and leaves the log as it found it (one record past the
  // snapshot, which a successful restore would cut).
  const std::string large_dir = FreshCheckpointDir("other_stream_large");
  const std::string dir = FreshCheckpointDir("other_stream_small");
  datasets::Dataset large =
      datasets::Generate(datasets::PoleSpec(), 0.2, /*seed=*/7);
  datasets::Dataset small =
      datasets::Generate(datasets::PoleSpec(), 0.05, /*seed=*/7);
  StreamThenDie(large_dir, /*checkpoint_every=*/2,
                BuildIngestPayloads(large.graph, 4), 2);
  StreamThenDie(dir, /*checkpoint_every=*/2,
                BuildIngestPayloads(small.graph, 4), 3);
  fs::copy_file(large_dir + "/s1.pghd", dir + "/s1.pghd",
                fs::copy_options::overwrite_existing);
  const std::string log = ReadFile(dir + "/s1.log");
  ASSERT_EQ(ScanLog(log).size(), 3u);

  SessionManager manager(nullptr, DurableOptions(dir, 2));
  util::Status status = manager.RestoreFromCheckpointDir();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("s1.pghd: state snapshot: node type "),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(" holds node id "), std::string::npos)
      << status.ToString();
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_EQ(ReadFile(dir + "/s1.log"), log);
}

TEST(DurableSessionTest, PghdCheckpointFailsNamingItsVersion) {
  // Older builds wrapped the hive snapshot in a "PGHD" session file: the
  // magic, a u32 version and CRC-framed sections — in version 2 the hive
  // snapshot (3) and the counters (4), in version 1 also the graph text (1)
  // and the assembler's fill bitmaps (2). This build keeps no reader for
  // either: the error names the format, the version and the way out.
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  for (uint32_t version : {1u, 2u}) {
    const std::string dir =
        FreshCheckpointDir("pghd_v" + std::to_string(version));
    const std::string path = dir + "/s1.pghd";
    StreamThenDie(dir, /*checkpoint_every=*/1, payloads, 1);
    std::string old = "PGHD";
    util::PutU32(&old, version);
    if (version == 1) {
      util::AppendSection(&old, 1, "N 0 Person name=Ann\n");
      util::AppendSection(&old, 2, std::string(1, '\1'));
    }
    util::AppendSection(&old, 3, ReadFile(path));
    std::string counters;
    util::PutU64(&counters, 1);  // Batches.
    util::PutU64(&counters, 1);  // Versions published.
    util::PutU8(&counters, 0);   // Finish submitted.
    util::AppendSection(&old, 4, counters);
    WriteFile(path, old);

    SessionManager manager(nullptr, DurableOptions(dir));
    util::Status status = manager.RestoreFromCheckpointDir();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
    EXPECT_EQ(manager.num_sessions(), 0u);
    for (const std::string& part :
         {std::string("s1.pghd"), std::string("PGHD"),
          "version " + std::to_string(version), std::string("older build")}) {
      EXPECT_NE(status.message().find(part), std::string::npos)
          << part << ": " << status.message();
    }
  }
}

TEST(DurableSessionTest, CheckpointIsTheDiscoverSnapshotByteForByte) {
  // One format: a durable session's checkpoint file equals, byte for byte,
  // PgHive::SaveState of an in-process run over the same batches and
  // options — the bytes `pghive discover --checkpoint-to` writes — after
  // every batch and after Finish. Streaming twice also pins determinism:
  // the whole file, no section masked.
  const size_t batches = 4;
  for (const std::string method : {"elsh", "minhash"}) {
    const std::map<std::string, std::string> flags = {{"method", method}};
    auto options = core::ParsePgHiveOptions(flags);
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    // A fresh graph per run: discovery interns label-set tokens into it.
    datasets::Dataset dataset =
        datasets::Generate(datasets::PoleSpec(), 0.05, /*seed=*/7);
    const std::vector<std::string> payloads =
        BuildIngestPayloads(dataset.graph, batches);

    // The in-process run: a snapshot after each batch, then after Finish.
    std::vector<std::string> expected;
    {
      core::PgHive hive(&dataset.graph, *options);
      auto save = [&] {
        auto bytes = hive.SaveState();
        EXPECT_TRUE(bytes.ok());
        expected.push_back(bytes.ok() ? *bytes : std::string());
      };
      for (const pg::GraphBatch& batch :
           pg::SplitIntoBatches(dataset.graph, batches, /*seed=*/1)) {
        ASSERT_TRUE(hive.ProcessBatch(batch).ok());
        save();
      }
      ASSERT_TRUE(hive.Finish().ok());
      save();
    }

    for (const std::string run : {"first", "second"}) {
      const std::string where = method + ", " + run + " run";
      const std::string dir = FreshCheckpointDir("format_" + method + run);
      SessionManager manager(nullptr, DurableOptions(dir, 1));
      ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
      auto session = manager.CreateSession(flags);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      for (size_t i = 0; i < batches; ++i) {
        ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
        (*session)->Drain();
        EXPECT_TRUE(ReadFile(dir + "/s1.pghd") == expected[i])
            << where << ", after batch " << i + 1;
      }
      ASSERT_TRUE((*session)->FinalSnapshot().ok());
      EXPECT_TRUE(ReadFile(dir + "/s1.pghd") == expected.back())
          << where << ", after Finish";
    }
  }
}

TEST(DurableSessionTest, CheckpointBetweenFinalRequestAndFinishCanFinish) {
  // A checkpoint taken after a final-schema request was accepted but before
  // Finish ran describes a session that has not finished. The restored
  // session must finish on request, not refuse because a finish was once
  // asked for.
  const size_t batches = 3;
  const std::string expected = UninterruptedSession(batches).pgs;
  ASSERT_FALSE(expected.empty());
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, batches);
  const std::string dir = FreshCheckpointDir("finish_wedge");
  const std::string copy = FreshCheckpointDir("finish_wedge_copy");
  {
    util::ThreadPool pool(2);
    SessionManager manager(&pool, DurableOptions(dir, 1));
    ASSERT_TRUE(manager.RestoreFromCheckpointDir().ok());
    auto session = manager.CreateSession({});
    ASSERT_TRUE(session.ok());
    for (size_t i = 0; i + 1 < batches; ++i) {
      ASSERT_TRUE((*session)->SubmitIngest(payloads[i]).ok());
    }
    (*session)->Drain();

    // Lane: hold 1, the last ingest (and its checkpoint), hold 2, Finish.
    JobQueue& queue = manager.queue();
    std::promise<void> release_first;
    std::promise<void> second_started;
    std::promise<void> release_second;
    ASSERT_TRUE(queue.Submit("s1", [&] { release_first.get_future().wait(); }));
    ASSERT_TRUE((*session)->SubmitIngest(payloads.back()).ok());
    ASSERT_TRUE(queue.Submit("s1", [&] {
      second_started.set_value();
      release_second.get_future().wait();
    }));
    std::promise<std::string> final_pgs;
    std::thread requester([&] {
      auto final_snapshot = (*session)->FinalSnapshot();
      final_pgs.set_value(final_snapshot.ok()
                              ? *SnapshotForm(**final_snapshot, "pgs")
                              : final_snapshot.status().ToString());
    });
    // Finish is queued once the lane holds four jobs.
    while (queue.pending() < 4) std::this_thread::yield();
    release_first.set_value();
    // Hold 2 runs only after the ingest job, checkpoint included, is done.
    second_started.get_future().wait();
    fs::copy(dir, copy, fs::copy_options::recursive);
    release_second.set_value();
    requester.join();
    EXPECT_EQ(final_pgs.get_future().get(), expected);
  }

  SessionManager manager(nullptr, DurableOptions(copy, 1));
  util::Status restored_dir = manager.RestoreFromCheckpointDir();
  ASSERT_TRUE(restored_dir.ok()) << restored_dir.ToString();
  auto restored = manager.Lookup("s1");
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->batches_ingested(), batches);
  auto final_snapshot = (*restored)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected);
}

TEST(DurableSessionTest, SnapshotWithBatchesNeedsAnIngestLog) {
  // Without a log path a session can only restore a snapshot of 0 batches:
  // the graph of any later one lives in the log.
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  JobQueue queue(nullptr);
  auto session = Session::Create("s1", {}, nullptr, &queue);
  ASSERT_TRUE(session.ok());
  auto empty = (*session)->SaveState();
  ASSERT_TRUE(empty.ok());
  ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
  auto one = (*session)->SaveState();
  ASSERT_TRUE(one.ok());

  auto from_empty = Session::CreateFromState("r1", *empty, nullptr, &queue);
  ASSERT_TRUE(from_empty.ok()) << from_empty.status().ToString();
  EXPECT_EQ((*from_empty)->batches_ingested(), 0u);
  auto from_one = Session::CreateFromState("r2", *one, nullptr, &queue);
  ASSERT_FALSE(from_one.ok());
  EXPECT_EQ(from_one.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(DurableSessionTest, AFailedAppendPoisonsTheSessionNamingTheFile) {
  // Log and feed records go through one checked appender: a record that
  // cannot be written fails the session with an error naming its file, and
  // the session refuses further batches instead of running on without it.
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, 2);
  for (const std::string file : {"log", "feed"}) {
    const std::string path =
        FreshCheckpointDir("unwritable_" + file) + "/no_dir/s1." + file;
    SessionDurability durability;
    (file == "log" ? durability.log_path : durability.feed_path) = path;
    JobQueue queue(nullptr);
    auto session = Session::Create("s1", {}, nullptr, &queue, durability);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
    (*session)->Drain();
    const util::Status status = (*session)->status();
    EXPECT_EQ(status.code(), util::StatusCode::kIoError) << file;
    EXPECT_NE(status.message().find("cannot open " + path), std::string::npos)
        << status.message();
    EXPECT_FALSE((*session)->SubmitIngest(payloads[1]).ok()) << file;
  }
}

}  // namespace
}  // namespace pghive::service

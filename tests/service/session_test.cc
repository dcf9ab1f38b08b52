// Session / SessionManager tests: lifecycle (create / lookup / close /
// capacity), the streamed-equals-one-shot schema identity, snapshot
// versioning, error latching, and post-finish rejection. Runs with a real
// shared pool to exercise the lane scheduling, plus inline where noted.

#include "service/session.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/pghive.h"
#include "core/serialize.h"
#include "pg/batch.h"
#include "pg/graph.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/session_manager.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace pghive::service {
namespace {

pg::PropertyGraph SocialGraph() {
  pg::PropertyGraph g;
  auto ann = g.AddNode({"Person"});
  g.SetNodeProperty(ann, "name", pg::Value("Ann"));
  g.SetNodeProperty(ann, "age", pg::Value(static_cast<int64_t>(31)));
  auto bo = g.AddNode({"Person"});
  g.SetNodeProperty(bo, "name", pg::Value("Bo"));
  g.SetNodeProperty(bo, "age", pg::Value(static_cast<int64_t>(44)));
  auto cy = g.AddNode({});
  g.SetNodeProperty(cy, "name", pg::Value("Cy"));
  g.SetNodeProperty(cy, "age", pg::Value(static_cast<int64_t>(19)));
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

/// The schema a one-shot multi-batch CLI-style run produces for `graph`.
std::string OneShotPgs(size_t batches) {
  pg::PropertyGraph graph = SocialGraph();
  core::PgHiveOptions options;
  core::PgHive pipeline(&graph, options);
  if (batches <= 1) {
    EXPECT_TRUE(pipeline.Run().ok());
  } else {
    for (const auto& batch :
         pg::SplitIntoBatches(graph, batches, /*seed=*/1)) {
      EXPECT_TRUE(pipeline.ProcessBatch(batch).ok());
    }
    EXPECT_TRUE(pipeline.Finish().ok());
  }
  return core::SerializePgSchema(pipeline.schema(), graph.vocab(),
                                 core::SchemaMode::kStrict);
}

TEST(SessionManagerTest, CreateLookupCloseLifecycle) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->id(), "s1");
  EXPECT_EQ(manager.num_sessions(), 1u);

  auto found = manager.Lookup("s1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->get(), session->get());
  EXPECT_FALSE(manager.Lookup("s2").ok());

  EXPECT_TRUE(manager.Close("s1").ok());
  EXPECT_EQ(manager.num_sessions(), 0u);
  EXPECT_FALSE(manager.Lookup("s1").ok());
  EXPECT_FALSE(manager.Close("s1").ok());

  // Ids never recycle.
  auto next = manager.CreateSession({});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->id(), "s2");
}

TEST(SessionManagerTest, EnforcesMaxSessions) {
  SessionManager::Options options;
  options.max_sessions = 2;
  SessionManager manager(nullptr, options);
  ASSERT_TRUE(manager.CreateSession({}).ok());
  ASSERT_TRUE(manager.CreateSession({}).ok());
  auto third = manager.CreateSession({});
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), util::StatusCode::kFailedPrecondition);
  // Closing frees a slot.
  ASSERT_TRUE(manager.Close("s1").ok());
  EXPECT_TRUE(manager.CreateSession({}).ok());
}

TEST(SessionManagerTest, RejectsBadOptionFlags) {
  SessionManager manager(nullptr);
  EXPECT_FALSE(manager.CreateSession({{"threads", "-3"}}).ok());
  EXPECT_FALSE(manager.CreateSession({{"no-such-knob", "1"}}).ok());
  EXPECT_EQ(manager.num_sessions(), 0u);
}

TEST(SessionTest, StreamedScheduleMatchesOneShot) {
  const std::string expected = OneShotPgs(/*batches=*/3);
  util::ThreadPool pool(4);
  SessionManager manager(&pool);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());

  pg::PropertyGraph graph = SocialGraph();
  for (const std::string& payload :
       BuildIngestPayloads(graph, /*num_batches=*/3)) {
    auto seq = (*session)->SubmitIngest(payload);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  }
  auto final_snapshot = (*session)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok()) << final_snapshot.status().ToString();
  EXPECT_TRUE((*final_snapshot)->is_final);
  EXPECT_EQ((*final_snapshot)->batches, 3u);
  EXPECT_EQ(*SnapshotForm(**final_snapshot, "pgs"), expected);

  // The binary form reconstructs the same schema structure.
  auto schema =
      core::ParseSchemaBinary(*SnapshotForm(**final_snapshot, "binary"));
  ASSERT_TRUE(schema.ok());
  EXPECT_GT(schema->num_node_types(), 0u);
}

TEST(SessionTest, SnapshotsVersionMonotonicallyAndNeverBlockIngest) {
  util::ThreadPool pool(2);
  SessionManager manager(&pool);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());

  EXPECT_EQ((*session)->Snapshot(), nullptr);
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, /*num_batches=*/2);
  ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
  (*session)->Drain();
  auto first = (*session)->Snapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->is_final);
  EXPECT_EQ(first->batches, 1u);

  ASSERT_TRUE((*session)->SubmitIngest(payloads[1]).ok());
  auto final_snapshot = (*session)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok());
  EXPECT_GT((*final_snapshot)->version, first->version);
  // The first snapshot is immutable: still batch 1's view.
  EXPECT_EQ(first->batches, 1u);
  EXPECT_FALSE(first->is_final);
}

TEST(SessionTest, IngestAfterFinalSnapshotIsRejected) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  pg::PropertyGraph graph = SocialGraph();
  auto payloads = BuildIngestPayloads(graph, /*num_batches=*/1);
  ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
  ASSERT_TRUE((*session)->FinalSnapshot().ok());

  auto late = (*session)->SubmitIngest(payloads[0]);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SessionTest, BadPayloadLatchesErrorAndRejectsFurtherIngest) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->SubmitIngest("this is not a payload\n").ok());
  (*session)->Drain();
  EXPECT_FALSE((*session)->status().ok());
  EXPECT_FALSE((*session)->SubmitIngest("G 1 0\n").ok());
  EXPECT_FALSE((*session)->FinalSnapshot().ok());
}

TEST(SessionTest, OutOfRangeIntegerIngestsAsText) {
  // An integer literal beyond int64_t is a string value, so the batch
  // commits and publishes version 1 instead of failing mid-payload.
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)
                  ->SubmitIngest("G 2 0\nN 0 Person big=99999999999999999999\n"
                                 "N 1 Person big=7\n")
                  .ok());
  (*session)->Drain();
  EXPECT_TRUE((*session)->status().ok()) << (*session)->status().ToString();
  auto snapshot = (*session)->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  auto diffs =
      (*session)->WaitForDiffs(/*after_version=*/0, /*timeout_ms=*/0);
  ASSERT_TRUE(diffs.ok()) << diffs.status().ToString();
  EXPECT_FALSE(diffs->empty());
}

TEST(SessionTest, FinalSnapshotFailsOnIncompleteStream) {
  SessionManager manager(nullptr);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  // Declares 2 nodes but only materializes one.
  ASSERT_TRUE((*session)->SubmitIngest("G 2 0\nN 0 Person name=x\n").ok());
  auto final_snapshot = (*session)->FinalSnapshot();
  EXPECT_FALSE(final_snapshot.ok());
}

TEST(SessionTest, ValidateUsesAVocabCopy) {
  util::ThreadPool pool(2);
  SessionManager manager(&pool);
  auto session = manager.CreateSession({});
  ASSERT_TRUE(session.ok());
  // Fully labeled graph: unlabeled nodes merge into a labeled type, which
  // strict validation then (correctly) flags — irrelevant to this test.
  pg::PropertyGraph graph;
  auto ann = graph.AddNode({"Person"});
  graph.SetNodeProperty(ann, "name", pg::Value("Ann"));
  auto bo = graph.AddNode({"Person"});
  graph.SetNodeProperty(bo, "name", pg::Value("Bo"));
  graph.AddEdge(ann, bo, {"KNOWS"});
  auto payloads = BuildIngestPayloads(graph, /*num_batches=*/1);
  ASSERT_TRUE((*session)->SubmitIngest(payloads[0]).ok());
  auto final_snapshot = (*session)->FinalSnapshot();
  ASSERT_TRUE(final_snapshot.ok());

  // A schema full of labels the session never saw: validation must fail
  // gracefully without interning them into the session's vocabulary.
  const std::string foreign =
      "CREATE GRAPH TYPE Foreign STRICT {\n"
      "  (ZzyzxType : Zzyzx {quux STRING})\n"
      "}\n";
  auto result = (*session)->Validate(foreign, /*strict=*/true);
  if (result.ok()) {
    EXPECT_FALSE(result->conforms);
  }
  // The session's own schema still validates cleanly afterwards.
  auto own = (*session)->Validate(*SnapshotForm(**final_snapshot, "pgs"),
                                  /*strict=*/true);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_TRUE(own->conforms) << own->report;
}

}  // namespace
}  // namespace pghive::service

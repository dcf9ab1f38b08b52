// GraphAssembler unit tests: the ingest-payload grammar (G header, vocab
// preamble, N/R/M/E records), its error paths, and the end-to-end identity
// that BuildIngestPayloads + ApplyPayload reconstruct the original graph —
// same dense ids, same intern order, same text serialization.

#include "service/assembler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "pg/batch.h"
#include "pg/graph.h"
#include "pg/graph_io.h"
#include "service/client.h"
#include "util/status.h"

namespace pghive::service {
namespace {

pg::PropertyGraph SmallGraph() {
  pg::PropertyGraph g;
  auto a = g.AddNode({"Person"});
  g.SetNodeProperty(a, "name", pg::Value("Ann"));
  auto b = g.AddNode({"Person", "Admin"});
  g.SetNodeProperty(b, "name", pg::Value("Bo"));
  auto c = g.AddNode({"Post"});
  g.SetNodeProperty(c, "score", pg::Value(static_cast<int64_t>(7)));
  auto e = g.AddEdge(a, c, {"LIKES"});
  g.SetEdgeProperty(e, "when", pg::Value("2020"));
  g.AddEdge(b, a, {"KNOWS"});
  return g;
}

std::string GraphText(const pg::PropertyGraph& g) {
  return pg::SaveGraphText(g);
}

TEST(GraphAssemblerTest, SinglePayloadRebuildsGraphExactly) {
  pg::PropertyGraph original = SmallGraph();
  auto payloads = BuildIngestPayloads(original, /*num_batches=*/1);
  ASSERT_EQ(payloads.size(), 1u);

  pg::PropertyGraph rebuilt;
  GraphAssembler assembler(&rebuilt);
  pg::GraphBatch batch;
  ASSERT_TRUE(assembler.ApplyPayload(payloads[0], &batch).ok());
  EXPECT_TRUE(assembler.CheckComplete().ok());
  EXPECT_EQ(batch.node_ids.size(), original.num_nodes());
  EXPECT_EQ(batch.edge_ids.size(), original.num_edges());
  // Same dense ids, labels, properties, and vocab intern order.
  EXPECT_EQ(GraphText(rebuilt), GraphText(original));
}

TEST(GraphAssemblerTest, MultiBatchRebuildIsExactAndCoversEveryElement) {
  pg::PropertyGraph original = SmallGraph();
  auto payloads = BuildIngestPayloads(original, /*num_batches=*/3);
  ASSERT_EQ(payloads.size(), 3u);

  pg::PropertyGraph rebuilt;
  GraphAssembler assembler(&rebuilt);
  size_t member_nodes = 0;
  size_t member_edges = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    pg::GraphBatch batch;
    ASSERT_TRUE(assembler.ApplyPayload(payloads[i], &batch).ok())
        << "batch " << i;
    member_nodes += batch.node_ids.size();
    member_edges += batch.edge_ids.size();
  }
  EXPECT_TRUE(assembler.CheckComplete().ok());
  // Every element is a member of exactly one batch (R lines materialize
  // early but membership stays with the owning batch via M markers).
  EXPECT_EQ(member_nodes, original.num_nodes());
  EXPECT_EQ(member_edges, original.num_edges());
  EXPECT_EQ(GraphText(rebuilt), GraphText(original));
}

TEST(GraphAssemblerTest, BatchMembersMatchSplitIntoBatchesOrder) {
  pg::PropertyGraph original = SmallGraph();
  auto expected = pg::SplitIntoBatches(original, 2, /*seed=*/1);
  auto payloads = BuildIngestPayloads(original, /*num_batches=*/2, /*seed=*/1);
  ASSERT_EQ(payloads.size(), expected.size());

  pg::PropertyGraph rebuilt;
  GraphAssembler assembler(&rebuilt);
  for (size_t i = 0; i < payloads.size(); ++i) {
    pg::GraphBatch batch;
    ASSERT_TRUE(assembler.ApplyPayload(payloads[i], &batch).ok());
    EXPECT_EQ(batch.node_ids, expected[i].node_ids) << "batch " << i;
    EXPECT_EQ(batch.edge_ids, expected[i].edge_ids) << "batch " << i;
  }
}

TEST(GraphAssemblerTest, RejectsRecordsBeforeHeader) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  EXPECT_FALSE(assembler.ApplyPayload("N 0 Person name=x\n", &batch).ok());
}

TEST(GraphAssemblerTest, RejectsDuplicateHeader) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  ASSERT_TRUE(assembler.ApplyPayload("G 1 0\n", &batch).ok());
  EXPECT_FALSE(assembler.ApplyPayload("G 1 0\n", &batch).ok());
}

TEST(GraphAssemblerTest, RejectsOutOfRangeAndDoubleMaterialization) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  ASSERT_TRUE(assembler.ApplyPayload("G 2 0\nN 0 Person -\n", &batch).ok());
  // Id beyond the declared size.
  EXPECT_FALSE(assembler.ApplyPayload("N 5 Person -\n", &batch).ok());
  // Same node twice.
  EXPECT_FALSE(assembler.ApplyPayload("N 0 Person -\n", &batch).ok());
}

TEST(GraphAssemblerTest, MembershipMarkerRequiresMaterializedNode) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  ASSERT_TRUE(assembler.ApplyPayload("G 2 0\n", &batch).ok());
  EXPECT_FALSE(assembler.ApplyPayload("M 1\n", &batch).ok());
  ASSERT_TRUE(assembler.ApplyPayload("R 1 Person -\n", &batch).ok());
  EXPECT_TRUE(batch.node_ids.empty());  // R is not a member.
  EXPECT_TRUE(assembler.ApplyPayload("M 1\n", &batch).ok());
  EXPECT_EQ(batch.node_ids.size(), 1u);
}

TEST(GraphAssemblerTest, EdgeNeedsMaterializedEndpoints) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  ASSERT_TRUE(assembler.ApplyPayload("G 2 1\nN 0 A -\n", &batch).ok());
  EXPECT_FALSE(assembler.ApplyPayload("E 0 0 1 REL -\n", &batch).ok());
  ASSERT_TRUE(assembler.ApplyPayload("N 1 B -\n", &batch).ok());
  EXPECT_TRUE(assembler.ApplyPayload("E 0 0 1 REL -\n", &batch).ok());
  EXPECT_TRUE(assembler.CheckComplete().ok());
}

TEST(GraphAssemblerTest, CheckCompleteReportsUnfilledElements) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  ASSERT_TRUE(assembler.ApplyPayload("G 2 0\nN 0 A -\n", &batch).ok());
  auto status = assembler.CheckComplete();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

TEST(GraphAssemblerTest, HeaderRejectsAbsurdDeclaredSizes) {
  // Untrusted declared sizes are clamped before the placeholder loop would
  // try to allocate them: a hostile G header fails with OutOfRange instead
  // of out-of-memory.
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  auto nodes = assembler.ApplyPayload("G 999999999999 0\n", &batch);
  ASSERT_FALSE(nodes.ok());
  EXPECT_EQ(nodes.code(), util::StatusCode::kOutOfRange);
  auto edges = assembler.ApplyPayload("G 1 999999999999\n", &batch);
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.code(), util::StatusCode::kOutOfRange);
  EXPECT_EQ(g.num_nodes(), 0u);
}

TEST(GraphAssemblerTest, StateRoundTripResumesMidStream) {
  pg::PropertyGraph original = SmallGraph();
  auto payloads = BuildIngestPayloads(original, /*num_batches=*/3);

  // Stream the first batch. (R lines pull edge endpoints forward, so even
  // one batch may fill most of the graph — the fill bitmaps, not a count,
  // are what the resume depends on.)
  pg::PropertyGraph first_graph;
  GraphAssembler first(&first_graph);
  {
    pg::GraphBatch batch;
    ASSERT_TRUE(first.ApplyPayload(payloads[0], &batch).ok());
  }

  // A restarted pghived replays its ingest log: the same first payload into
  // a fresh assembler rebuilds the graph and the bitmaps, and the remaining
  // batches complete the stream exactly as the uninterrupted one would.
  pg::PropertyGraph replayed;
  GraphAssembler second(&replayed);
  {
    pg::GraphBatch batch;
    ASSERT_TRUE(second.ApplyPayload(payloads[0], &batch).ok());
  }
  EXPECT_EQ(second.nodes_filled(), first.nodes_filled());
  EXPECT_EQ(second.edges_filled(), first.edges_filled());
  EXPECT_EQ(GraphText(replayed), GraphText(first_graph));
  for (size_t i = 1; i < payloads.size(); ++i) {
    pg::GraphBatch batch;
    ASSERT_TRUE(second.ApplyPayload(payloads[i], &batch).ok()) << i;
  }
  EXPECT_TRUE(second.CheckComplete().ok());
  EXPECT_EQ(GraphText(replayed), GraphText(original));
}

TEST(GraphAssemblerTest, VocabPreambleSurvivesNamesWithSpaces) {
  // V lines carry the name as the rest of the line, so vocabulary entries
  // with spaces intern in the right order.
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  ASSERT_TRUE(
      assembler.ApplyPayload("G 0 0\nV L Known For\nV K full name\n", &batch)
          .ok());
  ASSERT_EQ(g.vocab().num_labels(), 1u);
  EXPECT_EQ(g.vocab().LabelName(0), "Known For");
  ASSERT_EQ(g.vocab().num_keys(), 1u);
  EXPECT_EQ(g.vocab().KeyName(0), "full name");
}

TEST(GraphAssemblerTest, RecordsWithBlanksAndOutOfRangeIntegersRebuild) {
  // N, R and E records go through the graph-text record parser: escaped
  // blanks in labels, blanks in keys and values, and an integer literal
  // beyond int64_t (kept as text) all arrive intact.
  pg::PropertyGraph original;
  auto ada = original.AddNode({"Known For", "Person"});
  original.SetNodeProperty(ada, "full name", pg::Value("Ada Lovelace"));
  original.SetNodeProperty(ada, "big", pg::Value("99999999999999999999"));
  auto work = original.AddNode({"Note\tG"});
  original.SetNodeProperty(work, "title", pg::Value("Note G | 1843"));
  auto e = original.AddEdge(work, ada, {"WRITTEN BY"});
  original.SetEdgeProperty(e, "in year", pg::Value(static_cast<int64_t>(1843)));
  for (size_t batches : {size_t{1}, size_t{2}}) {
    pg::PropertyGraph rebuilt;
    GraphAssembler assembler(&rebuilt);
    for (const std::string& payload :
         BuildIngestPayloads(original, batches, /*seed=*/3)) {
      pg::GraphBatch batch;
      ASSERT_TRUE(assembler.ApplyPayload(payload, &batch).ok()) << payload;
    }
    EXPECT_TRUE(assembler.CheckComplete().ok());
    EXPECT_EQ(GraphText(rebuilt), GraphText(original)) << batches;
    EXPECT_EQ(rebuilt.vocab().LabelName(rebuilt.node(0).labels[0]),
              "Known For");
  }
}

TEST(GraphAssemblerTest, RejectsMalformedRecordKindsAndCounts) {
  pg::PropertyGraph g;
  GraphAssembler assembler(&g);
  pg::GraphBatch batch;
  EXPECT_EQ(assembler.ApplyPayload("G 2x 0\n", &batch).code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(assembler.ApplyPayload("G 2 0 junk\n", &batch).code(),
            util::StatusCode::kParseError);
  ASSERT_TRUE(assembler.ApplyPayload("G 2 0\nN 0 A -\n", &batch).ok());
  EXPECT_EQ(assembler.ApplyPayload("NN 1 A -\n", &batch).code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(assembler.ApplyPayload(" N 1 A -\n", &batch).code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(assembler.ApplyPayload("N 1abc A\n", &batch).code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(assembler.ApplyPayload("M 0 0\n", &batch).code(),
            util::StatusCode::kParseError);
  EXPECT_EQ(assembler.ApplyPayload("M +0\n", &batch).code(),
            util::StatusCode::kParseError);
  EXPECT_TRUE(assembler.ApplyPayload("M 0\n", &batch).ok());
}

}  // namespace
}  // namespace pghive::service

// Randomized property suite for SplitIntoBatches: partition exactness,
// seed determinism, degenerate batch counts, and the stream shapes the
// incremental pipeline must tolerate (edges arriving before their
// endpoints). Graph shapes and split parameters are drawn from a seeded RNG
// so every run exercises the same (reproducible) cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "pg/batch.h"
#include "util/rng.h"

namespace pghive::pg {
namespace {

PropertyGraph RandomGraph(uint64_t seed) {
  util::Rng rng(seed);
  PropertyGraph g;
  const size_t nodes = 1 + rng.NextBounded(200);
  const char* labels[] = {"A", "B", "C"};
  for (size_t i = 0; i < nodes; ++i) {
    std::vector<std::string> ls;
    if (rng.NextBool(0.8)) ls.push_back(labels[rng.NextBounded(3)]);
    g.AddNode(ls);
  }
  const size_t edges = rng.NextBounded(300);
  for (size_t e = 0; e < edges; ++e) {
    g.AddEdge(rng.NextBounded(nodes), rng.NextBounded(nodes), {"R"});
  }
  return g;
}

class RandomSplitTest : public ::testing::TestWithParam<uint64_t> {};

// Every node and edge appears in exactly one batch, for arbitrary graph
// shapes and batch counts (including num_batches == 1 and counts far larger
// than the graph).
TEST_P(RandomSplitTest, ExactPartitionForRandomShapes) {
  util::Rng rng(GetParam() ^ 0xABCD);
  PropertyGraph g = RandomGraph(GetParam());
  for (size_t trial = 0; trial < 4; ++trial) {
    const size_t num_batches = 1 + rng.NextBounded(3 * g.num_nodes() + 8);
    auto batches = SplitIntoBatches(g, num_batches, rng.NextU64());
    ASSERT_EQ(batches.size(), num_batches);
    std::set<NodeId> nodes;
    std::set<EdgeId> edges;
    for (const auto& b : batches) {
      for (NodeId n : b.node_ids) {
        ASSERT_LT(n, g.num_nodes());
        EXPECT_TRUE(nodes.insert(n).second) << "node " << n << " duplicated";
      }
      for (EdgeId e : b.edge_ids) {
        ASSERT_LT(e, g.num_edges());
        EXPECT_TRUE(edges.insert(e).second) << "edge " << e << " duplicated";
      }
    }
    EXPECT_EQ(nodes.size(), g.num_nodes());
    EXPECT_EQ(edges.size(), g.num_edges());
  }
}

// Same seed => identical split (element-for-element), different seed =>
// a different split (on any graph big enough for a permutation to differ).
TEST_P(RandomSplitTest, SeedDeterminesSplit) {
  PropertyGraph g = RandomGraph(GetParam());
  const size_t num_batches = 1 + GetParam() % 7;
  auto a = SplitIntoBatches(g, num_batches, /*seed=*/GetParam());
  auto b = SplitIntoBatches(g, num_batches, /*seed=*/GetParam());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node_ids, b[i].node_ids) << "batch " << i;
    EXPECT_EQ(a[i].edge_ids, b[i].edge_ids) << "batch " << i;
  }
}

// num_batches far beyond the element count: the extra batches must come
// back empty (not crash, not wrap), and the partition still holds.
TEST_P(RandomSplitTest, MoreBatchesThanElements) {
  PropertyGraph g = RandomGraph(GetParam());
  const size_t num_batches = 5 * (g.num_nodes() + g.num_edges()) + 3;
  auto batches = SplitIntoBatches(g, num_batches, 11);
  ASSERT_EQ(batches.size(), num_batches);
  size_t non_empty = 0, node_total = 0, edge_total = 0;
  for (const auto& b : batches) {
    if (!b.empty()) ++non_empty;
    node_total += b.node_ids.size();
    edge_total += b.edge_ids.size();
    EXPECT_LE(b.node_ids.size(), 1u);
    EXPECT_LE(b.edge_ids.size(), 1u);
  }
  EXPECT_EQ(node_total, g.num_nodes());
  EXPECT_EQ(edge_total, g.num_edges());
  EXPECT_LE(non_empty, g.num_nodes() + g.num_edges());
}

// One batch is the whole graph in id order for every seed: the order static
// discovery (FullBatch) and a one-batch pghived stream process it in, so a
// stateful one-batch `discover` writes the plain run's schema.
TEST_P(RandomSplitTest, OneBatchIsIdOrderForEverySeed) {
  PropertyGraph g = RandomGraph(GetParam());
  const GraphBatch full = FullBatch(g);
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, GetParam(), ~GetParam()}) {
    auto batches = SplitIntoBatches(g, 1, seed);
    ASSERT_EQ(batches.size(), 1u);
    EXPECT_EQ(batches[0].node_ids, full.node_ids) << "seed " << seed;
    EXPECT_EQ(batches[0].edge_ids, full.edge_ids) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSplitTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u, 1234u));

// Random splits routinely put an edge in an earlier batch than its
// endpoints; quantify that this actually happens (so the pipeline-tolerance
// tests in the core suites are exercising a real stream shape, not a
// vacuous one).
TEST(RandomSplitTest, EdgesDoArriveBeforeTheirEndpoints) {
  PropertyGraph g;
  for (size_t i = 0; i < 40; ++i) g.AddNode({"N"});
  for (size_t e = 0; e < 60; ++e) g.AddEdge(e % 40, (e * 7 + 1) % 40, {"R"});
  size_t early_edges = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto batches = SplitIntoBatches(g, 5, seed);
    std::vector<size_t> node_batch(g.num_nodes(), 0);
    for (size_t b = 0; b < batches.size(); ++b) {
      for (NodeId n : batches[b].node_ids) node_batch[n] = b;
    }
    for (size_t b = 0; b < batches.size(); ++b) {
      for (EdgeId e : batches[b].edge_ids) {
        const Edge& edge = g.edge(e);
        if (node_batch[edge.src] > b || node_batch[edge.dst] > b) {
          ++early_edges;
        }
      }
    }
  }
  EXPECT_GT(early_edges, 0u)
      << "random splits never produced an edge-before-endpoint batch; the "
         "tolerance property would be untested";
}

}  // namespace
}  // namespace pghive::pg

// BuildNodeCandidates / BuildEdgeCandidates against a per-member reference,
// and the pattern hashes they record against the pattern structs.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "core/type_extraction.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "lsh/clustering.h"
#include "pg/batch.h"
#include "util/rng.h"

namespace pghive::core {
namespace {

using EndpointTokens =
    std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>;

// The builders' first form: one pass in batch order that copies each
// member's labels and keys, unions them into its candidate, counts keys in
// a std::map and hashes a NodePattern / EdgePattern built from the copies.
std::vector<CandidateType> ReferenceCandidates(
    const pg::PropertyGraph& graph, const std::vector<uint64_t>& ids,
    const lsh::ClusterSet& clusters, const EndpointTokens* endpoint_tokens) {
  const bool nodes = endpoint_tokens == nullptr;
  std::vector<CandidateType> candidates(clusters.num_clusters());
  std::vector<std::map<pg::PropKeyId, size_t>> counts(clusters.num_clusters());
  for (size_t i = 0; i < ids.size(); ++i) {
    uint32_t c = clusters.cluster_of(i);
    CandidateType& cand = candidates[c];
    const std::vector<pg::LabelId>& labels =
        nodes ? graph.node(ids[i]).labels : graph.edge(ids[i]).labels;
    std::vector<pg::PropKeyId> keys =
        nodes ? graph.node(ids[i]).properties.Keys()
              : graph.edge(ids[i]).properties.Keys();
    cand.labels = UnionSorted(cand.labels, labels);
    cand.keys = UnionSorted(cand.keys, keys);
    for (pg::PropKeyId k : keys) ++counts[c][k];
    cand.instances.push_back(ids[i]);
    ++cand.instance_count;
    if (nodes) {
      cand.pattern_hashes.push_back(NodePattern{labels, keys}.Hash());
    } else {
      const pg::Edge& e = graph.edge(ids[i]);
      cand.endpoints.push_back((*endpoint_tokens)[i]);
      cand.pattern_hashes.push_back(
          EdgePattern{labels, keys, graph.node(e.src).labels,
                      graph.node(e.dst).labels}
              .Hash());
    }
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    candidates[c].key_counts.assign(counts[c].begin(), counts[c].end());
    auto& ph = candidates[c].pattern_hashes;
    std::sort(ph.begin(), ph.end());
    ph.erase(std::unique(ph.begin(), ph.end()), ph.end());
    auto& ep = candidates[c].endpoints;
    std::sort(ep.begin(), ep.end());
    ep.erase(std::unique(ep.begin(), ep.end()), ep.end());
  }
  return candidates;
}

void ExpectSameCandidates(const std::vector<CandidateType>& got,
                          const std::vector<CandidateType>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t c = 0; c < got.size(); ++c) {
    SCOPED_TRACE("candidate " + std::to_string(c));
    EXPECT_EQ(got[c].labels, want[c].labels);
    EXPECT_EQ(got[c].keys, want[c].keys);
    EXPECT_EQ(got[c].instances, want[c].instances);
    EXPECT_EQ(got[c].instance_count, want[c].instance_count);
    EXPECT_EQ(got[c].key_counts, want[c].key_counts);
    EXPECT_EQ(got[c].pattern_hashes, want[c].pattern_hashes);
    EXPECT_EQ(got[c].endpoints, want[c].endpoints);
  }
}

// A random clustering of `n` items into at most `k` clusters; a cluster id
// no item draws stays an empty cluster.
lsh::ClusterSet RandomClusters(size_t n, size_t k, util::Rng* rng) {
  std::vector<uint32_t> assignment(n);
  for (uint32_t& c : assignment) c = static_cast<uint32_t>(rng->NextBounded(k));
  return lsh::ClusterSet(std::move(assignment));
}

// Checks both builders on every batch of `graph` under a one-cluster and a
// random clustering.
void CheckBuilders(pg::PropertyGraph* graph, size_t num_batches,
                   uint64_t seed) {
  util::Rng rng(seed);
  for (const pg::GraphBatch& batch :
       pg::SplitIntoBatches(*graph, num_batches, seed)) {
    EndpointTokens tokens;
    for (pg::EdgeId id : batch.edge_ids) {
      const pg::Edge& e = graph->edge(id);
      tokens.emplace_back(
          graph->vocab().TokenForLabelSet(graph->node(e.src).labels),
          graph->vocab().TokenForLabelSet(graph->node(e.dst).labels));
    }
    for (size_t k : {size_t{1}, 1 + rng.NextBounded(12)}) {
      SCOPED_TRACE("clusters " + std::to_string(k));
      lsh::ClusterSet node_clusters =
          RandomClusters(batch.node_ids.size(), k, &rng);
      ExpectSameCandidates(
          BuildNodeCandidates(*graph, batch, node_clusters),
          ReferenceCandidates(*graph, batch.node_ids, node_clusters, nullptr));
      lsh::ClusterSet edge_clusters =
          RandomClusters(batch.edge_ids.size(), k, &rng);
      ExpectSameCandidates(
          BuildEdgeCandidates(*graph, batch, edge_clusters, tokens),
          ReferenceCandidates(*graph, batch.edge_ids, edge_clusters, &tokens));
    }
  }
}

// Labels and keys drawn from small pools, unlabeled and property-less
// elements, parallel edges and self-loops.
pg::PropertyGraph RandomGraph(uint64_t seed) {
  util::Rng rng(seed);
  pg::PropertyGraph g;
  const char* labels[] = {"A", "B", "C", "D"};
  const char* keys[] = {"k0", "k1", "k2", "k3", "k4", "k5", "k6"};
  const size_t num_nodes = 1 + rng.NextBounded(80);
  for (size_t i = 0; i < num_nodes; ++i) {
    std::vector<std::string> node_labels;
    for (size_t l = rng.NextBounded(4); l > 0; --l) {
      node_labels.push_back(labels[rng.NextBounded(4)]);
    }
    pg::NodeId id = g.AddNode(node_labels);
    for (const char* key : keys) {
      if (rng.NextBool(0.35)) {
        g.SetNodeProperty(id, key, pg::Value(static_cast<int64_t>(i)));
      }
    }
  }
  const size_t num_edges = rng.NextBounded(160);
  for (size_t i = 0; i < num_edges; ++i) {
    pg::NodeId src = rng.NextBounded(num_nodes);
    pg::NodeId dst = rng.NextBool(0.1) ? src : rng.NextBounded(num_nodes);
    std::vector<std::string> edge_labels;
    if (rng.NextBool(0.8)) edge_labels.push_back(labels[rng.NextBounded(4)]);
    for (int copies = rng.NextBool(0.2) ? 2 : 1; copies > 0; --copies) {
      pg::EdgeId id = g.AddEdge(src, dst, edge_labels);
      for (const char* key : keys) {
        if (rng.NextBool(0.2)) g.SetEdgeProperty(id, key, pg::Value(1.5));
      }
    }
  }
  return g;
}

TEST(CandidateBuilderTest, MatchesPerMemberReferenceOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    pg::PropertyGraph g = RandomGraph(seed);
    CheckBuilders(&g, 1 + seed % 3, seed);
  }
}

TEST(CandidateBuilderTest, MatchesPerMemberReferenceOnZooDatasets) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    datasets::Dataset dataset = datasets::Generate(spec, 0.02, 0xCA4D);
    CheckBuilders(&dataset.graph, 2, 0xCA4D);
  }
}

// The builders hash each member in place; the value must stay the pattern
// struct's Hash() of that member. The hashes are persisted (binary schema,
// checkpoints), so they must also keep their values across builds: the
// literals below pin the arithmetic itself.
TEST(CandidateBuilderTest, ElementHashesEqualPatternHashes) {
  pg::PropertyGraph g = RandomGraph(0x4A54);
  for (const pg::Node& n : g.nodes()) {
    EXPECT_EQ(NodePatternHash(n),
              (NodePattern{n.labels, n.properties.Keys()}.Hash()));
  }
  for (const pg::Edge& e : g.edges()) {
    EXPECT_EQ(EdgePatternHash(g, e),
              (EdgePattern{e.labels, e.properties.Keys(),
                           g.node(e.src).labels, g.node(e.dst).labels}
                   .Hash()));
  }
  EXPECT_EQ((NodePattern{{}, {}}.Hash()), 0x7b19193d3e841d89u);
  EXPECT_EQ((NodePattern{{1, 2}, {10}}.Hash()), 0xef2f99657d435d76u);
  EXPECT_EQ((EdgePattern{{}, {}, {}, {}}.Hash()), 0x7a1e32f527626e40u);
  EXPECT_EQ((EdgePattern{{1}, {10, 11}, {2}, {3, 4}}.Hash()),
            0xfc0e12e25b7fc8f1u);
}

}  // namespace
}  // namespace pghive::core

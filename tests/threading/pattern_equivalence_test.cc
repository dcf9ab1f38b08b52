// Cross-path equivalence: PgHive clusters each batch side once per distinct
// element pattern (PgHive::ClusterSide), while the per-row entry points —
// Vectorizer::NodeFeatures / NodeSetSpans, ChooseNodeParams(FeatureMatrix),
// LSH over every row, BuildNodeCandidates(graph, batch, clusters) — do the
// same work once per element, as perfbench's traced replay does. On random
// graphs and on every zoo dataset, with both LSH families, both
// amplifications, and no pool or pools of 2 and 4 threads, every side must
// agree on:
//   - the row clustering (a row's cluster is its pattern's);
//   - the adaptive (b, T) choice, to the bit;
//   - every CandidateType field;
// and the schema the per-row candidates extract must render the pattern
// path's .pgs and .xsd. Runs under the `threaded` label, so the TSan job
// races the pool's fills, hashing and group-by inside each side.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/cardinality.h"
#include "core/constraints.h"
#include "core/datatype_inference.h"
#include "core/pghive.h"
#include "core/serialize.h"
#include "core/type_extraction.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "lsh/euclidean_lsh.h"
#include "lsh/minhash.h"
#include "pg/batch.h"
#include "util/rng.h"

namespace pghive {
namespace {

using core::ClusterMethod;
using lsh::Amplification;

struct Config {
  ClusterMethod method;
  Amplification amplification;
  size_t threads;
};

std::string Describe(const Config& config) {
  return std::string(config.method == ClusterMethod::kElsh ? "elsh"
                                                           : "minhash") +
         (config.amplification == Amplification::kAnd ? " and" : " or") +
         " threads=" + std::to_string(config.threads);
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (ClusterMethod method : {ClusterMethod::kElsh, ClusterMethod::kMinHash}) {
    for (Amplification amp : {Amplification::kAnd, Amplification::kOr}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        configs.push_back({method, amp, threads});
      }
    }
  }
  return configs;
}

/// One side clustered row by row through the per-row entry points, with
/// PgHive's parameter derivation (the same per-side seeds and clamps).
core::PgHive::SideClusters ClusterRows(const core::PgHive& hive,
                                       const pg::PropertyGraph& graph,
                                       core::PgHive::PreparedBatch* prepared,
                                       bool nodes) {
  const core::PgHiveOptions& options = hive.options();
  const pg::GraphBatch& batch = prepared->batch;
  core::Vectorizer& vectorizer = *prepared->vectorizer;
  const bool elsh = options.method == ClusterMethod::kElsh;
  const core::FeatureMatrix features = nodes ? vectorizer.NodeFeatures(batch)
                                             : vectorizer.EdgeFeatures(batch);
  core::PgHive::SideClusters side;
  core::AdaptiveOptions adaptive;
  adaptive.seed = options.seed ^ (nodes ? (elsh ? 0x11 : 0x12)
                                        : (elsh ? 0x21 : 0x22));
  const size_t labels = graph.vocab().num_labels();
  side.choice = nodes ? core::ChooseNodeParams(features, labels, adaptive)
                      : core::ChooseEdgeParams(features, labels, adaptive);
  if (elsh) {
    lsh::EuclideanLshParams params;
    params.bucket_length = std::max(1e-6, side.choice.bucket_length);
    params.num_tables = std::max<size_t>(1, side.choice.num_tables);
    params.seed = options.seed ^ (nodes ? 0xE15 : 0xE25);
    params.amplification = options.amplification;
    side.clusters = lsh::EuclideanLsh(features.dim, params)
                        .Cluster(features.data, features.num, hive.pool());
  } else {
    lsh::MinHashParams params;
    params.num_hashes = std::max<size_t>(4, side.choice.num_tables);
    params.rows_per_band =
        std::min(options.minhash_rows_per_band, params.num_hashes);
    params.seed = options.seed ^ (nodes ? 0x517 : 0x527);
    params.amplification = options.amplification;
    const core::ElementSetCsr sets = nodes ? vectorizer.NodeSetSpans(batch)
                                           : vectorizer.EdgeSetSpans(batch);
    side.clusters = lsh::MinHashLsh(params).Cluster(
        lsh::SetSpans{sets.elements.data(), sets.offsets.data(), sets.num()},
        hive.pool());
  }
  side.candidates =
      nodes ? core::BuildNodeCandidates(graph, batch, side.clusters)
            : core::BuildEdgeCandidates(graph, batch, side.clusters,
                                        vectorizer.EdgeEndpointTokens(batch));
  return side;
}

void ExpectSameChoice(const core::AdaptiveChoice& got,
                      const core::AdaptiveChoice& want) {
  EXPECT_EQ(got.mu, want.mu);
  EXPECT_EQ(got.alpha, want.alpha);
  EXPECT_EQ(got.bucket_length, want.bucket_length);
  EXPECT_EQ(got.num_tables, want.num_tables);
}

/// The pattern features and sets, read through the index, are the rows'.
void ExpectRowsReadTheirPatterns(const pg::PatternIndex& patterns,
                                 const core::FeatureMatrix& pattern_features,
                                 core::Vectorizer* vectorizer,
                                 const pg::GraphBatch& batch, bool nodes) {
  const core::FeatureMatrix rows = nodes ? vectorizer->NodeFeatures(batch)
                                         : vectorizer->EdgeFeatures(batch);
  ASSERT_EQ(pattern_features.num, patterns.num_patterns());
  ASSERT_EQ(rows.num, patterns.num_rows());
  ASSERT_EQ(rows.dim, pattern_features.dim);
  const core::ElementSetCsr row_sets = nodes
                                           ? vectorizer->NodeSetSpans(batch)
                                           : vectorizer->EdgeSetSpans(batch);
  const core::ElementSetCsr pattern_sets =
      nodes ? vectorizer->NodePatternSets(batch)
            : vectorizer->EdgePatternSets(batch);
  ASSERT_EQ(pattern_sets.num(), patterns.num_patterns());
  for (size_t row = 0; row < rows.num; ++row) {
    const uint32_t p = patterns.row_patterns[row];
    ASSERT_TRUE(std::equal(rows.row(row), rows.row(row) + rows.dim,
                           pattern_features.row(p)))
        << "row " << row;
    ASSERT_TRUE(std::equal(
        row_sets.elements.begin() + row_sets.offsets[row],
        row_sets.elements.begin() + row_sets.offsets[row + 1],
        pattern_sets.elements.begin() + pattern_sets.offsets[p],
        pattern_sets.elements.begin() + pattern_sets.offsets[p + 1]))
        << "row " << row;
  }
}

void ExpectSameCandidates(const std::vector<core::CandidateType>& got,
                          const std::vector<core::CandidateType>& want) {
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

/// Compares one side of a prepared batch on both paths and returns the
/// per-row candidates.
std::vector<core::CandidateType> CompareSide(
    const core::PgHive& hive, const pg::PropertyGraph& graph,
    core::PgHive::PreparedBatch* prepared, bool nodes) {
  SCOPED_TRACE(nodes ? "nodes" : "edges");
  core::Vectorizer& vectorizer = *prepared->vectorizer;
  const pg::GraphBatch& batch = prepared->batch;
  const pg::PatternIndex& patterns = (nodes ? vectorizer.NodeColumns(batch)
                                            : vectorizer.EdgeColumns(batch))
                                         .patterns();
  ExpectRowsReadTheirPatterns(
      patterns, nodes ? prepared->node_features : prepared->edge_features,
      &vectorizer, batch, nodes);
  const core::PgHive::SideClusters by_pattern =
      hive.ClusterSide(*prepared, nodes);
  core::PgHive::SideClusters by_row =
      ClusterRows(hive, graph, prepared, nodes);

  ExpectSameChoice(by_pattern.choice, by_row.choice);
  EXPECT_EQ(by_pattern.clusters.num_items(), patterns.num_patterns());
  EXPECT_EQ(by_pattern.clusters.num_clusters(), by_row.clusters.num_clusters());
  std::vector<uint32_t> expanded(patterns.num_rows());
  for (size_t row = 0; row < expanded.size(); ++row) {
    expanded[row] = by_pattern.clusters.cluster_of(patterns.row_patterns[row]);
  }
  EXPECT_EQ(expanded, by_row.clusters.assignment());
  ExpectSameCandidates(by_pattern.candidates, by_row.candidates);
  return std::move(by_row.candidates);
}

struct Rendering {
  std::string pgs;
  std::string xsd;
};

Rendering Render(const core::SchemaGraph& schema, const pg::Vocabulary& vocab) {
  return {core::SerializePgSchema(schema, vocab, core::SchemaMode::kStrict),
          core::SerializeXsd(schema, vocab)};
}

/// Runs `graph` through PgHive in `num_batches` batches, comparing both
/// paths on every side of every batch, and the final schema renderings.
void ExpectPathsAgree(pg::PropertyGraph graph, const Config& config,
                      size_t num_batches) {
  SCOPED_TRACE(Describe(config));
  core::PgHiveOptions options;
  options.method = config.method;
  options.amplification = config.amplification;
  options.num_threads = config.threads;
  core::PgHive hive(&graph, options);
  core::SchemaGraph row_schema;
  core::ExtractionOptions ext;
  ext.jaccard_threshold = options.jaccard_threshold;
  size_t index = 0;
  for (pg::GraphBatch& batch : pg::SplitIntoBatches(graph, num_batches, 5)) {
    SCOPED_TRACE("batch " + std::to_string(index++));
    core::PgHive::PreparedBatch prepared =
        hive.PreprocessBatch(std::move(batch));
    std::vector<core::CandidateType> node_rows, edge_rows;
    if (!prepared.batch.node_ids.empty()) {
      node_rows = CompareSide(hive, graph, &prepared, /*nodes=*/true);
    }
    if (!prepared.batch.edge_ids.empty()) {
      edge_rows = CompareSide(hive, graph, &prepared, /*nodes=*/false);
    }
    const bool has_nodes = !prepared.batch.node_ids.empty();
    const bool has_edges = !prepared.batch.edge_ids.empty();
    ASSERT_TRUE(hive.ProcessPrepared(std::move(prepared)).ok());
    if (has_nodes) {
      core::ExtractNodeTypes(std::move(node_rows), ext, &row_schema);
    }
    if (has_edges) {
      core::ExtractEdgeTypes(std::move(edge_rows), ext, &row_schema);
    }
  }
  ASSERT_TRUE(hive.Finish().ok());
  core::InferPropertyConstraints(&row_schema);
  core::InferDataTypes(graph, &row_schema, options.datatype_options,
                       hive.pool());
  core::ComputeCardinalities(graph, &row_schema);
  const Rendering by_pattern = Render(hive.schema(), graph.vocab());
  const Rendering by_row = Render(row_schema, graph.vocab());
  EXPECT_EQ(by_pattern.pgs, by_row.pgs);
  EXPECT_EQ(by_pattern.xsd, by_row.xsd);
}

/// Labels and keys from small pools (many repeated patterns), unlabeled and
/// property-less elements, explicit nulls, erased keys and self-loops. With
/// `distinct_keys`, every node also carries a key of its own, so no two node
/// rows share a pattern.
pg::PropertyGraph RandomGraph(uint64_t seed, bool distinct_keys) {
  util::Rng rng(seed);
  pg::PropertyGraph g;
  const char* labels[] = {"A", "B", "C"};
  const char* keys[] = {"k0", "k1", "k2", "k3", "k4"};
  const size_t num_nodes = 40 + rng.NextBounded(120);
  for (size_t i = 0; i < num_nodes; ++i) {
    std::vector<std::string> node_labels;
    for (size_t l = rng.NextBounded(3); l > 0; --l) {
      node_labels.push_back(labels[rng.NextBounded(3)]);
    }
    const pg::NodeId id = g.AddNode(node_labels);
    for (const char* key : keys) {
      if (rng.NextBool(0.3)) {
        g.SetNodeProperty(id, key,
                          rng.NextBool(0.2)
                              ? pg::Value()
                              : pg::Value(static_cast<int64_t>(i)));
      }
    }
    if (distinct_keys) {
      g.SetNodeProperty(id, "own" + std::to_string(i), pg::Value(true));
    } else if (rng.NextBool(0.1)) {
      g.node(id).properties.Erase(g.vocab().FindKey("k0"));
    }
  }
  const size_t num_edges = rng.NextBounded(3 * num_nodes);
  for (size_t e = 0; e < num_edges; ++e) {
    const pg::NodeId src = rng.NextBounded(num_nodes);
    const pg::NodeId dst = rng.NextBool(0.1) ? src : rng.NextBounded(num_nodes);
    std::vector<std::string> edge_labels;
    if (rng.NextBool(0.8)) {
      edge_labels.push_back(rng.NextBool(0.5) ? "R" : "S");
    }
    const pg::EdgeId id = g.AddEdge(src, dst, edge_labels);
    if (rng.NextBool(0.4)) {
      g.SetEdgeProperty(id, keys[rng.NextBounded(5)], pg::Value(true));
    }
  }
  return g;
}

TEST(PatternEquivalenceTest, RandomGraphs) {
  for (const Config& config : AllConfigs()) {
    for (uint64_t seed : {3u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      ExpectPathsAgree(RandomGraph(seed, /*distinct_keys=*/false), config,
                       /*num_batches=*/2);
    }
  }
}

TEST(PatternEquivalenceTest, RandomGraphsWithoutRepeatedNodePatterns) {
  for (const Config& config : AllConfigs()) {
    ExpectPathsAgree(RandomGraph(5, /*distinct_keys=*/true), config,
                     /*num_batches=*/1);
  }
}

TEST(PatternEquivalenceTest, EveryZooDataset) {
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    SCOPED_TRACE(spec.name);
    const datasets::Dataset dataset =
        datasets::Generate(spec, /*scale=*/0.02, /*seed=*/99);
    for (const Config& config : AllConfigs()) {
      ExpectPathsAgree(dataset.graph, config, /*num_batches=*/2);
    }
  }
}

}  // namespace
}  // namespace pghive

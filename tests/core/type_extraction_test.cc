#include "core/type_extraction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.h"

namespace pghive::core {
namespace {

CandidateType MakeCandidate(std::vector<pg::LabelId> labels,
                            std::vector<pg::PropKeyId> keys,
                            std::vector<uint64_t> instances) {
  CandidateType c;
  c.labels = std::move(labels);
  c.keys = std::move(keys);
  for (pg::PropKeyId k : c.keys) {
    c.key_counts.emplace_back(k, instances.size());
  }
  c.instance_count = instances.size();
  c.instances = std::move(instances);
  return c;
}

// --- Algorithm 2, phase 1: labeled candidates merge by exact label set ---

TEST(ExtractNodeTypesTest, SameLabelSetsMerge) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({1}, {10}, {0}),
                    MakeCandidate({1}, {11}, {1, 2})},
                   {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 1u);
  const NodeType& t = schema.node_types()[0];
  EXPECT_EQ(t.labels, (std::vector<pg::LabelId>{1}));
  EXPECT_EQ(t.Keys(), (std::vector<pg::PropKeyId>{10, 11}));
  EXPECT_EQ(t.instance_count, 3u);
  EXPECT_EQ(t.instances.size(), 3u);
}

TEST(ExtractNodeTypesTest, DifferentLabelSetsStayDistinct) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({1}, {10}, {0}),
                    MakeCandidate({2}, {10}, {1}),
                    MakeCandidate({1, 2}, {10}, {2})},
                   {}, &schema);
  EXPECT_EQ(schema.num_node_types(), 3u);
}

// --- Phase 2: unlabeled candidates merge into labeled types by Jaccard ---

TEST(ExtractNodeTypesTest, UnlabeledMergesIntoMatchingLabeledType) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({1}, {10, 11, 12}, {0, 1}),
                    MakeCandidate({}, {10, 11, 12}, {2})},
                   {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 1u);
  EXPECT_EQ(schema.node_types()[0].instance_count, 3u);
  EXPECT_FALSE(schema.node_types()[0].is_abstract());
}

TEST(ExtractNodeTypesTest, UnlabeledBelowThresholdBecomesAbstract) {
  SchemaGraph schema;
  ExtractionOptions options;
  options.jaccard_threshold = 0.9;
  ExtractNodeTypes({MakeCandidate({1}, {10, 11, 12}, {0}),
                    MakeCandidate({}, {10, 20, 21}, {1})},
                   options, &schema);
  ASSERT_EQ(schema.num_node_types(), 2u);
  EXPECT_TRUE(schema.node_types()[1].is_abstract());
}

TEST(ExtractNodeTypesTest, UnlabeledPicksBestMatch) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({1}, {10, 11}, {0}),
                    MakeCandidate({2}, {10, 11, 12}, {1}),
                    MakeCandidate({}, {10, 11, 12}, {2})},
                   {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 2u);
  // The unlabeled candidate (J=1.0 with type 2, J=2/3 with type 1) joins
  // type with label {2}.
  const NodeType* label2 = nullptr;
  for (const auto& t : schema.node_types()) {
    if (t.labels == std::vector<pg::LabelId>{2}) label2 = &t;
  }
  ASSERT_NE(label2, nullptr);
  EXPECT_EQ(label2->instance_count, 2u);
}

// Of two labeled types that match equally well, the first one takes the
// candidate.
TEST(ExtractNodeTypesTest, EqualMatchesPickTheFirstType) {
  SchemaGraph schema;
  ExtractionOptions options;
  options.jaccard_threshold = 0.5;
  ExtractNodeTypes({MakeCandidate({1}, {10, 11}, {0}),
                    MakeCandidate({2}, {10, 12}, {1}),
                    MakeCandidate({}, {10}, {2})},  // J = 1/2 with both.
                   options, &schema);
  ASSERT_EQ(schema.num_node_types(), 2u);
  EXPECT_EQ(schema.node_types()[0].instances, (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(schema.node_types()[1].instances, (std::vector<uint64_t>{1}));
}

// Phase 2 comes before phase 3a: an unlabeled candidate that matches a
// labeled type and an ABSTRACT type of an earlier batch equally joins the
// labeled one.
TEST(ExtractNodeTypesTest, UnlabeledPrefersLabeledOverEarlierAbstractType) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({}, {10, 11}, {0})}, {}, &schema);
  ExtractNodeTypes({MakeCandidate({1}, {10, 11}, {1})}, {}, &schema);
  ExtractNodeTypes({MakeCandidate({}, {10, 11}, {2})}, {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 2u);
  EXPECT_TRUE(schema.node_types()[0].is_abstract());
  EXPECT_EQ(schema.node_types()[0].instances, (std::vector<uint64_t>{0}));
  EXPECT_EQ(schema.node_types()[1].instances, (std::vector<uint64_t>{1, 2}));
}

// --- Phase 3: unlabeled-unlabeled merging, leftovers become ABSTRACT ---

// The new ABSTRACT types are part of the schema bytes, so their order is
// pinned: one per union-find group, in ascending order of the group's root,
// each taking its members' instances in candidate order. Here candidates 0,
// 1, 3, 5, 6 and 7 chain into one group through the pairs (0,5), (1,7),
// (3,6), (3,7) and (5,6), whose union-by-rank root is 3, so that group comes
// after candidate 2's and before candidate 4's.
TEST(ExtractNodeTypesTest, NewAbstractTypesFollowUnionFindRoots) {
  SchemaGraph schema;
  ExtractionOptions options;
  options.jaccard_threshold = 0.25;
  ExtractNodeTypes({MakeCandidate({}, {100}, {0}),
                    MakeCandidate({}, {101}, {1}),
                    MakeCandidate({}, {200}, {2}),
                    MakeCandidate({}, {102, 103}, {3}),
                    MakeCandidate({}, {201}, {4}),
                    MakeCandidate({}, {100, 104}, {5}),
                    MakeCandidate({}, {102, 104}, {6}),
                    MakeCandidate({}, {101, 103}, {7})},
                   options, &schema);
  ASSERT_EQ(schema.num_node_types(), 3u);
  EXPECT_EQ(schema.node_types()[0].instances, (std::vector<uint64_t>{2}));
  EXPECT_EQ(schema.node_types()[1].instances,
            (std::vector<uint64_t>{0, 1, 3, 5, 6, 7}));
  EXPECT_EQ(schema.node_types()[2].instances, (std::vector<uint64_t>{4}));
  EXPECT_EQ(schema.node_types()[1].Keys(),
            (std::vector<pg::PropKeyId>{100, 101, 102, 103, 104}));
}

TEST(ExtractNodeTypesTest, SimilarUnlabeledClustersMergeTogether) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({}, {10, 11, 12}, {0}),
                    MakeCandidate({}, {10, 11, 12}, {1}),
                    MakeCandidate({}, {50, 51}, {2})},
                   {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 2u);
  EXPECT_TRUE(schema.node_types()[0].is_abstract());
  EXPECT_TRUE(schema.node_types()[1].is_abstract());
  size_t total = schema.node_types()[0].instance_count +
                 schema.node_types()[1].instance_count;
  EXPECT_EQ(total, 3u);
}

TEST(ExtractNodeTypesTest, IncrementalMergeIntoExistingAbstractType) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({}, {10, 11}, {0})}, {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 1u);
  // Second batch: same structure, still unlabeled.
  ExtractNodeTypes({MakeCandidate({}, {10, 11}, {1})}, {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 1u);
  EXPECT_EQ(schema.node_types()[0].instance_count, 2u);
}

TEST(ExtractNodeTypesTest, IncrementalLabeledMergeAcrossBatches) {
  SchemaGraph schema;
  ExtractNodeTypes({MakeCandidate({7}, {10}, {0})}, {}, &schema);
  ExtractNodeTypes({MakeCandidate({7}, {11}, {1})}, {}, &schema);
  ASSERT_EQ(schema.num_node_types(), 1u);
  EXPECT_EQ(schema.node_types()[0].Keys(),
            (std::vector<pg::PropKeyId>{10, 11}));
}

// --- Property counts aggregate correctly (needed for constraints) ---

TEST(ExtractNodeTypesTest, KeyCountsAccumulate) {
  SchemaGraph schema;
  CandidateType a = MakeCandidate({1}, {10}, {0, 1});
  CandidateType b = MakeCandidate({1}, {10, 11}, {2});
  ExtractNodeTypes({a, b}, {}, &schema);
  const NodeType& t = schema.node_types()[0];
  EXPECT_EQ(t.properties.at(10).count, 3u);
  EXPECT_EQ(t.properties.at(11).count, 1u);
}

// --- Edge extraction ---

CandidateType MakeEdgeCandidate(std::vector<pg::LabelId> labels,
                                std::vector<pg::PropKeyId> keys,
                                std::vector<uint64_t> instances,
                                std::pair<uint32_t, uint32_t> endpoints) {
  CandidateType c = MakeCandidate(std::move(labels), std::move(keys),
                                  std::move(instances));
  c.endpoints.push_back(endpoints);
  return c;
}

TEST(ExtractEdgeTypesTest, MergesByLabelAndAccumulatesEndpoints) {
  SchemaGraph schema;
  ExtractEdgeTypes({MakeEdgeCandidate({1}, {}, {0}, {5, 6}),
                    MakeEdgeCandidate({1}, {}, {1}, {7, 6})},
                   {}, &schema);
  ASSERT_EQ(schema.num_edge_types(), 1u);
  EXPECT_EQ(schema.edge_types()[0].endpoints.size(), 2u);
}

TEST(ExtractEdgeTypesTest, UnlabeledEdgesRespectEndpointsInJaccard) {
  // Two property-less unlabeled edge clusters with different endpoints must
  // NOT merge (the endpoint tokens are part of the Jaccard universe).
  SchemaGraph schema;
  ExtractEdgeTypes({MakeEdgeCandidate({}, {}, {0}, {5, 6}),
                    MakeEdgeCandidate({}, {}, {1}, {8, 9})},
                   {}, &schema);
  EXPECT_EQ(schema.num_edge_types(), 2u);
}

TEST(ExtractEdgeTypesTest, UnlabeledEdgesWithSameEndpointsMerge) {
  SchemaGraph schema;
  ExtractEdgeTypes({MakeEdgeCandidate({}, {}, {0}, {5, 6}),
                    MakeEdgeCandidate({}, {}, {1}, {5, 6})},
                   {}, &schema);
  EXPECT_EQ(schema.num_edge_types(), 1u);
}

// --- Monotonicity (Lemmas 1 & 2) as a property-based test ---

class MonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityTest, MergingNeverLosesLabelsKeysOrInstances) {
  util::Rng rng(GetParam());
  // Random candidate batches applied sequentially; after every extraction,
  // everything previously present must still be present.
  SchemaGraph schema;
  std::set<pg::LabelId> all_labels;
  std::set<pg::PropKeyId> all_keys;
  size_t all_instances = 0;
  uint64_t next_instance = 0;

  for (int batch = 0; batch < 5; ++batch) {
    std::vector<CandidateType> candidates;
    int n = 1 + static_cast<int>(rng.NextBounded(4));
    for (int i = 0; i < n; ++i) {
      std::vector<pg::LabelId> labels;
      if (!rng.NextBool(0.3)) {  // 30% unlabeled.
        size_t count = 1 + rng.NextBounded(2);
        for (size_t l = 0; l < count; ++l) {
          labels.push_back(static_cast<pg::LabelId>(rng.NextBounded(5)));
        }
        pg::NormalizeLabels(&labels);
      }
      std::vector<pg::PropKeyId> keys;
      size_t kcount = rng.NextBounded(4);
      for (size_t k = 0; k < kcount; ++k) {
        keys.push_back(static_cast<pg::PropKeyId>(rng.NextBounded(8)));
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      std::vector<uint64_t> instances;
      size_t icount = 1 + rng.NextBounded(3);
      for (size_t j = 0; j < icount; ++j) instances.push_back(next_instance++);
      for (pg::LabelId l : labels) all_labels.insert(l);
      for (pg::PropKeyId k : keys) all_keys.insert(k);
      all_instances += icount;
      candidates.push_back(MakeCandidate(labels, keys, instances));
    }
    ExtractNodeTypes(std::move(candidates), {}, &schema);

    // Verify: unions over the schema contain everything ever seen.
    std::set<pg::LabelId> schema_labels;
    std::set<pg::PropKeyId> schema_keys;
    size_t schema_instances = 0;
    for (const auto& t : schema.node_types()) {
      schema_labels.insert(t.labels.begin(), t.labels.end());
      for (const auto& [k, info] : t.properties) schema_keys.insert(k);
      schema_instances += t.instances.size();
    }
    EXPECT_EQ(schema_labels, all_labels);
    EXPECT_EQ(schema_keys, all_keys);
    EXPECT_EQ(schema_instances, all_instances);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace pghive::core

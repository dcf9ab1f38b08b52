#include "baselines/gmm_schema.h"

#include <gtest/gtest.h>

#include "datasets/generator.h"
#include "datasets/noise.h"
#include "datasets/zoo.h"
#include "eval/f1.h"

namespace pghive::baselines {
namespace {

TEST(GmmSchemaTest, RejectsUnlabeledNodes) {
  pg::PropertyGraph g;
  g.AddNode({"A"});
  g.AddNode({});
  GmmSchema gmm(GmmSchemaOptions{});
  auto result = gmm.Discover(g);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(GmmSchemaTest, RejectsEmptyGraph) {
  pg::PropertyGraph g;
  EXPECT_FALSE(GmmSchema(GmmSchemaOptions{}).Discover(g).ok());
}

TEST(GmmSchemaTest, NearPerfectOnCleanData) {
  auto dataset = datasets::Generate(datasets::PoleSpec(), 0.2, 11);
  GmmSchema gmm(GmmSchemaOptions{});
  auto result = gmm.Discover(dataset.graph);
  ASSERT_TRUE(result.ok());
  auto f1 = eval::MajorityF1(result.value().node_assignment,
                             dataset.truth.node_type);
  EXPECT_GT(f1.f1, 0.9);
}

TEST(GmmSchemaTest, DegradesUnderHeavyNoise) {
  auto dataset = datasets::Generate(datasets::IcijSpec(), 0.3, 12);
  GmmSchema gmm(GmmSchemaOptions{});

  auto clean = gmm.Discover(dataset.graph);
  ASSERT_TRUE(clean.ok());
  double clean_f1 = eval::MajorityF1(clean.value().node_assignment,
                                     dataset.truth.node_type)
                        .f1;

  pg::PropertyGraph noisy = dataset.graph;
  datasets::NoiseConfig noise;
  noise.property_removal = 0.4;
  datasets::InjectNoise(&noisy, noise);
  auto degraded = gmm.Discover(noisy);
  ASSERT_TRUE(degraded.ok());
  double noisy_f1 = eval::MajorityF1(degraded.value().node_assignment,
                                     dataset.truth.node_type)
                        .f1;
  EXPECT_LT(noisy_f1, clean_f1);
}

TEST(GmmSchemaTest, AssignsEveryNode) {
  auto dataset = datasets::Generate(datasets::PoleSpec(), 0.1, 13);
  auto result = GmmSchema(GmmSchemaOptions{}).Discover(dataset.graph);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().node_assignment.size(),
            dataset.graph.num_nodes());
  EXPECT_GT(result.value().num_clusters, 0u);
  EXPECT_GT(result.value().em_iterations, 0u);
}

TEST(GmmSchemaTest, SamplingCapRespected) {
  auto dataset = datasets::Generate(datasets::PoleSpec(), 1.0, 14);
  ASSERT_GT(dataset.graph.num_nodes(), GmmSchema::kFitSampleCap);
  auto result = GmmSchema(GmmSchemaOptions{}).Discover(dataset.graph);
  ASSERT_TRUE(result.ok());
  // Still assigns everyone despite fitting on a sample.
  EXPECT_EQ(result.value().node_assignment.size(),
            dataset.graph.num_nodes());
}

}  // namespace
}  // namespace pghive::baselines

// Golden schema digests for the columnar data plane: for every zoo dataset and
// both LSH families, discovery at every thread count (1 = the sequential batch
// loop, more = the one-batch lookahead) must hash to the checked-in digest of
// its .pgs, .xsd and both element assignments. The digests were recorded from
// the row-at-a-time loops the column stores replaced, which produced the same
// bytes, so the table pins that the column stores are a layout change, never a
// semantic one. Runs under the `threaded` label so the TSan CI job races the
// column builds in the pipelined preprocess against the extract stage.
//
// A digest only pins what it hashes, so every run must first place at least
// kMinNodeF1 of its nodes correctly against the generator's ground truth: a
// collapsed clustering can never become the golden output. When a change is
// meant to alter the output, the failure message prints the new digest to
// copy into kGolden.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/pghive.h"
#include "core/serialize.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "eval/f1.h"
#include "pg/batch.h"

namespace pghive {
namespace {

constexpr double kMinNodeF1 = 0.95;

struct Golden {
  const char* dataset;
  uint64_t elsh;
  uint64_t minhash;
};

constexpr Golden kGolden[] = {
    {"POLE", 0x86f1064d4f5acd56, 0x86f1064d4f5acd56},
    {"MB6", 0xbbdfb0fcccd07eeb, 0xbbdfb0fcccd07eeb},
    {"HET.IO", 0xb6f7422b29b06192, 0xbcacbf86172aa9ae},
    {"FIB25", 0x817997fac70a23e7, 0x817997fac70a23e7},
    {"ICIJ", 0x6443d5d12f550ffe, 0x7ce1a99981b0475f},
    {"CORD19", 0x9c10e78153a1efb2, 0x9a140bcbcb309609},
    {"LDBC", 0xf1509d20967fc508, 0xf1509d20967fc508},
    {"IYP", 0xab656251bd2cb6e6, 0xbf2aa71fc47f7890},
};

struct Discovery {
  uint64_t digest = 0;
  double node_f1 = 0.0;
};

/// FNV-1a over length-prefixed fields, so no two field splits collide.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) hash_ = (hash_ ^ p[i]) * 0x100000001b3;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const unsigned char byte = static_cast<unsigned char>(v >> (8 * i));
      Bytes(&byte, 1);
    }
  }
  void String(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Ids(const std::vector<uint32_t>& ids) {
    U64(ids.size());
    for (uint32_t id : ids) U64(id);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

Discovery Discover(const datasets::DatasetSpec& spec,
                   core::ClusterMethod method, size_t threads) {
  // Regenerate per run so vocabularies never leak across configurations.
  datasets::Dataset dataset = datasets::Generate(spec, /*scale=*/0.04,
                                                 /*seed=*/99);
  core::PgHiveOptions options;
  options.method = method;
  options.num_threads = threads;
  core::PgHive pipeline(&dataset.graph, options);
  core::BatchPipeline executor(&pipeline);
  auto batches = pg::SplitIntoBatches(dataset.graph, /*num_batches=*/3,
                                      /*seed=*/5);
  EXPECT_TRUE(executor.Run(batches).ok());
  EXPECT_TRUE(pipeline.Finish().ok());
  Fnv1a hash;
  hash.String(core::SerializePgSchema(pipeline.schema(), dataset.graph.vocab(),
                                      core::SchemaMode::kStrict));
  hash.String(core::SerializeXsd(pipeline.schema(), dataset.graph.vocab()));
  hash.Ids(pipeline.NodeAssignment());
  hash.Ids(pipeline.EdgeAssignment());
  Discovery out;
  out.digest = hash.value();
  out.node_f1 =
      eval::MajorityF1(pipeline.NodeAssignment(), dataset.truth.node_type).f1;
  return out;
}

void ExpectGoldenOnAllZooDatasets(core::ClusterMethod method) {
  ASSERT_EQ(std::size(kGolden), datasets::Zoo().size());
  for (const Golden& golden : kGolden) {
    auto spec = datasets::ZooDataset(golden.dataset);
    ASSERT_TRUE(spec.ok()) << golden.dataset;
    const uint64_t want =
        method == core::ClusterMethod::kElsh ? golden.elsh : golden.minhash;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      const Discovery got = Discover(*spec, method, threads);
      const std::string where =
          std::string(golden.dataset) + " threads=" + std::to_string(threads);
      ASSERT_GE(got.node_f1, kMinNodeF1) << where;
      EXPECT_EQ(Hex(got.digest), Hex(want)) << where;
    }
  }
}

TEST(ColumnarDeterminismTest, ElshIdenticalOnAllZooDatasets) {
  ExpectGoldenOnAllZooDatasets(core::ClusterMethod::kElsh);
}

// MinHash exercises the CSR set spans instead of the feature matrices.
TEST(ColumnarDeterminismTest, MinHashIdenticalOnAllZooDatasets) {
  ExpectGoldenOnAllZooDatasets(core::ClusterMethod::kMinHash);
}

}  // namespace
}  // namespace pghive

#include "core/datatype_inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/options.h"
#include "core/pghive.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pghive::core {
namespace {

// Builds a graph with one node type whose property `p` takes the provided
// values, plus a matching schema.
struct Fixture {
  pg::PropertyGraph graph;
  SchemaGraph schema;
  pg::PropKeyId key;

  explicit Fixture(const std::vector<pg::Value>& values) {
    NodeType type;
    for (const pg::Value& v : values) {
      pg::NodeId id = graph.AddNode({"T"});
      graph.SetNodeProperty(id, "p", v);
      type.instances.push_back(id);
      ++type.instance_count;
    }
    key = graph.vocab().FindKey("p");
    type.properties[key].count = values.size();
    schema.node_types().push_back(std::move(type));
  }
};

TEST(DataTypeInferenceTest, HomogeneousInteger) {
  Fixture f({pg::Value(static_cast<int64_t>(1)),
             pg::Value(static_cast<int64_t>(2))});
  InferDataTypes(f.graph, &f.schema);
  EXPECT_EQ(f.schema.node_types()[0].properties.at(f.key).data_type,
            pg::DataType::kInteger);
}

TEST(DataTypeInferenceTest, MixedIntFloatPromotesToFloat) {
  Fixture f({pg::Value(static_cast<int64_t>(1)), pg::Value(2.5)});
  InferDataTypes(f.graph, &f.schema);
  EXPECT_EQ(f.schema.node_types()[0].properties.at(f.key).data_type,
            pg::DataType::kFloat);
}

TEST(DataTypeInferenceTest, DateStringsDetected) {
  Fixture f({pg::Value("2024-01-01"), pg::Value("1999-12-19")});
  InferDataTypes(f.graph, &f.schema);
  EXPECT_EQ(f.schema.node_types()[0].properties.at(f.key).data_type,
            pg::DataType::kDate);
}

TEST(DataTypeInferenceTest, OutlierDemotesToString) {
  Fixture f({pg::Value("2024-01-01"), pg::Value("not a date")});
  InferDataTypes(f.graph, &f.schema);
  EXPECT_EQ(f.schema.node_types()[0].properties.at(f.key).data_type,
            pg::DataType::kString);
}

TEST(DataTypeInferenceTest, UnseenPropertyDefaultsToString) {
  Fixture f({pg::Value(static_cast<int64_t>(1))});
  // Add a property entry the instances never carry.
  f.schema.node_types()[0].properties[f.key + 100].count = 0;
  InferDataTypes(f.graph, &f.schema);
  EXPECT_EQ(f.schema.node_types()[0].properties.at(f.key + 100).data_type,
            pg::DataType::kString);
}

TEST(DataTypeInferenceTest, EdgePropertiesInferred) {
  pg::PropertyGraph graph;
  pg::NodeId a = graph.AddNode({"A"});
  pg::NodeId b = graph.AddNode({"B"});
  pg::EdgeId e = graph.AddEdge(a, b, {"R"});
  graph.SetEdgeProperty(e, "since", pg::Value("2020-05-05"));
  SchemaGraph schema;
  EdgeType type;
  type.instances = {e};
  type.instance_count = 1;
  pg::PropKeyId key = graph.vocab().FindKey("since");
  type.properties[key].count = 1;
  schema.edge_types().push_back(std::move(type));
  InferDataTypes(graph, &schema);
  EXPECT_EQ(schema.edge_types()[0].properties.at(key).data_type,
            pg::DataType::kDate);
}

TEST(DataTypeInferenceTest, SamplingMatchesFullScanOnHomogeneousData) {
  std::vector<pg::Value> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(pg::Value(static_cast<int64_t>(i)));
  }
  Fixture f(values);
  DataTypeOptions options;
  options.sample = true;
  InferDataTypes(f.graph, &f.schema, options);
  EXPECT_EQ(f.schema.node_types()[0].properties.at(f.key).data_type,
            pg::DataType::kInteger);
}

TEST(FullScanTypeTest, MatchesDirectJoin) {
  Fixture f({pg::Value(static_cast<int64_t>(1)), pg::Value(2.5),
             pg::Value(static_cast<int64_t>(3))});
  EXPECT_EQ(FullScanType(f.graph, f.schema.node_types()[0].instances,
                         /*edges=*/false, f.key),
            pg::DataType::kFloat);
}

TEST(SamplingErrorTest, ZeroForHomogeneousProperty) {
  std::vector<pg::Value> values(2000, pg::Value(static_cast<int64_t>(7)));
  Fixture f(values);
  auto report = ComputeSamplingErrors(f.graph, f.schema, {});
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0], 0.0);
  auto bins = report.BinFractions();
  EXPECT_DOUBLE_EQ(bins[0], 1.0);
}

TEST(SamplingErrorTest, MinorityDisagreementMeasured) {
  // 90% floats + 10% ints: the joined type is FLOAT, so roughly 10% of the
  // sampled values individually infer INTEGER != FLOAT. The sample is 1,000
  // of the 10,000 values (10%, and at least 1,000).
  std::vector<pg::Value> values;
  for (int i = 0; i < 9000; ++i) values.push_back(pg::Value(1.5));
  for (int i = 0; i < 1000; ++i) {
    values.push_back(pg::Value(static_cast<int64_t>(i)));
  }
  Fixture f(values);
  auto report = ComputeSamplingErrors(f.graph, f.schema, {});
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NEAR(report.errors[0], 0.1, 0.05);
}

TEST(SamplingErrorTest, BinFractionsSumToOne) {
  SamplingErrorReport report;
  report.errors = {0.0, 0.04, 0.07, 0.15, 0.5, 0.9};
  auto bins = report.BinFractions();
  EXPECT_DOUBLE_EQ(bins[0] + bins[1] + bins[2] + bins[3], 1.0);
  EXPECT_DOUBLE_EQ(bins[0], 2.0 / 6);
  EXPECT_DOUBLE_EQ(bins[1], 1.0 / 6);
  EXPECT_DOUBLE_EQ(bins[2], 1.0 / 6);
  EXPECT_DOUBLE_EQ(bins[3], 2.0 / 6);
}

TEST(SamplingErrorTest, EmptyReportIsAllLowBin) {
  SamplingErrorReport report;
  auto bins = report.BinFractions();
  EXPECT_DOUBLE_EQ(bins[0], 1.0);
}

// --- One-pass full scan against the per-key scans -------------------------

constexpr uint64_t kValueKinds = 9;

/// A random value of one of kValueKinds kinds: null, int, float, bool, date,
/// datetime, and integer, float and plain strings.
pg::Value RandomTypedValue(util::Rng& rng, uint64_t kind) {
  switch (kind) {
    case 0:
      return pg::Value();  // Explicit null.
    case 1:
      return pg::Value(static_cast<int64_t>(rng.NextBounded(100)));
    case 2:
      return pg::Value(rng.NextDouble());
    case 3:
      return pg::Value(rng.NextBounded(2) == 0);
    case 4:
      return pg::Value("2024-0" + std::to_string(1 + rng.NextBounded(9)) +
                       "-15");
    case 5:
      return pg::Value("2024-03-1" + std::to_string(rng.NextBounded(10)) +
                       "T10:20:30");
    case 6:
      return pg::Value(std::to_string(rng.NextBounded(1000)));  // "INTEGER"
    case 7:
      return pg::Value("1." + std::to_string(rng.NextBounded(10)));
    default:
      return pg::Value("name" + std::to_string(rng.NextBounded(50)));
  }
}

/// A random graph whose keys lean to one value kind each (so many keys keep
/// a non-STRING type) with mixed kinds, nulls and absent keys, plus a
/// schema that splits the elements into types at random. Each type lists a
/// random subset of the keys: some listed keys no instance carries, and
/// instances carry keys their type does not list.
struct RandomTypedGraph {
  pg::PropertyGraph graph;
  SchemaGraph schema;

  explicit RandomTypedGraph(uint64_t seed) {
    util::Rng rng(seed);
    const size_t num_keys = 10;
    // Key k mostly draws from one value kind; 1 in 30 values is any kind.
    std::vector<uint64_t> kinds(num_keys);
    for (uint64_t& kind : kinds) kind = rng.NextBounded(kValueKinds);
    auto value_for = [&](size_t k) {
      const bool any = rng.NextBounded(30) == 0;
      return RandomTypedValue(rng,
                              any ? rng.NextBounded(kValueKinds) : kinds[k]);
    };
    auto fill = [&](auto set) {
      for (size_t k = 0; k < num_keys; ++k) {
        if (rng.NextBounded(3) == 0) continue;  // Absent key.
        set("k" + std::to_string(k), value_for(k));
      }
    };
    const size_t num_nodes = 30 + rng.NextBounded(3000);
    for (size_t i = 0; i < num_nodes; ++i) {
      const pg::NodeId id = graph.AddNode({"N"});
      fill([&](const std::string& key, pg::Value v) {
        graph.SetNodeProperty(id, key, std::move(v));
      });
    }
    const size_t num_edges = 30 + rng.NextBounded(3000);
    for (size_t i = 0; i < num_edges; ++i) {
      const pg::EdgeId id = graph.AddEdge(rng.NextBounded(num_nodes),
                                          rng.NextBounded(num_nodes), {"E"});
      fill([&](const std::string& key, pg::Value v) {
        graph.SetEdgeProperty(id, key, std::move(v));
      });
    }
    const size_t num_types = 1 + rng.NextBounded(4);
    schema.node_types().resize(num_types);
    schema.edge_types().resize(num_types);
    for (size_t i = 0; i < num_nodes; ++i) {
      schema.node_types()[rng.NextBounded(num_types)].instances.push_back(i);
    }
    for (size_t i = 0; i < num_edges; ++i) {
      schema.edge_types()[rng.NextBounded(num_types)].instances.push_back(i);
    }
    auto list_keys = [&](auto& type) {
      for (pg::PropKeyId k = 0; k < graph.vocab().num_keys(); ++k) {
        if (rng.NextBounded(4) != 0) type.properties[k].count = 1;
      }
      type.properties[static_cast<pg::PropKeyId>(num_keys + 5)].count = 1;
    };
    for (NodeType& type : schema.node_types()) list_keys(type);
    for (EdgeType& type : schema.edge_types()) list_keys(type);
  }
};

/// Every (type, key) of `schema` holds FullScanType's result.
void ExpectEveryKeyMatchesFullScan(const pg::PropertyGraph& graph,
                                   const SchemaGraph& schema) {
  for (size_t i = 0; i < schema.num_node_types(); ++i) {
    const NodeType& type = schema.node_types()[i];
    for (const auto& [key, info] : type.properties) {
      EXPECT_EQ(info.data_type,
                FullScanType(graph, type.instances, /*edges=*/false, key))
          << "node type " << i << " key " << key;
    }
  }
  for (size_t i = 0; i < schema.num_edge_types(); ++i) {
    const EdgeType& type = schema.edge_types()[i];
    for (const auto& [key, info] : type.properties) {
      EXPECT_EQ(info.data_type,
                FullScanType(graph, type.instances, /*edges=*/true, key))
          << "edge type " << i << " key " << key;
    }
  }
}

/// The per-key loop InferDataTypes runs on a sampled type: one sample of
/// the type's instances per key, from the type's own pre-split RNG, and a
/// full scan for a type too small to sample.
template <typename TypeT>
void PerKeyReference(const pg::PropertyGraph& graph, bool edges,
                     const DataTypeOptions& options, util::Rng* rng,
                     TypeT* type) {
  const size_t n = type->instances.size();
  for (auto& [key, info] : type->properties) {
    if (!options.sample || n <= options.min_sample) {
      info.data_type = FullScanType(graph, type->instances, edges, key);
      continue;
    }
    size_t want = std::max(
        options.min_sample,
        static_cast<size_t>(options.sample_fraction * static_cast<double>(n)));
    want = std::min(want, n);
    pg::DataType joined = pg::DataType::kNull;
    for (size_t i : rng->SampleWithoutReplacement(n, want)) {
      const uint64_t inst = type->instances[i];
      const pg::Value* v = edges ? graph.edge(inst).properties.Get(key)
                                 : graph.node(inst).properties.Get(key);
      if (v == nullptr || v->is_null()) continue;
      joined = pg::JoinDataTypes(joined, v->InferType());
    }
    info.data_type =
        joined == pg::DataType::kNull ? pg::DataType::kString : joined;
  }
}

void PerKeyInferDataTypes(const pg::PropertyGraph& graph, SchemaGraph* schema,
                          const DataTypeOptions& options) {
  auto type_rng = [&options](uint64_t kind, size_t index) {
    return util::Rng(util::HashCombine(util::Mix64(options.seed ^ kind),
                                       static_cast<uint64_t>(index)));
  };
  for (size_t i = 0; i < schema->num_node_types(); ++i) {
    util::Rng rng = type_rng(0x4E, i);
    PerKeyReference(graph, /*edges=*/false, options, &rng,
                    &schema->node_types()[i]);
  }
  for (size_t i = 0; i < schema->num_edge_types(); ++i) {
    util::Rng rng = type_rng(0xED, i);
    PerKeyReference(graph, /*edges=*/true, options, &rng,
                    &schema->edge_types()[i]);
  }
}

void ExpectSameDataTypes(const SchemaGraph& got, const SchemaGraph& want) {
  ASSERT_EQ(got.num_node_types(), want.num_node_types());
  ASSERT_EQ(got.num_edge_types(), want.num_edge_types());
  for (size_t i = 0; i < got.num_node_types(); ++i) {
    for (const auto& [key, info] : got.node_types()[i].properties) {
      EXPECT_EQ(info.data_type,
                want.node_types()[i].properties.at(key).data_type)
          << "node type " << i << " key " << key;
    }
  }
  for (size_t i = 0; i < got.num_edge_types(); ++i) {
    for (const auto& [key, info] : got.edge_types()[i].properties) {
      EXPECT_EQ(info.data_type,
                want.edge_types()[i].properties.at(key).data_type)
          << "edge type " << i << " key " << key;
    }
  }
}

/// The sampled options the equivalence tests use: a type above min_sample
/// instances is sampled, and a smaller one fully scanned.
DataTypeOptions SampledOptions() {
  DataTypeOptions options;
  options.sample = true;
  return options;
}

/// Counts the types of `schema` that sampling samples (`*sampled`) and
/// those it scans in full (`*scanned`).
void CountSizeClasses(const SchemaGraph& schema, size_t* sampled,
                      size_t* scanned) {
  auto count = [&](const auto& types) {
    for (const auto& type : types) {
      ++*(type.instances.size() > DataTypeOptions::min_sample ? sampled
                                                               : scanned);
    }
  };
  count(schema.node_types());
  count(schema.edge_types());
}

TEST(DataTypeEquivalenceTest, RandomGraphsMatchPerKeyScans) {
  util::ThreadPool pool(3);
  size_t sampled_types = 0;
  size_t scanned_types = 0;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomTypedGraph fixture(seed);
    CountSizeClasses(fixture.schema, &sampled_types, &scanned_types);
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      SchemaGraph full = fixture.schema;
      InferDataTypes(fixture.graph, &full, {}, p);
      ExpectEveryKeyMatchesFullScan(fixture.graph, full);

      SchemaGraph sampled = fixture.schema;
      SchemaGraph reference = fixture.schema;
      InferDataTypes(fixture.graph, &sampled, SampledOptions(), p);
      PerKeyInferDataTypes(fixture.graph, &reference, SampledOptions());
      ExpectSameDataTypes(sampled, reference);
    }
  }
  EXPECT_GT(sampled_types, 0u);
  EXPECT_GT(scanned_types, 0u);
}

TEST(DataTypeEquivalenceTest, ZooSchemasMatchPerKeyScans) {
  size_t sampled_types = 0;
  size_t scanned_types = 0;
  for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
    for (const char* method : {"elsh", "minhash"}) {
      SCOPED_TRACE(spec.name + std::string(" ") + method);
      datasets::Dataset data = datasets::Generate(spec, 0.3, 3);
      auto options = ParsePgHiveOptions({{"method", method}});
      ASSERT_TRUE(options.ok());
      auto hive = PgHive::Create(&data.graph, *options);
      ASSERT_TRUE(hive.ok());
      ASSERT_TRUE((*hive)->Run().ok());
      ExpectEveryKeyMatchesFullScan(data.graph, (*hive)->schema());

      SchemaGraph sampled = (*hive)->schema();
      SchemaGraph reference = (*hive)->schema();
      InferDataTypes(data.graph, &sampled, SampledOptions());
      PerKeyInferDataTypes(data.graph, &reference, SampledOptions());
      ExpectSameDataTypes(sampled, reference);
      CountSizeClasses(sampled, &sampled_types, &scanned_types);
    }
  }
  EXPECT_GT(sampled_types, 0u);
  EXPECT_GT(scanned_types, 0u);
}

}  // namespace
}  // namespace pghive::core

#include "core/datatype_inference.h"

#include <algorithm>
#include <array>

#include "util/rng.h"

namespace pghive::core {

namespace {

const pg::Value* GetValue(const pg::PropertyGraph& graph, uint64_t instance,
                          bool edges, pg::PropKeyId key) {
  if (edges) return graph.edge(instance).properties.Get(key);
  return graph.node(instance).properties.Get(key);
}

// The paper falls back to a string default when nothing is known. A
// non-null value never infers kNull, so a join still at kNull saw none.
pg::DataType OrStringDefault(pg::DataType joined) {
  return joined == pg::DataType::kNull ? pg::DataType::kString : joined;
}

// The full scan of every key of `type` in one pass over its instances: each
// instance's entries (sorted by key) are merged against the type's sorted
// keys, so an instance is read once however many keys the type lists. Per
// key, values join in instance order, as FullScanType joins them. STRING
// absorbs every join, so a key that reached it skips InferType from then on.
void FullScanAllKeys(const pg::PropertyGraph& graph, bool edges,
                     SchemaType* type) {
  std::vector<std::pair<pg::PropKeyId, pg::DataType>> joined;
  joined.reserve(type->properties.size());
  for (const auto& [key, info] : type->properties) {
    joined.emplace_back(key, pg::DataType::kNull);
  }
  for (const uint64_t inst : type->instances) {
    const pg::PropertyMap& props = edges ? graph.edge(inst).properties
                                         : graph.node(inst).properties;
    auto slot = joined.begin();
    for (const auto& [key, value] : props.entries()) {
      while (slot != joined.end() && slot->first < key) ++slot;
      if (slot == joined.end()) break;
      if (slot->first != key || value.is_null() ||
          slot->second == pg::DataType::kString) {
        continue;
      }
      slot->second = pg::JoinDataTypes(slot->second, value.InferType());
    }
  }
  auto slot = joined.begin();
  for (auto& [key, info] : type->properties) {
    info.data_type = OrStringDefault((slot++)->second);
  }
}

void InferForType(const pg::PropertyGraph& graph, bool edges,
                  const DataTypeOptions& options, util::Rng* rng,
                  SchemaType* type) {
  if (!options.sample || type->instances.size() <= options.min_sample) {
    FullScanAllKeys(graph, edges, type);
    return;
  }
  for (auto& [key, info] : type->properties) {
    pg::DataType joined = pg::DataType::kNull;
    size_t want = std::max(
        options.min_sample,
        static_cast<size_t>(options.sample_fraction *
                            static_cast<double>(type->instances.size())));
    want = std::min(want, type->instances.size());
    auto idx = rng->SampleWithoutReplacement(type->instances.size(), want);
    for (size_t i : idx) {
      const pg::Value* v = GetValue(graph, type->instances[i], edges, key);
      if (v == nullptr || v->is_null()) continue;
      joined = pg::JoinDataTypes(joined, v->InferType());
    }
    info.data_type = OrStringDefault(joined);
  }
}

}  // namespace

void InferDataTypes(const pg::PropertyGraph& graph, SchemaGraph* schema,
                    const DataTypeOptions& options, util::ThreadPool* pool) {
  // One pre-split RNG per type (seeded by kind + index, not by a shared
  // stream) so the sampled values do not depend on scan order or pool size.
  auto infer = [&](auto& types, uint64_t kind, bool edges) {
    util::ParallelFor(pool, 0, types.size(), 1, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        util::Rng rng(util::HashCombine(util::Mix64(options.seed ^ kind),
                                        static_cast<uint64_t>(i)));
        InferForType(graph, edges, options, &rng, &types[i]);
      }
    });
  };
  infer(schema->node_types(), 0x4E, /*edges=*/false);
  infer(schema->edge_types(), 0xED, /*edges=*/true);
}

pg::DataType FullScanType(const pg::PropertyGraph& graph,
                          const std::vector<uint64_t>& instances, bool edges,
                          pg::PropKeyId key) {
  pg::DataType joined = pg::DataType::kNull;
  for (uint64_t inst : instances) {
    const pg::Value* v = GetValue(graph, inst, edges, key);
    if (v == nullptr || v->is_null()) continue;
    joined = pg::JoinDataTypes(joined, v->InferType());
  }
  return OrStringDefault(joined);
}

std::array<double, 4> SamplingErrorReport::BinFractions() const {
  std::array<double, 4> bins = {0, 0, 0, 0};
  if (errors.empty()) {
    bins[0] = 1.0;
    return bins;
  }
  for (double e : errors) {
    if (e < 0.05) {
      ++bins[0];
    } else if (e < 0.10) {
      ++bins[1];
    } else if (e < 0.20) {
      ++bins[2];
    } else {
      ++bins[3];
    }
  }
  for (auto& b : bins) b /= static_cast<double>(errors.size());
  return bins;
}

namespace {

void SamplingErrorsForType(const pg::PropertyGraph& graph, bool edges,
                           const DataTypeOptions& options, util::Rng* rng,
                           const SchemaType& type, std::vector<double>* out) {
  for (const auto& [key, info] : type.properties) {
    pg::DataType full = FullScanType(graph, type.instances, edges, key);
    // Sample values.
    size_t want = std::max(
        options.min_sample,
        static_cast<size_t>(options.sample_fraction *
                            static_cast<double>(type.instances.size())));
    want = std::min(want, type.instances.size());
    if (want == 0) continue;
    auto idx = rng->SampleWithoutReplacement(type.instances.size(), want);
    size_t disagreements = 0;
    size_t sampled = 0;
    for (size_t i : idx) {
      const pg::Value* v = GetValue(graph, type.instances[i], edges, key);
      if (v == nullptr || v->is_null()) continue;
      ++sampled;
      if (v->InferType() != full) ++disagreements;
    }
    if (sampled == 0) continue;
    out->push_back(static_cast<double>(disagreements) /
                   static_cast<double>(sampled));
  }
}

}  // namespace

SamplingErrorReport ComputeSamplingErrors(const pg::PropertyGraph& graph,
                                          const SchemaGraph& schema,
                                          const DataTypeOptions& options) {
  SamplingErrorReport report;
  util::Rng rng(options.seed ^ 0xABCDEF);
  for (const auto& t : schema.node_types()) {
    SamplingErrorsForType(graph, /*edges=*/false, options, &rng, t,
                          &report.errors);
  }
  for (const auto& t : schema.edge_types()) {
    SamplingErrorsForType(graph, /*edges=*/true, options, &rng, t,
                          &report.errors);
  }
  return report;
}

}  // namespace pghive::core

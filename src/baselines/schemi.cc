#include "baselines/schemi.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "util/union_find.h"

namespace pghive::baselines {

namespace {

double JaccardSets(const std::set<pg::PropKeyId>& a,
                   const std::set<pg::PropKeyId>& b) {
  // No structural evidence on either side -> no merge signal (property-less
  // types must not all collapse into one).
  if (a.empty() && b.empty()) return 0.0;
  size_t inter = 0;
  for (pg::PropKeyId k : a) inter += b.count(k);
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

// Assigns each element to the cluster of its globally least frequent label
// (its "most specific" label), then runs refinement rounds that (a) rescan
// every instance against every type's accumulated key set and (b) merge
// types with high structural similarity.
template <typename ElementVec, typename LabelFreq>
void ClusterElements(const ElementVec& elements, const LabelFreq& label_freq,
                     std::vector<uint32_t>* assignment,
                     size_t* num_clusters) {
  const size_t n = elements.size();
  assignment->assign(n, 0);

  // Pattern registry: SchemI materializes every distinct (label set,
  // property-key set) pattern by scanning each instance against the list of
  // patterns discovered so far — the naive per-instance comparisons that
  // LSH-based clustering avoids. The registry feeds the type lattice; under
  // property noise the pattern count grows combinatorially, which is the
  // baseline's scalability weakness.
  struct RegisteredPattern {
    std::vector<pg::LabelId> labels;
    std::set<pg::PropKeyId> keys;
  };
  std::vector<RegisteredPattern> patterns;
  for (size_t i = 0; i < n; ++i) {
    std::set<pg::PropKeyId> keys;
    for (const auto& [key, value] : elements[i].properties.entries()) {
      keys.insert(key);
    }
    bool found = false;
    for (const RegisteredPattern& p : patterns) {
      if (p.labels == elements[i].labels && p.keys == keys) {
        found = true;
        break;
      }
    }
    if (!found) {
      patterns.push_back({elements[i].labels, std::move(keys)});
    }
  }

  // Initial grouping: one type per distinct specific label.
  std::unordered_map<pg::LabelId, uint32_t> label_to_type;
  std::vector<std::set<pg::PropKeyId>> type_keys;
  std::vector<uint32_t> initial(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto& labels = elements[i].labels;
    pg::LabelId specific = labels.front();
    size_t best_freq = SIZE_MAX;
    for (pg::LabelId l : labels) {
      size_t f = label_freq.at(l);
      if (f < best_freq) {
        best_freq = f;
        specific = l;
      }
    }
    auto [it, inserted] = label_to_type.try_emplace(
        specific, static_cast<uint32_t>(label_to_type.size()));
    if (inserted) type_keys.emplace_back();
    initial[i] = it->second;
    for (const auto& [key, value] : elements[i].properties.entries()) {
      type_keys[it->second].insert(key);
    }
  }

  // Map each pattern to the type owned by its specific label, so the
  // instance placement below can vote through patterns.
  std::vector<uint32_t> pattern_type(patterns.size(), 0);
  for (size_t p = 0; p < patterns.size(); ++p) {
    pg::LabelId specific = patterns[p].labels.front();
    size_t best_freq = SIZE_MAX;
    for (pg::LabelId l : patterns[p].labels) {
      size_t f = label_freq.at(l);
      if (f < best_freq) {
        best_freq = f;
        specific = l;
      }
    }
    pattern_type[p] = label_to_type[specific];
  }

  // Refinement: the published system places every instance in the pattern
  // lattice by comparing it against all registered patterns, then merges
  // structurally similar types. Each round costs O(N * P * K) — the naive
  // per-instance scans that PG-HIVE's single LSH pass avoids, and the
  // reason SchemI's runtime trails in Fig. 5 (pattern counts P grow with
  // noise, compounding the cost).
  util::UnionFind uf(type_keys.size());
  for (size_t round = 0; round < SchemI::kRefinementRounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      std::set<pg::PropKeyId> keys;
      for (const auto& [key, value] : elements[i].properties.entries()) {
        keys.insert(key);
      }
      uint32_t t = uf.Find(initial[i]);
      for (pg::PropKeyId k : keys) type_keys[t].insert(k);
      // Lattice placement: find the structurally closest pattern; when it
      // belongs to a different type and the match is strong, migrate.
      double best = -1.0;
      uint32_t best_type = t;
      for (size_t p = 0; p < patterns.size(); ++p) {
        double j = JaccardSets(keys, patterns[p].keys);
        if (j > best) {
          best = j;
          best_type = uf.Find(pattern_type[p]);
        }
      }
      if (best_type != t && best >= SchemI::kMergeThreshold) {
        initial[i] = best_type;
      }
    }
    // (b) structural merge of similar types.
    for (size_t a = 0; a < type_keys.size(); ++a) {
      for (size_t b = a + 1; b < type_keys.size(); ++b) {
        uint32_t ra = uf.Find(static_cast<uint32_t>(a));
        uint32_t rb = uf.Find(static_cast<uint32_t>(b));
        if (ra == rb) continue;
        if (JaccardSets(type_keys[ra], type_keys[rb]) >=
            SchemI::kMergeThreshold) {
          uf.Union(ra, rb);
          uint32_t root = uf.Find(ra);
          uint32_t other = root == ra ? rb : ra;
          type_keys[root].insert(type_keys[other].begin(),
                                 type_keys[other].end());
        }
      }
    }
  }

  auto comp = uf.ComponentIds();
  for (size_t i = 0; i < n; ++i) (*assignment)[i] = comp[initial[i]];
  *num_clusters = uf.num_sets();
}

}  // namespace

util::StatusOr<SchemiResult> SchemI::Discover(
    const pg::PropertyGraph& graph) {
  if (graph.num_nodes() == 0) {
    return util::Status::FailedPrecondition("empty graph");
  }
  for (const pg::Node& node : graph.nodes()) {
    if (node.labels.empty()) {
      return util::Status::FailedPrecondition(
          "SchemI requires fully labeled nodes");
    }
  }
  for (const pg::Edge& edge : graph.edges()) {
    if (edge.labels.empty()) {
      return util::Status::FailedPrecondition(
          "SchemI requires fully labeled edges");
    }
  }

  // Global label frequencies (to pick the most specific label).
  std::map<pg::LabelId, size_t> node_label_freq;
  for (const pg::Node& node : graph.nodes()) {
    for (pg::LabelId l : node.labels) ++node_label_freq[l];
  }
  std::map<pg::LabelId, size_t> edge_label_freq;
  for (const pg::Edge& edge : graph.edges()) {
    for (pg::LabelId l : edge.labels) ++edge_label_freq[l];
  }

  SchemiResult result;
  ClusterElements(graph.nodes(), node_label_freq, &result.node_assignment,
                  &result.num_node_clusters);
  if (graph.num_edges() > 0) {
    ClusterElements(graph.edges(), edge_label_freq, &result.edge_assignment,
                    &result.num_edge_clusters);
  }
  return result;
}

}  // namespace pghive::baselines

#include "core/type_extraction.h"

#include <algorithm>
#include <map>
#include <type_traits>
#include <unordered_map>

#include "util/status.h"
#include "util/union_find.h"

namespace pghive::core {

namespace {

// The candidate builders fold each pattern into its cluster's candidate
// once, reading the pattern's representative element in place, then walk
// the rows for the instance ids. The helpers below fold one pattern into its
// candidate; FinishCandidate runs once per candidate.

// Unions a member's sorted labels into the candidate's, reallocating only
// when the member brings a label the candidate lacks.
void AddLabels(const std::vector<pg::LabelId>& member,
               std::vector<pg::LabelId>* labels) {
  if (!std::includes(labels->begin(), labels->end(), member.begin(),
                     member.end())) {
    *labels = UnionSorted(*labels, member);
  }
}

// Counts a pattern's keys, `rows` times each, into the candidate's run
// sorted by key; a key the run lacks is inserted in place.
void CountKeys(const pg::PropertyMap& props, size_t rows,
               std::vector<std::pair<pg::PropKeyId, size_t>>* key_counts) {
  auto it = key_counts->begin();
  for (const auto& [key, value] : props.entries()) {
    while (it != key_counts->end() && it->first < key) ++it;
    if (it == key_counts->end() || it->first != key) {
      it = key_counts->insert(it, {key, 0});
    }
    it->second += rows;
    ++it;
  }
}

// Appends `v` unless it repeats the last entry. In the per-row form, members
// of a cluster mostly share one pattern and endpoint pair, so this keeps the
// vectors that FinishCandidate sorts short; the sort still removes every
// duplicate.
template <typename T>
void AppendIfChanged(const T& v, std::vector<T>* out) {
  if (out->empty() || out->back() != v) out->push_back(v);
}

template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

void FinishCandidate(CandidateType* cand) {
  cand->keys.reserve(cand->key_counts.size());
  for (const auto& [key, count] : cand->key_counts) cand->keys.push_back(key);
  SortUnique(&cand->pattern_hashes);
  SortUnique(&cand->endpoints);
}

// The Jaccard universe of unlabeled merging (§4.3): the property keys, plus
// the endpoint tokens in disjoint id ranges, so that property-less edge
// types with different endpoints do not collapse. Nodes have no endpoints.
template <typename Endpoints>
std::vector<uint32_t> JaccardSet(std::vector<uint32_t> set,
                                 const Endpoints& endpoints) {
  constexpr uint32_t kSrcBase = 0x40000000u;
  constexpr uint32_t kDstBase = 0x80000000u;
  for (const auto& [src, dst] : endpoints) {
    if (src != pg::kNoToken) set.push_back(kSrcBase + src);
    if (dst != pg::kNoToken) set.push_back(kDstBase + dst);
  }
  SortUnique(&set);
  return set;
}

template <typename TypeT>
std::vector<uint32_t> JaccardSet(const TypeT& type) {
  if constexpr (std::is_same_v<TypeT, EdgeType>) {
    return JaccardSet(type.Keys(), type.endpoints);
  } else {
    return type.Keys();
  }
}

// Folds a candidate's evidence into a type by union (Lemmas 1 & 2): no
// label, property, instance, pattern or endpoint is ever dropped.
template <typename TypeT>
void Apply(const CandidateType& c, TypeT* type) {
  type->labels = UnionSorted(type->labels, c.labels);
  for (const auto& [key, count] : c.key_counts) {
    type->properties[key].count += count;
  }
  // A key the candidate lists without a count still joins the type.
  for (pg::PropKeyId key : c.keys) type->properties[key];
  type->instances.insert(type->instances.end(), c.instances.begin(),
                         c.instances.end());
  type->instance_count += c.instance_count;
  type->pattern_hashes.insert(c.pattern_hashes.begin(), c.pattern_hashes.end());
  if constexpr (std::is_same_v<TypeT, EdgeType>) {
    type->endpoints.insert(c.endpoints.begin(), c.endpoints.end());
  }
}

// The labeled (or the ABSTRACT) type whose Jaccard set matches `set` best
// with a score >= theta, the first of equals; -1 when none reaches theta.
template <typename TypeT>
int BestMatch(const std::vector<uint32_t>& set, const std::vector<TypeT>& types,
              bool abstract, double theta) {
  double best = -1.0;
  int best_type = -1;
  for (uint32_t t = 0; t < types.size(); ++t) {
    if (types[t].is_abstract() != abstract) continue;
    double j = JaccardSorted(set, JaccardSet(types[t]));
    if (j >= theta && j > best) {
      best = j;
      best_type = static_cast<int>(t);
    }
  }
  return best_type;
}

// Algorithm 2 over one kind of type; see ExtractNodeTypes.
template <typename TypeT>
void ExtractTypes(const std::vector<CandidateType>& candidates, double theta,
                  std::vector<TypeT>* types) {
  // Phase 1: labeled candidates merge by identical label set (Alg. 2
  // l.2-7); a new label set appends a type.
  std::unordered_map<uint64_t, size_t> by_label_set;
  for (size_t t = 0; t < types->size(); ++t) {
    if (!(*types)[t].is_abstract()) {
      by_label_set[LabelSetKey((*types)[t].labels)] = t;
    }
  }
  std::vector<const CandidateType*> unlabeled;
  for (const CandidateType& c : candidates) {
    if (!c.labeled()) {
      unlabeled.push_back(&c);
      continue;
    }
    auto [it, added] =
        by_label_set.try_emplace(LabelSetKey(c.labels), types->size());
    if (added) types->emplace_back();
    Apply(c, &(*types)[it->second]);
  }

  // Phase 2: an unlabeled candidate merges into the best labeled type with
  // Jaccard >= theta (Alg. 2 l.8-11). Phase 3a: failing that, into the best
  // ABSTRACT type of an earlier batch. Phase 2 only grows labeled types and
  // 3a only ABSTRACT ones, so one pass per candidate equals the two passes.
  std::vector<const CandidateType*> rest;
  std::vector<std::vector<uint32_t>> rest_sets;
  for (const CandidateType* c : unlabeled) {
    std::vector<uint32_t> set = JaccardSet(c->keys, c->endpoints);
    int t = BestMatch(set, *types, /*abstract=*/false, theta);
    if (t < 0) t = BestMatch(set, *types, /*abstract=*/true, theta);
    if (t >= 0) {
      Apply(*c, &(*types)[t]);
    } else {
      rest.push_back(c);
      rest_sets.push_back(std::move(set));
    }
  }

  // Phase 3b: the rest merge pairwise by the same rule, transitively
  // (Alg. 2 l.12-14). Each group becomes one new ABSTRACT type, appended in
  // ascending union-find root order, and takes its members in candidate
  // order.
  util::UnionFind uf(rest.size());
  for (uint32_t i = 0; i < rest.size(); ++i) {
    for (uint32_t j = i + 1; j < rest.size(); ++j) {
      if (JaccardSorted(rest_sets[i], rest_sets[j]) >= theta) uf.Union(i, j);
    }
  }
  std::map<uint32_t, size_t> type_of_root;
  for (uint32_t i = 0; i < rest.size(); ++i) type_of_root[uf.Find(i)];
  for (auto& [root, t] : type_of_root) {
    t = types->size();
    types->emplace_back();
  }
  for (uint32_t i = 0; i < rest.size(); ++i) {
    Apply(*rest[i], &(*types)[type_of_root[uf.Find(i)]]);
  }
}

// The pattern form both builders share: `fold(p, rep, cand)` folds pattern
// p, whose representative element is `rep`, into its cluster's candidate.
template <typename FoldFn>
std::vector<CandidateType> BuildCandidates(const std::vector<uint64_t>& ids,
                                           const pg::PatternIndex& patterns,
                                           const lsh::ClusterSet& clusters,
                                           FoldFn fold) {
  PGHIVE_CHECK(patterns.num_rows() == ids.size());
  PGHIVE_CHECK(clusters.num_items() == patterns.num_patterns());
  std::vector<CandidateType> candidates(clusters.num_clusters());
  for (uint32_t p = 0; p < patterns.num_patterns(); ++p) {
    CandidateType& cand = candidates[clusters.cluster_of(p)];
    fold(p, ids[patterns.pattern_rows[p]], &cand);
    cand.instance_count += patterns.pattern_sizes[p];
  }
  for (CandidateType& cand : candidates) {
    cand.instances.reserve(cand.instance_count);
  }
  for (size_t row = 0; row < ids.size(); ++row) {
    candidates[clusters.cluster_of(patterns.row_patterns[row])]
        .instances.push_back(ids[row]);
  }
  for (CandidateType& cand : candidates) FinishCandidate(&cand);
  return candidates;
}

}  // namespace

std::vector<CandidateType> BuildNodeCandidates(
    const pg::PropertyGraph& graph, const std::vector<pg::NodeId>& ids,
    const pg::PatternIndex& patterns, const lsh::ClusterSet& clusters) {
  return BuildCandidates(
      ids, patterns, clusters,
      [&](uint32_t p, pg::NodeId rep, CandidateType* cand) {
        const pg::Node& n = graph.node(rep);
        AddLabels(n.labels, &cand->labels);
        CountKeys(n.properties, patterns.pattern_sizes[p], &cand->key_counts);
        AppendIfChanged(NodePatternHash(n), &cand->pattern_hashes);
      });
}

std::vector<CandidateType> BuildNodeCandidates(
    const pg::PropertyGraph& graph, const pg::GraphBatch& batch,
    const lsh::ClusterSet& clusters) {
  return BuildNodeCandidates(
      graph, batch.node_ids,
      pg::PatternIndex::Identity(batch.node_ids.size()), clusters);
}

std::vector<CandidateType> BuildEdgeCandidates(
    const pg::PropertyGraph& graph, const std::vector<pg::EdgeId>& ids,
    const pg::PatternIndex& patterns, const lsh::ClusterSet& clusters,
    const std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>&
        endpoint_tokens) {
  PGHIVE_CHECK(endpoint_tokens.size() == patterns.num_patterns());
  return BuildCandidates(
      ids, patterns, clusters,
      [&](uint32_t p, pg::EdgeId rep, CandidateType* cand) {
        const pg::Edge& e = graph.edge(rep);
        AddLabels(e.labels, &cand->labels);
        CountKeys(e.properties, patterns.pattern_sizes[p], &cand->key_counts);
        AppendIfChanged(endpoint_tokens[p], &cand->endpoints);
        AppendIfChanged(EdgePatternHash(graph, e), &cand->pattern_hashes);
      });
}

std::vector<CandidateType> BuildEdgeCandidates(
    const pg::PropertyGraph& graph, const pg::GraphBatch& batch,
    const lsh::ClusterSet& clusters,
    const std::vector<std::pair<pg::LabelSetToken, pg::LabelSetToken>>&
        endpoint_tokens) {
  return BuildEdgeCandidates(
      graph, batch.edge_ids,
      pg::PatternIndex::Identity(batch.edge_ids.size()), clusters,
      endpoint_tokens);
}

void ExtractNodeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema) {
  ExtractTypes(candidates, options.jaccard_threshold, &schema->node_types());
}

void ExtractEdgeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema) {
  ExtractTypes(candidates, options.jaccard_threshold, &schema->edge_types());
}

}  // namespace pghive::core

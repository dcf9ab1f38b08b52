#include "core/type_extraction.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/rng.h"
#include "util/status.h"
#include "util/union_find.h"

namespace pghive::core {

namespace {

uint64_t LabelSetKey(const std::vector<pg::LabelId>& labels) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (pg::LabelId l : labels) h = util::HashCombine(h, l + 1);
  return h;
}

// The Jaccard universe for unlabeled-cluster merging. Nodes compare property
// keys only (§4.3); edges also mix in endpoint tokens so property-less edge
// types with different endpoints do not collapse.
std::vector<uint32_t> NodeJaccardSet(const CandidateType& c) { return c.keys; }

std::vector<uint32_t> EdgeJaccardSet(const CandidateType& c) {
  std::vector<uint32_t> set = c.keys;
  // Offset endpoint tokens into a disjoint id range.
  constexpr uint32_t kSrcBase = 0x40000000u;
  constexpr uint32_t kDstBase = 0x80000000u;
  for (const auto& [src, dst] : c.endpoints) {
    if (src != pg::kNoToken) set.push_back(kSrcBase + src);
    if (dst != pg::kNoToken) set.push_back(kDstBase + dst);
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

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

// Merges candidate `from` into candidate `into` by set union (Lemma 1/2).
void MergeCandidate(const CandidateType& from, CandidateType* into) {
  into->labels = UnionSorted(into->labels, from.labels);
  into->keys = UnionSorted(into->keys, from.keys);
  into->instances.insert(into->instances.end(), from.instances.begin(),
                         from.instances.end());
  into->instance_count += from.instance_count;
  // Merge sorted key-count runs.
  std::vector<std::pair<pg::PropKeyId, size_t>> merged;
  merged.reserve(into->key_counts.size() + from.key_counts.size());
  size_t i = 0, j = 0;
  while (i < into->key_counts.size() || j < from.key_counts.size()) {
    if (j >= from.key_counts.size() ||
        (i < into->key_counts.size() &&
         into->key_counts[i].first < from.key_counts[j].first)) {
      merged.push_back(into->key_counts[i++]);
    } else if (i >= into->key_counts.size() ||
               from.key_counts[j].first < into->key_counts[i].first) {
      merged.push_back(from.key_counts[j++]);
    } else {
      merged.emplace_back(into->key_counts[i].first,
                          into->key_counts[i].second +
                              from.key_counts[j].second);
      ++i;
      ++j;
    }
  }
  into->key_counts = std::move(merged);
  into->pattern_hashes.insert(into->pattern_hashes.end(),
                              from.pattern_hashes.begin(),
                              from.pattern_hashes.end());
  into->endpoints.insert(into->endpoints.end(), from.endpoints.begin(),
                         from.endpoints.end());
}

// Applies a candidate's evidence to a NodeType (union semantics).
void ApplyToNodeType(const CandidateType& c, NodeType* type) {
  type->labels = UnionSorted(type->labels, c.labels);
  for (const auto& [key, count] : c.key_counts) {
    type->properties[key].count += count;
  }
  // Keys present in the pattern but never counted (shouldn't happen, but
  // keep the union property airtight).
  for (pg::PropKeyId key : c.keys) type->properties[key];
  type->instances.insert(type->instances.end(), c.instances.begin(),
                         c.instances.end());
  type->instance_count += c.instance_count;
  for (uint64_t h : c.pattern_hashes) type->pattern_hashes.insert(h);
}

void ApplyToEdgeType(const CandidateType& c, EdgeType* type) {
  type->labels = UnionSorted(type->labels, c.labels);
  for (const auto& [key, count] : c.key_counts) {
    type->properties[key].count += count;
  }
  for (pg::PropKeyId key : c.keys) type->properties[key];
  type->instances.insert(type->instances.end(), c.instances.begin(),
                         c.instances.end());
  type->instance_count += c.instance_count;
  for (uint64_t h : c.pattern_hashes) type->pattern_hashes.insert(h);
  for (const auto& ep : c.endpoints) type->endpoints.insert(ep);
}

template <typename TypeT>
std::vector<uint32_t> TypeJaccardSet(const TypeT& type);

template <>
std::vector<uint32_t> TypeJaccardSet<NodeType>(const NodeType& type) {
  return type.Keys();
}

template <>
std::vector<uint32_t> TypeJaccardSet<EdgeType>(const EdgeType& type) {
  std::vector<uint32_t> set = type.Keys();
  constexpr uint32_t kSrcBase = 0x40000000u;
  constexpr uint32_t kDstBase = 0x80000000u;
  for (const auto& [src, dst] : type.endpoints) {
    if (src != pg::kNoToken) set.push_back(kSrcBase + src);
    if (dst != pg::kNoToken) set.push_back(kDstBase + dst);
  }
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

// Shared skeleton of Algorithm 2 for node and edge types.
template <typename TypeT, typename ApplyFn, typename CandSetFn>
void ExtractTypesImpl(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options,
                      std::vector<TypeT>* types, ApplyFn apply,
                      CandSetFn cand_set) {
  // Index existing types by exact label-set key.
  std::unordered_map<uint64_t, uint32_t> by_label_set;
  for (uint32_t t = 0; t < types->size(); ++t) {
    const TypeT& type = (*types)[t];
    if (!type.labels.empty()) by_label_set[LabelSetKey(type.labels)] = t;
  }

  // Phase 1: labeled candidates merge by identical label set (Alg. 2 l.2-7).
  std::vector<CandidateType> unlabeled;
  for (auto& c : candidates) {
    if (!c.labeled()) {
      unlabeled.push_back(std::move(c));
      continue;
    }
    uint64_t key = LabelSetKey(c.labels);
    auto it = by_label_set.find(key);
    if (it != by_label_set.end()) {
      apply(c, &(*types)[it->second]);
    } else {
      TypeT fresh;
      apply(c, &fresh);
      types->push_back(std::move(fresh));
      by_label_set[key] = static_cast<uint32_t>(types->size() - 1);
    }
  }

  // Phase 2: unlabeled candidates merge into the best labeled type with
  // Jaccard >= theta (Alg. 2 l.8-11).
  std::vector<CandidateType> still_unlabeled;
  for (auto& c : unlabeled) {
    auto c_set = cand_set(c);
    double best = -1.0;
    int best_type = -1;
    for (uint32_t t = 0; t < types->size(); ++t) {
      const TypeT& type = (*types)[t];
      if (type.labels.empty()) continue;
      double j = JaccardSorted(c_set, TypeJaccardSet<TypeT>(type));
      if (j >= options.jaccard_threshold && j > best) {
        best = j;
        best_type = static_cast<int>(t);
      }
    }
    if (best_type >= 0) {
      apply(c, &(*types)[best_type]);
    } else {
      still_unlabeled.push_back(std::move(c));
    }
  }

  // Phase 3a: try existing ABSTRACT types (incremental mode keeps abstract
  // types from previous batches alive).
  std::vector<CandidateType> fresh_unlabeled;
  for (auto& c : still_unlabeled) {
    auto c_set = cand_set(c);
    double best = -1.0;
    int best_type = -1;
    for (uint32_t t = 0; t < types->size(); ++t) {
      const TypeT& type = (*types)[t];
      if (!type.labels.empty()) continue;
      double j = JaccardSorted(c_set, TypeJaccardSet<TypeT>(type));
      if (j >= options.jaccard_threshold && j > best) {
        best = j;
        best_type = static_cast<int>(t);
      }
    }
    if (best_type >= 0) {
      apply(c, &(*types)[best_type]);
    } else {
      fresh_unlabeled.push_back(std::move(c));
    }
  }

  // Phase 3b: pairwise merging among the remaining unlabeled clusters
  // (Alg. 2 l.12-14) via union-find, then append as ABSTRACT types.
  if (!fresh_unlabeled.empty()) {
    std::vector<std::vector<uint32_t>> sets;
    sets.reserve(fresh_unlabeled.size());
    for (const auto& c : fresh_unlabeled) sets.push_back(cand_set(c));
    util::UnionFind uf(fresh_unlabeled.size());
    for (size_t i = 0; i < fresh_unlabeled.size(); ++i) {
      for (size_t j = i + 1; j < fresh_unlabeled.size(); ++j) {
        if (JaccardSorted(sets[i], sets[j]) >= options.jaccard_threshold) {
          uf.Union(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
        }
      }
    }
    std::vector<uint32_t> comp(fresh_unlabeled.size());
    for (uint32_t i = 0; i < fresh_unlabeled.size(); ++i) comp[i] = uf.Find(i);
    std::map<uint32_t, CandidateType> groups;
    for (uint32_t i = 0; i < fresh_unlabeled.size(); ++i) {
      auto it = groups.find(comp[i]);
      if (it == groups.end()) {
        groups.emplace(comp[i], std::move(fresh_unlabeled[i]));
      } else {
        MergeCandidate(fresh_unlabeled[i], &it->second);
      }
    }
    for (auto& [root, c] : groups) {
      TypeT fresh;
      apply(c, &fresh);
      types->push_back(std::move(fresh));
    }
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
  ExtractTypesImpl<NodeType>(
      std::move(candidates), options, &schema->node_types(),
      [](const CandidateType& c, NodeType* t) { ApplyToNodeType(c, t); },
      [](const CandidateType& c) { return NodeJaccardSet(c); });
}

void ExtractEdgeTypes(std::vector<CandidateType> candidates,
                      const ExtractionOptions& options, SchemaGraph* schema) {
  ExtractTypesImpl<EdgeType>(
      std::move(candidates), options, &schema->edge_types(),
      [](const CandidateType& c, EdgeType* t) { ApplyToEdgeType(c, t); },
      [](const CandidateType& c) { return EdgeJaccardSet(c); });
}

}  // namespace pghive::core

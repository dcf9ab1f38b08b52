#include "core/schema.h"

#include <algorithm>

#include "util/rng.h"

namespace pghive::core {

const char* CardinalityKindName(CardinalityKind k) {
  switch (k) {
    case CardinalityKind::kUnknown:
      return "?";
    case CardinalityKind::kOneToOne:
      return "1:1";
    case CardinalityKind::kManyToOne:
      return "N:1";
    case CardinalityKind::kOneToMany:
      return "1:N";
    case CardinalityKind::kManyToMany:
      return "M:N";
  }
  return "?";
}

CardinalityKind ClassifyCardinality(size_t max_out, size_t max_in) {
  if (max_out == 0 && max_in == 0) return CardinalityKind::kUnknown;
  bool out_many = max_out > 1;
  bool in_many = max_in > 1;
  if (out_many && in_many) return CardinalityKind::kManyToMany;
  if (in_many) return CardinalityKind::kManyToOne;   // Many sources per target.
  if (out_many) return CardinalityKind::kOneToMany;  // Many targets per source.
  return CardinalityKind::kOneToOne;
}

namespace {

uint32_t IdOf(uint32_t id) { return id; }
uint32_t IdOf(const std::pair<pg::KeyId, pg::Value>& entry) {
  return entry.first;
}

template <typename Ids>
uint64_t HashIds(uint64_t seed, const Ids& ids) {
  uint64_t h = seed;
  for (const auto& id : ids) h = util::HashCombine(h, IdOf(id) + 1);
  return h;
}

// The pattern hash arithmetic, defined once for the pattern structs and for
// elements. `keys` is a sorted key vector or a PropertyMap's entries (sorted
// by key), so an element hashes without copying its keys out.
template <typename Keys>
uint64_t NodeHash(const std::vector<pg::LabelId>& labels, const Keys& keys) {
  uint64_t h = HashIds(0x9e37, labels);
  return HashIds(util::HashCombine(h, 0xF00D), keys);
}

template <typename Keys>
uint64_t EdgeHash(const std::vector<pg::LabelId>& labels, const Keys& keys,
                  const std::vector<pg::LabelId>& src_labels,
                  const std::vector<pg::LabelId>& dst_labels) {
  uint64_t h = HashIds(0x517c, labels);
  h = HashIds(util::HashCombine(h, 0xF00D), keys);
  h = HashIds(util::HashCombine(h, 0xBEEF), src_labels);
  return HashIds(util::HashCombine(h, 0xCAFE), dst_labels);
}

}  // namespace

uint64_t NodePattern::Hash() const { return NodeHash(labels, keys); }

uint64_t EdgePattern::Hash() const {
  return EdgeHash(labels, keys, src_labels, dst_labels);
}

uint64_t NodePatternHash(const pg::Node& node) {
  return NodeHash(node.labels, node.properties.entries());
}

uint64_t EdgePatternHash(const pg::PropertyGraph& graph, const pg::Edge& edge) {
  return EdgeHash(edge.labels, edge.properties.entries(),
                  graph.node(edge.src).labels, graph.node(edge.dst).labels);
}

std::vector<pg::PropKeyId> SchemaType::Keys() const {
  std::vector<pg::PropKeyId> keys;
  keys.reserve(properties.size());
  for (const auto& [k, info] : properties) keys.push_back(k);
  return keys;
}

std::string SchemaType::Name(const pg::Vocabulary& vocab, size_t index) const {
  if (labels.empty()) return "Abstract#" + std::to_string(index);
  std::vector<std::string> names;
  names.reserve(labels.size());
  for (pg::LabelId l : labels) names.push_back(vocab.LabelName(l));
  std::sort(names.begin(), names.end());
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) out.push_back('|');
    out += names[i];
  }
  return out;
}

uint64_t LabelSetKey(const std::vector<pg::LabelId>& labels) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (pg::LabelId l : labels) h = util::HashCombine(h, l + 1);
  return h;
}

namespace {

template <typename TypeT>
std::vector<uint32_t> Assignment(const std::vector<TypeT>& types, size_t n) {
  std::vector<uint32_t> assignment(n, UINT32_MAX);
  for (uint32_t t = 0; t < types.size(); ++t) {
    for (uint64_t id : types[t].instances) {
      if (id < n) assignment[id] = t;
    }
  }
  return assignment;
}

}  // namespace

std::vector<uint32_t> SchemaGraph::NodeAssignment(size_t num_nodes) const {
  return Assignment(node_types_, num_nodes);
}

std::vector<uint32_t> SchemaGraph::EdgeAssignment(size_t num_edges) const {
  return Assignment(edge_types_, num_edges);
}

std::vector<uint32_t> UnionSorted(const std::vector<uint32_t>& a,
                                  const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

double JaccardSorted(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

}  // namespace pghive::core

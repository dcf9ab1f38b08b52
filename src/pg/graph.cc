#include "pg/graph.h"

#include <algorithm>
#include <unordered_set>

#include "util/rng.h"
#include "util/status.h"

namespace pghive::pg {

void NormalizeLabels(std::vector<LabelId>* labels) {
  std::sort(labels->begin(), labels->end());
  labels->erase(std::unique(labels->begin(), labels->end()), labels->end());
}

bool Node::HasLabel(LabelId l) const {
  return std::binary_search(labels.begin(), labels.end(), l);
}

bool Edge::HasLabel(LabelId l) const {
  return std::binary_search(labels.begin(), labels.end(), l);
}

NodeId PropertyGraph::AddNode(const std::vector<std::string>& label_names) {
  std::vector<LabelId> ids;
  ids.reserve(label_names.size());
  for (const auto& name : label_names) ids.push_back(vocab_->InternLabel(name));
  return AddNodeWithLabelIds(std::move(ids));
}

NodeId PropertyGraph::AddNodeWithLabelIds(std::vector<LabelId> labels) {
  NormalizeLabels(&labels);
  Node n;
  n.id = nodes_.size();
  n.labels = std::move(labels);
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

EdgeId PropertyGraph::AddEdge(NodeId src, NodeId dst,
                              const std::vector<std::string>& label_names) {
  std::vector<LabelId> ids;
  ids.reserve(label_names.size());
  for (const auto& name : label_names) ids.push_back(vocab_->InternLabel(name));
  return AddEdgeWithLabelIds(src, dst, std::move(ids));
}

EdgeId PropertyGraph::AddEdgeWithLabelIds(NodeId src, NodeId dst,
                                          std::vector<LabelId> labels) {
  PGHIVE_CHECK(src < nodes_.size() && dst < nodes_.size());
  NormalizeLabels(&labels);
  Edge e;
  e.id = edges_.size();
  e.src = src;
  e.dst = dst;
  e.labels = std::move(labels);
  edges_.push_back(std::move(e));
  return edges_.back().id;
}

void PropertyGraph::SetNodeProperty(NodeId id, std::string_view key,
                                    Value value) {
  PGHIVE_CHECK(id < nodes_.size());
  nodes_[id].properties.Set(vocab_->InternKey(key), std::move(value));
}

void PropertyGraph::SetEdgeProperty(EdgeId id, std::string_view key,
                                    Value value) {
  PGHIVE_CHECK(id < edges_.size());
  edges_[id].properties.Set(vocab_->InternKey(key), std::move(value));
}

PropertyGraph::Stats PropertyGraph::ComputeStats() const {
  Stats s;
  s.num_nodes = nodes_.size();
  s.num_edges = edges_.size();

  std::unordered_set<LabelId> node_labels;
  std::unordered_set<LabelId> edge_labels;
  std::unordered_set<PropKeyId> node_keys;
  std::unordered_set<PropKeyId> edge_keys;
  std::unordered_set<uint64_t> node_patterns;
  std::unordered_set<uint64_t> edge_patterns;

  auto pattern_hash = [](const std::vector<LabelId>& labels,
                         const std::vector<PropKeyId>& keys,
                         uint64_t extra) {
    uint64_t h = 0x51ed27fULL ^ extra;
    for (LabelId l : labels) h = util::HashCombine(h, 0x1000 + l);
    h = util::HashCombine(h, 0xABCDEFULL);
    for (PropKeyId k : keys) h = util::HashCombine(h, 0x2000 + k);
    return h;
  };

  size_t node_prop_total = 0;
  for (const Node& n : nodes_) {
    for (LabelId l : n.labels) node_labels.insert(l);
    auto keys = n.properties.Keys();
    for (PropKeyId k : keys) node_keys.insert(k);
    node_prop_total += keys.size();
    node_patterns.insert(pattern_hash(n.labels, keys, 0));
  }

  size_t edge_prop_total = 0;
  for (const Edge& e : edges_) {
    for (LabelId l : e.labels) edge_labels.insert(l);
    auto keys = e.properties.Keys();
    for (PropKeyId k : keys) edge_keys.insert(k);
    edge_prop_total += keys.size();
    // Edge patterns (Def. 3.6) also distinguish endpoint label sets.
    uint64_t src_h = 1, dst_h = 1;
    for (LabelId l : nodes_[e.src].labels) {
      src_h = util::HashCombine(src_h, l);
    }
    for (LabelId l : nodes_[e.dst].labels) {
      dst_h = util::HashCombine(dst_h, l);
    }
    edge_patterns.insert(
        pattern_hash(e.labels, keys, util::HashCombine(src_h, dst_h)));
  }

  s.num_node_labels = node_labels.size();
  s.num_edge_labels = edge_labels.size();
  s.num_node_keys = node_keys.size();
  s.num_edge_keys = edge_keys.size();
  s.num_node_patterns = node_patterns.size();
  s.num_edge_patterns = edge_patterns.size();
  s.avg_node_props =
      nodes_.empty() ? 0.0
                     : static_cast<double>(node_prop_total) / nodes_.size();
  s.avg_edge_props =
      edges_.empty() ? 0.0
                     : static_cast<double>(edge_prop_total) / edges_.size();
  return s;
}

}  // namespace pghive::pg

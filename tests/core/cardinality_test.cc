#include "core/cardinality.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "util/rng.h"

namespace pghive::core {
namespace {

struct Fixture {
  pg::PropertyGraph graph;
  std::vector<pg::NodeId> people;
  std::vector<pg::NodeId> orgs;

  Fixture() {
    for (int i = 0; i < 6; ++i) people.push_back(graph.AddNode({"Person"}));
    for (int i = 0; i < 2; ++i) orgs.push_back(graph.AddNode({"Org"}));
  }
};

TEST(CardinalityTest, ManyToOneDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  // Every person works at exactly one org; orgs have many employees.
  for (pg::NodeId p : f.people) {
    edges.push_back(f.graph.AddEdge(p, f.orgs[p % 2], {"WORKS_AT"}));
  }
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.max_out, 1u);
  EXPECT_GT(c.max_in, 1u);
  EXPECT_EQ(c.kind, CardinalityKind::kManyToOne);
}

TEST(CardinalityTest, OneToManyDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  // One org employs (reversed direction) many people.
  for (pg::NodeId p : f.people) {
    edges.push_back(f.graph.AddEdge(f.orgs[0], p, {"EMPLOYS"}));
  }
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.kind, CardinalityKind::kOneToMany);
}

TEST(CardinalityTest, OneToOneDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  edges.push_back(f.graph.AddEdge(f.people[0], f.people[1], {"SPOUSE"}));
  edges.push_back(f.graph.AddEdge(f.people[2], f.people[3], {"SPOUSE"}));
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.kind, CardinalityKind::kOneToOne);
}

TEST(CardinalityTest, ManyToManyDetected) {
  Fixture f;
  std::vector<uint64_t> edges;
  for (int i = 0; i < 3; ++i) {
    for (int j = 3; j < 6; ++j) {
      edges.push_back(f.graph.AddEdge(f.people[i], f.people[j], {"KNOWS"}));
    }
  }
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.kind, CardinalityKind::kManyToMany);
  EXPECT_EQ(c.max_out, 3u);
  EXPECT_EQ(c.max_in, 3u);
}

TEST(CardinalityTest, DistinctTargetsOnly) {
  // Parallel edges to the same target count once for the degree bound.
  Fixture f;
  std::vector<uint64_t> edges;
  edges.push_back(f.graph.AddEdge(f.people[0], f.orgs[0], {"R"}));
  edges.push_back(f.graph.AddEdge(f.people[0], f.orgs[0], {"R"}));
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.max_out, 1u);
  EXPECT_EQ(c.kind, CardinalityKind::kOneToOne);
}

TEST(CardinalityTest, EmptyEdgeListIsUnknown) {
  Fixture f;
  Cardinality c = CardinalityForEdges(f.graph, {});
  EXPECT_EQ(c.kind, CardinalityKind::kUnknown);
}

TEST(CardinalityTest, ComputeForWholeSchema) {
  Fixture f;
  SchemaGraph schema;
  EdgeType works;
  for (pg::NodeId p : f.people) {
    works.instances.push_back(f.graph.AddEdge(p, f.orgs[0], {"WORKS_AT"}));
  }
  schema.edge_types().push_back(works);
  ComputeCardinalities(f.graph, &schema);
  EXPECT_EQ(schema.edge_types()[0].cardinality.kind,
            CardinalityKind::kManyToOne);
}

// Soundness (§4.7): the recorded bounds are upper bounds — no source in the
// data exceeds max_out, no target exceeds max_in.
TEST(CardinalityTest, BoundsAreSoundUpperBounds) {
  Fixture f;
  std::vector<uint64_t> edges;
  edges.push_back(f.graph.AddEdge(f.people[0], f.people[1], {"R"}));
  edges.push_back(f.graph.AddEdge(f.people[0], f.people[2], {"R"}));
  edges.push_back(f.graph.AddEdge(f.people[3], f.people[1], {"R"}));
  Cardinality c = CardinalityForEdges(f.graph, edges);
  EXPECT_EQ(c.max_out, 2u);  // person0 -> {1,2}.
  EXPECT_EQ(c.max_in, 2u);   // person1 <- {0,3}.
}

// Exact values, not only soundness: every bound equals the one a
// std::map<NodeId, std::set<NodeId>> reference counts per direction.
using NodeSets = std::map<pg::NodeId, std::set<pg::NodeId>>;

size_t MaxSetSize(const NodeSets& sets) {
  size_t max = 0;
  for (const auto& [node, set] : sets) max = std::max(max, set.size());
  return max;
}

// Random multigraphs with parallel edges, self-loops and isolated nodes, the
// edges spread over several types that share sources and targets, plus one
// type with no instances, all bounded in one ComputeCardinalities call: a
// scratch entry one type leaves behind would skew the next type's count.
TEST(CardinalityTest, MatchesSetReferenceOnRandomMultigraphs) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    util::Rng rng(seed);
    pg::PropertyGraph g;
    const size_t num_nodes = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < num_nodes; ++i) g.AddNode({"N"});
    // Edges touch only the first `active` nodes; the rest stay isolated.
    const size_t active = 1 + rng.NextBounded(num_nodes);
    const size_t num_types = 1 + rng.NextBounded(5);
    SchemaGraph schema;
    schema.edge_types().resize(num_types + 1);  // The last one stays empty.
    const size_t num_edges = rng.NextBounded(250);
    for (size_t i = 0; i < num_edges; ++i) {
      pg::NodeId src = rng.NextBounded(active);
      pg::NodeId dst = rng.NextBool(0.1) ? src : rng.NextBounded(active);
      auto& type = schema.edge_types()[rng.NextBounded(num_types)];
      type.instances.push_back(g.AddEdge(src, dst, {"R"}));
      if (rng.NextBool(0.2)) {
        type.instances.push_back(g.AddEdge(src, dst, {"R"}));  // Parallel.
      }
    }
    ComputeCardinalities(g, &schema);

    for (size_t t = 0; t < schema.edge_types().size(); ++t) {
      const EdgeType& type = schema.edge_types()[t];
      NodeSets out;
      NodeSets in;
      for (uint64_t id : type.instances) {
        out[g.edge(id).src].insert(g.edge(id).dst);
        in[g.edge(id).dst].insert(g.edge(id).src);
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + " type " +
                   std::to_string(t));
      EXPECT_EQ(type.cardinality.max_out, MaxSetSize(out));
      EXPECT_EQ(type.cardinality.max_in, MaxSetSize(in));
      EXPECT_EQ(type.cardinality.kind,
                ClassifyCardinality(MaxSetSize(out), MaxSetSize(in)));
      // CardinalityForEdges, with scratch of its own, agrees.
      Cardinality alone = CardinalityForEdges(g, type.instances);
      EXPECT_EQ(alone.max_out, type.cardinality.max_out);
      EXPECT_EQ(alone.max_in, type.cardinality.max_in);
    }
    EXPECT_EQ(schema.edge_types().back().cardinality.kind,
              CardinalityKind::kUnknown);
  }
}

// Per-node degrees, in first-occurrence order, over many calls on one
// counter.
TEST(DistinctDegreeCounterTest, PerNodeDegreesMatchSetReference) {
  util::Rng rng(0xD15C);
  const size_t num_nodes = 30;
  DistinctDegreeCounter counter(num_nodes);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::pair<pg::NodeId, pg::NodeId>> pairs;
    const size_t num_pairs = rng.NextBounded(120);
    for (size_t i = 0; i < num_pairs; ++i) {
      pairs.emplace_back(rng.NextBounded(num_nodes),
                         rng.NextBounded(num_nodes));
    }
    NodeSets reference;
    std::vector<pg::NodeId> first_seen;
    for (const auto& [from, to] : pairs) {
      if (!reference.count(from)) first_seen.push_back(from);
      reference[from].insert(to);
    }
    const auto& degrees = counter.Count(pairs);
    ASSERT_EQ(degrees.size(), first_seen.size()) << "round " << round;
    for (size_t i = 0; i < degrees.size(); ++i) {
      EXPECT_EQ(degrees[i].first, first_seen[i]) << "round " << round;
      EXPECT_EQ(degrees[i].second, reference[first_seen[i]].size())
          << "round " << round << " node " << first_seen[i];
    }
  }
}

}  // namespace
}  // namespace pghive::core

// Schema-as-a-contract workflow: discover a schema from a trusted snapshot,
// export it, parse it back (as a downstream service would), and validate an
// evolved graph containing violations — demonstrating the validator and the
// PG-Schema parser together.
//
//   $ ./schema_validation

#include <cstdio>

#include "core/pghive.h"
#include "core/pgschema_parser.h"
#include "core/serialize.h"
#include "core/validator.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"

using namespace pghive;

int main() {
  // 1. Discover the schema of a trusted POLE snapshot.
  datasets::Dataset dataset =
      datasets::Generate(datasets::PoleSpec(), 0.3, 17);
  core::PgHiveOptions options;
  core::PgHive pipeline(&dataset.graph, options);
  if (!pipeline.Run().ok()) return 1;
  std::printf("discovered %zu node types, %zu edge types\n",
              pipeline.schema().num_node_types(),
              pipeline.schema().num_edge_types());

  // 2. Export and re-parse the schema (the contract travels as text).
  std::string contract = core::SerializePgSchema(
      pipeline.schema(), dataset.graph.vocab(), core::SchemaMode::kStrict);
  auto parsed = core::ParsePgSchema(contract, &dataset.graph.vocab());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse failed: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("contract round-tripped: %zu node types, %zu edge types\n",
              parsed.value().num_node_types(),
              parsed.value().num_edge_types());

  // 3. The graph evolves: a malformed ingestion adds rule-breaking data.
  pg::PropertyGraph evolved = dataset.graph;
  pg::NodeId rogue = evolved.AddNode({"Person"});  // Missing mandatory props.
  evolved.SetNodeProperty(rogue, "name", pg::Value("Mallory"));
  pg::NodeId alien = evolved.AddNode({"Satellite"});  // Unknown type.
  (void)alien;

  core::ValidatorOptions vopts;
  core::SchemaValidator validator(&pipeline.schema(), vopts);
  core::ValidationReport report = validator.Validate(evolved);
  std::printf("\nvalidating evolved graph: %s\n", report.Summary().c_str());
  for (const core::Violation& v : report.violations) {
    std::printf("  [%s] %s %llu: %s\n", core::ViolationKindName(v.kind),
                v.is_edge ? "edge" : "node",
                static_cast<unsigned long long>(v.element_id),
                v.detail.c_str());
  }
  return 0;
}

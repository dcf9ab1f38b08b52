#include "eval/harness.h"

#include <algorithm>
#include <cstdlib>

#include "baselines/gmm_schema.h"
#include "baselines/schemi.h"
#include "pg/batch.h"
#include "util/timer.h"

namespace pghive::eval {

const char* MethodName(Method m) {
  switch (m) {
    case Method::kPgHiveElsh:
      return "PG-HIVE-ELSH";
    case Method::kPgHiveMinHash:
      return "PG-HIVE-MinHash";
    case Method::kGmmSchema:
      return "GMM";
    case Method::kSchemI:
      return "SchemI";
  }
  return "?";
}

double EnvScale() {
  const char* env = std::getenv("PGHIVE_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  if (v <= 0) return 1.0;
  return std::clamp(v, 0.05, 100.0);
}

namespace {

RunResult RunPgHive(pg::PropertyGraph* graph,
                    const datasets::Dataset& dataset,
                    const RunConfig& config) {
  RunResult result;
  core::PgHiveOptions options;
  options.method = config.method == Method::kPgHiveElsh
                       ? core::ClusterMethod::kElsh
                       : core::ClusterMethod::kMinHash;
  options.adaptive = config.adaptive;
  options.bucket_length = config.bucket_length;
  options.num_tables = config.num_tables;
  options.seed = config.seed;

  core::PgHive pipeline(graph, options);
  util::Timer timer;
  if (config.num_batches <= 1) {
    util::Status status = pipeline.ProcessBatch(pg::FullBatch(*graph));
    if (!status.ok()) {
      result.error = status.ToString();
      return result;
    }
    result.batch_ms.push_back(pipeline.last_stats().discovery_ms());
  } else {
    auto batches =
        pg::SplitIntoBatches(*graph, config.num_batches, config.seed ^ 0xBA);
    for (const auto& batch : batches) {
      util::Status status = pipeline.ProcessBatch(batch);
      if (!status.ok()) {
        result.error = status.ToString();
        return result;
      }
      result.batch_ms.push_back(pipeline.last_stats().discovery_ms());
    }
  }
  result.discovery_ms = timer.ElapsedMillis();
  util::Status status = pipeline.Finish();
  if (!status.ok()) {
    result.error = status.ToString();
    return result;
  }
  result.total_ms = timer.ElapsedMillis();

  result.node_f1 =
      MajorityF1(pipeline.NodeAssignment(), dataset.truth.node_type);
  result.edge_f1 =
      MajorityF1(pipeline.EdgeAssignment(), dataset.truth.edge_type);
  result.has_edge_result = true;
  result.num_node_clusters = pipeline.schema().num_node_types();
  result.num_edge_clusters = pipeline.schema().num_edge_types();
  result.ok = true;
  return result;
}

RunResult RunGmm(pg::PropertyGraph* graph, const datasets::Dataset& dataset,
                 const RunConfig& config) {
  RunResult result;
  baselines::GmmSchemaOptions options;
  options.seed = config.seed;
  baselines::GmmSchema gmm(options);
  util::Timer timer;
  auto run = gmm.Discover(*graph);
  result.discovery_ms = timer.ElapsedMillis();
  result.total_ms = result.discovery_ms;
  if (!run.ok()) {
    result.error = run.status().ToString();
    return result;
  }
  result.node_f1 =
      MajorityF1(run.value().node_assignment, dataset.truth.node_type);
  result.num_node_clusters = run.value().num_clusters;
  result.has_edge_result = false;  // GMMSchema discovers node types only.
  result.ok = true;
  return result;
}

RunResult RunSchemi(pg::PropertyGraph* graph,
                    const datasets::Dataset& dataset,
                    const RunConfig& /*config*/) {
  RunResult result;
  util::Timer timer;
  auto run = baselines::SchemI::Discover(*graph);
  result.discovery_ms = timer.ElapsedMillis();
  result.total_ms = result.discovery_ms;
  if (!run.ok()) {
    result.error = run.status().ToString();
    return result;
  }
  result.node_f1 =
      MajorityF1(run.value().node_assignment, dataset.truth.node_type);
  if (!run.value().edge_assignment.empty()) {
    result.edge_f1 =
        MajorityF1(run.value().edge_assignment, dataset.truth.edge_type);
    result.has_edge_result = true;
  }
  result.num_node_clusters = run.value().num_node_clusters;
  result.num_edge_clusters = run.value().num_edge_clusters;
  result.ok = true;
  return result;
}

}  // namespace

RunResult RunMethod(const datasets::Dataset& dataset,
                    const RunConfig& config) {
  // Work on a noisy copy; the vocabulary is shared, which is safe because
  // noise only removes information.
  pg::PropertyGraph graph = dataset.graph;
  datasets::NoiseConfig noise;
  noise.property_removal = config.noise;
  noise.label_availability = config.label_availability;
  noise.seed = config.seed ^ 0x5EED;
  datasets::InjectNoise(&graph, noise);

  switch (config.method) {
    case Method::kPgHiveElsh:
    case Method::kPgHiveMinHash:
      return RunPgHive(&graph, dataset, config);
    case Method::kGmmSchema:
      return RunGmm(&graph, dataset, config);
    case Method::kSchemI:
      return RunSchemi(&graph, dataset, config);
  }
  RunResult result;
  result.error = "unknown method";
  return result;
}

}  // namespace pghive::eval

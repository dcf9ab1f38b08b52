// perfbench — the end-to-end benchmark of pghive, pghived and the library.
//
//   perfbench --workload ldbc10-static|zoo-batched|daemon-stream
//             --seed N --seconds S --trace 0|1 [--split-seed N]
//             --tools-dir DIR --work-dir DIR
//
// Runs one workload: set-up (repeated, median reported), then jobs for S
// seconds, checking every output. --trace 0 prints the end-to-end metrics;
// --trace 1 replays each job with a span around every call into a layer and
// prints the per-layer metrics, writing the spans as Chrome trace-event JSON
// to DIR/traces/. A human-readable table (with sample counts and the run's
// environment) comes first; the last line of standard output is the result
// object. run.py builds the binaries and fills in --tools-dir and
// --work-dir. See README.md.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "proc.h"
#include "report.h"
#include "trace.h"
#include "util/parse.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The run ends itself well inside the 180 s a run may take.
constexpr unsigned kDeadlineSeconds = 170;

/// The result object's metrics of an untraced run, the same on every
/// workload. The timings are CPU time of the processes under test scaled to
/// the reference host speed (probe.h): wall time and raw CPU time follow the
/// shared host's load. Those, type_count_error and failed_op_ratio are
/// printed in the table only; type_count_error moves in whole-type steps
/// between seeds on daemon-stream, and failed_op_ratio is 0 on a correct run
/// and travels as attempted/failed.
const char* const kEndToEnd[] = {
    "setup_s",     "job_cpu_ms_p50",      "batch_cpu_ms_p50", "batch_cpu_ms_p90",
    "peak_rss_mb", "write_amplification", "node_f1",          "edge_f1"};

/// How a per-layer metric is computed from the traced run.
enum class Agg {
  kSelfMs,     ///< Per job: summed self time of the spans; median over jobs.
  kCount,      ///< Per job: summed counter; median over jobs.
  kRatio,      ///< Per job: counter[0] / counter[1]; median over jobs.
  kSpanP50,    ///< Median duration over every span inside a job.
  kSampleP50,  ///< Median over the recorded samples.
};

struct LayerMetric {
  const char* name;
  const char* unit;
  Agg agg;
  std::vector<const char*> sources;
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"pg.load_ms", "ms", Agg::kSelfMs, {"pg.load"}},
      {"pg.columns_ms", "ms", Agg::kSelfMs, {"pg.columns"}},
      {"embed.corpus_ms", "ms", Agg::kSelfMs, {"embed.corpus"}},
      {"embed.train_ms", "ms", Agg::kSelfMs, {"embed.train"}},
      {"embed.nonfinite_tokens", "count", Agg::kCount, {"embed.nonfinite_tokens"}},
      {"core.vectorize_ms", "ms", Agg::kSelfMs, {"core.vectorize"}},
      {"core.adaptive_ms", "ms", Agg::kSelfMs, {"core.adaptive"}},
      {"core.mu_fallbacks", "count", Agg::kCount, {"core.mu_fallbacks"}},
      {"lsh.hash_ms", "ms", Agg::kSelfMs, {"lsh.hash"}},
      {"lsh.group_ms", "ms", Agg::kSelfMs, {"lsh.group"}},
      {"lsh.clusters", "count", Agg::kCount, {"lsh.clusters"}},
      {"lsh.cluster_yield", "ratio", Agg::kRatio,
       {"core.final_types", "lsh.clusters"}},
      {"lsh.single_cluster_sides", "count", Agg::kCount,
       {"lsh.single_cluster_sides"}},
      {"core.candidates_ms", "ms", Agg::kSelfMs, {"core.candidates"}},
      {"core.extract_ms", "ms", Agg::kSelfMs, {"core.extract"}},
      {"core.postprocess_ms", "ms", Agg::kSelfMs,
       {"core.constraints", "core.datatypes", "core.cardinality"}},
      {"core.constraints_ms", "ms", Agg::kSelfMs, {"core.constraints"}},
      {"core.datatypes_ms", "ms", Agg::kSelfMs, {"core.datatypes"}},
      {"core.cardinality_ms", "ms", Agg::kSelfMs, {"core.cardinality"}},
      {"core.render_ms", "ms", Agg::kSelfMs, {"core.render"}},
      {"core.diff_ms", "ms", Agg::kSelfMs, {"core.diff"}},
      {"service.ping_ms_p50", "ms", Agg::kSpanP50, {"service.ping"}},
      {"service.ack_ms_p50", "ms", Agg::kSpanP50, {"service.ingest"}},
      {"service.lane_ms_p50", "ms", Agg::kSampleP50, {"service.lane_ms"}},
      {"service.assemble_ms", "ms", Agg::kSelfMs, {"service.assemble"}},
      {"service.checkpoint_ms", "ms", Agg::kCount, {"service.checkpoint_ms"}},
      {"service.checkpoint_bytes", "bytes", Agg::kCount,
       {"service.checkpoint_bytes"}},
      {"service.write_bytes", "bytes", Agg::kCount, {"service.write_bytes"}},
      {"service.write_calls", "count", Agg::kCount, {"service.write_calls"}},
      {"service.read_ms_p50", "ms", Agg::kSpanP50, {"service.read"}},
      {"service.feed_read_ms", "ms", Agg::kSelfMs, {"service.feed_read"}},
      {"service.finish_ms", "ms", Agg::kSelfMs, {"service.finish"}},
      {"trace.job_ms_p50", "ms", Agg::kSpanP50, {"job"}},
  };
  return metrics;
}

/// Every per-layer metric from the traced run's spans and counters; a layer
/// the workload never enters reads 0.
void AddLayerMetrics(const Tracer& tracer, Report* report) {
  for (const LayerMetric& m : LayerMetrics()) {
    std::vector<double> values;
    switch (m.agg) {
      case Agg::kSelfMs:
        values = tracer.PerJobSelfMs(m.sources);
        break;
      case Agg::kCount:
        values = tracer.PerJobCount(m.sources[0]);
        break;
      case Agg::kRatio: {
        std::vector<double> num = tracer.PerJobCount(m.sources[0]);
        std::vector<double> den = tracer.PerJobCount(m.sources[1]);
        for (size_t i = 0; i < num.size(); ++i) {
          values.push_back(den[i] > 0 ? num[i] / den[i] : 0);
        }
        break;
      }
      case Agg::kSpanP50:
        values = tracer.Durations(m.sources[0]);
        break;
      case Agg::kSampleP50:
        values = tracer.Samples(m.sources[0]);
        break;
    }
    report->Add(m.name, Median(values), m.unit, values.size());
  }
}

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ldbc10-static|zoo-batched|daemon-stream --seed N --seconds S "
               "--trace 0|1 [--split-seed N] --tools-dir DIR --work-dir DIR\n",
               message.c_str());
  return 2;
}

std::string SutThreads(const std::string& workload) {
  if (workload == "ldbc10-static") {
    return "pghive discover --threads " + std::to_string(kStaticThreads);
  }
  if (workload == "zoo-batched") {
    return "PgHive num_threads " + std::to_string(kZooThreads);
  }
  return "pghived --threads " + std::to_string(kDaemonThreads);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      return Usage(std::string("bad argument '") + argv[i] + "'");
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  static const std::set<std::string> kKnown = {
      "workload", "seed", "seconds", "trace", "split-seed", "tools-dir",
      "work-dir"};
  for (const auto& [key, value] : args) {
    if (!kKnown.count(key)) return Usage("unknown option --" + key);
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "tools-dir", "work-dir"}) {
    if (!args.count(required)) return Usage(std::string("missing --") + required);
  }
  RunConfig config;
  config.workload = args["workload"];
  auto seed = pghive::util::ParseInt64InRange(args["seed"], 0, INT64_MAX, "--seed");
  auto split = pghive::util::ParseInt64InRange(
      args.count("split-seed") ? args["split-seed"] : "1", 0, INT64_MAX,
      "--split-seed");
  auto seconds =
      pghive::util::ParseInt64InRange(args["seconds"], 1, 120, "--seconds");
  auto trace = pghive::util::ParseInt64InRange(args["trace"], 0, 1, "--trace");
  for (const auto* parsed : {&seed, &split, &seconds, &trace}) {
    if (!parsed->ok()) return Usage(parsed->status().ToString());
  }
  void (*run)(const RunConfig&, Tracer*, Report*) = nullptr;
  if (config.workload == "ldbc10-static") run = RunLdbc10Static;
  if (config.workload == "zoo-batched") run = RunZooBatched;
  if (config.workload == "daemon-stream") run = RunDaemonStream;
  if (run == nullptr) return Usage("unknown workload '" + config.workload + "'");
  config.seed = static_cast<uint64_t>(*seed);
  config.split_seed = static_cast<uint64_t>(*split);
  config.seconds = static_cast<double>(*seconds);
  config.trace = *trace == 1;
  config.tools_dir = args["tools-dir"];
  const std::string work_root = args["work-dir"];
  config.work_dir = work_root + "/run-" + config.workload + "-" +
                    std::to_string(getpid());

  ArmWatchdog(kDeadlineSeconds);
  std::error_code error;
  std::filesystem::remove_all(config.work_dir, error);
  std::filesystem::create_directories(config.work_dir, error);
  if (error) return Usage("cannot create " + config.work_dir);

  const std::map<std::string, std::string> env = {
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"split_seed", std::to_string(config.split_seed)},
      {"seconds", std::to_string(*seconds)},
      {"trace", std::to_string(*trace)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"sut_threads", SutThreads(config.workload)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
  };

  Tracer tracer(config.trace);
  Report report;
  run(config, &tracer, &report);
  if (config.trace) AddLayerMetrics(tracer, &report);

  // Every workload reports the same metric names.
  std::set<std::string> reported;
  for (const Metric& m : report.metrics()) {
    if (m.in_result) reported.insert(m.name);
  }
  if (config.trace) {
    for (const LayerMetric& m : LayerMetrics()) {
      report.Op(reported.count(m.name) == 1, std::string("reported ") + m.name);
    }
  } else {
    for (const char* name : kEndToEnd) {
      report.Op(reported.count(name) == 1, std::string("reported ") + name);
    }
  }

  std::string trace_path;
  if (config.trace) {
    const std::string dir = work_root + "/traces";
    std::filesystem::create_directories(dir, error);
    trace_path = dir + "/" + config.workload + "-seed" +
                 std::to_string(config.seed) + ".json";
    report.Op(tracer.WriteChromeTrace(trace_path, env),
              "write the Chrome trace " + trace_path);
  }
  std::filesystem::remove_all(config.work_dir, error);

  std::printf("perfbench");
  for (const auto& [key, value] : env) std::printf(" %s=%s", key.c_str(), value.c_str());
  std::printf("\n");
  if (config.trace) {
    std::printf("trace: %s (%zu spans, %zu jobs)\n", trace_path.c_str(),
                tracer.num_spans(), tracer.num_jobs());
  }
  report.PrintTable(stdout);
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

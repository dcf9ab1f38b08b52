// zoo-batched: all eight zoo datasets at scale 1.0, each ingested with ELSH
// and with MinHash as 8 batches through PgHive::ProcessBatch at one thread,
// then Finish, then rendered. The paper's incremental mode and quality
// figure on every schema shape (4 to 86 node types). Many small batches
// shift cost from data-plane throughput to fixed per-batch costs and
// Algorithm-2 merging; it is the only workload that runs MinHash; and it is
// serial on purpose, the baseline that parallel-machinery changes should
// leave unchanged.

#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/options.h"
#include "core/pghive.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/graph_io.h"
#include "probe.h"
#include "proc.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace core = pghive::core;
namespace datasets = pghive::datasets;
namespace pg = pghive::pg;

namespace {

constexpr double kScale = 1.0;
constexpr size_t kBatches = 8;
const char* const kMethods[] = {"elsh", "minhash"};

struct ZooInput {
  datasets::Dataset data;
  double text_bytes = 0;  ///< Size of the graph as graph text.
};

/// A deep copy with its own vocabulary (PropertyGraph's copy shares it), so
/// every ingest starts from the same untouched graph.
pg::PropertyGraph CloneGraph(const pg::PropertyGraph& graph) {
  pg::PropertyGraph copy(std::make_shared<pg::Vocabulary>(graph.vocab()));
  copy.mutable_nodes() = graph.nodes();
  copy.mutable_edges() = graph.edges();
  return copy;
}

core::PgHiveOptions IngestOptions(const char* method) {
  return *core::ParsePgHiveOptions(
      {{"threads", std::to_string(kZooThreads)}, {"method", method}});
}

}  // namespace

void RunZooBatched(const RunConfig& config, Tracer* tracer, Report* report) {
  std::vector<ZooInput> inputs;
  std::optional<std::vector<Rendering>> first;
  std::vector<double> output_ratio;
  Quality quality;

  /// Wall and CPU time of one job and of each of its batches.
  struct JobClock {
    double wall_ms = 0;
    double cpu_ms = 0;
    std::vector<double> batch_wall_ms, batch_cpu_ms;
  };

  // One pass over dataset x method. The graph copies are made outside the
  // timed region; a job's time is the sum of its 16 ingests, and a batch's
  // is its ProcessBatch call. The library runs in this process, so CPU time
  // is this process's.
  // Each ingest runs on the next CPU in turn, starting one further on in
  // every job, so a run samples every core of the shared host for every
  // ingest, not whichever core the process landed on.
  static const std::vector<int> cpus = AllowedCpus();
  size_t jobs_run = 0;
  auto pin_ingest = [&](size_t ingest, size_t job_index) {
    if (!cpus.empty()) PinToCpu(cpus[(ingest + job_index) % cpus.size()]);
  };

  auto run_job = [&](JobClock* clock) {
    const size_t job_index = jobs_run++;
    std::vector<Rendering> outputs;
    Quality job_quality;
    double out_bytes = 0;
    double in_bytes = 0;
    for (const ZooInput& input : inputs) {
      for (const char* method : kMethods) {
        pg::PropertyGraph graph = CloneGraph(input.data.graph);
        pin_ingest(outputs.size(), job_index);
        const Clock::time_point start = Clock::now();
        const double cpu_start = SelfCpuMs();
        auto hive = core::PgHive::Create(&graph, IngestOptions(method));
        if (!report->Op(hive.ok(), "create PgHive")) {
          Unpin(cpus);
          return false;
        }
        for (pg::GraphBatch& batch :
             pg::SplitIntoBatches(graph, kBatches, config.split_seed)) {
          const Clock::time_point batch_start = Clock::now();
          const double batch_cpu_start = SelfCpuMs();
          const bool ok = (*hive)->ProcessBatch(std::move(batch)).ok();
          clock->batch_wall_ms.push_back(MsSince(batch_start));
          clock->batch_cpu_ms.push_back(SelfCpuMs() - batch_cpu_start);
          report->Op(ok, input.data.spec.name + " ProcessBatch");
        }
        report->Op((*hive)->Finish().ok(), input.data.spec.name + " Finish");
        outputs.push_back(Render((*hive)->schema(), graph.vocab()));
        clock->wall_ms += MsSince(start);
        clock->cpu_ms += SelfCpuMs() - cpu_start;
        job_quality.Add((*hive)->schema(), input.data);
        out_bytes += static_cast<double>(outputs.back().pgs.size() +
                                         outputs.back().xsd.size());
        in_bytes += input.text_bytes;
      }
    }
    Unpin(cpus);
    if (!first) first = outputs;
    for (size_t i = 0; i < outputs.size(); ++i) {
      report->Op(outputs[i] == (*first)[i],
                 "rendering " + std::to_string(i) + " equals the first job's");
    }
    output_ratio.push_back(out_bytes / in_bytes);
    quality = job_quality;
    return true;
  };

  // The traced replay of the same pass, layer by layer.
  auto replay_job = [&] {
    const size_t job_index = jobs_run++;
    std::vector<pg::PropertyGraph> graphs;
    for (const ZooInput& input : inputs) {
      for (size_t m = 0; m < std::size(kMethods); ++m) {
        graphs.push_back(CloneGraph(input.data.graph));
      }
    }
    std::vector<Rendering> outputs;
    Tracer::Span job(tracer, "job");
    for (size_t d = 0; d < inputs.size(); ++d) {
      for (const char* method : kMethods) {
        pg::PropertyGraph& graph = graphs[outputs.size()];
        pin_ingest(outputs.size(), job_index);
        Tracer::Span ingest(tracer, "ingest");
        ReplayHive hive(&graph, IngestOptions(method), /*pool=*/nullptr, tracer);
        for (const pg::GraphBatch& batch :
             pg::SplitIntoBatches(graph, kBatches, config.split_seed)) {
          Tracer::Span span(tracer, "batch");
          hive.ProcessBatch(batch);
        }
        hive.Finish();
        {
          Tracer::Span span(tracer, "core.render");
          outputs.push_back(Render(hive.schema(), graph.vocab()));
        }
        tracer->Count("core.final_types",
                      static_cast<double>(hive.schema().num_node_types() +
                                          hive.schema().num_edge_types()));
      }
    }
    Unpin(cpus);
    for (size_t i = 0; i < outputs.size(); ++i) {
      report->Op(outputs[i] == (*first)[i],
                 "traced replay " + std::to_string(i) +
                     " renders the untraced job's bytes");
    }
  };

  Timings timings;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    HostSpeed speed;
    report->Op(speed.Probe(), "speed probe");
    const Clock::time_point start = Clock::now();
    const double cpu_start = SelfCpuMs();
    inputs.clear();
    for (const datasets::DatasetSpec& spec : datasets::Zoo()) {
      ZooInput input;
      input.data = datasets::Generate(spec, kScale, config.seed);
      input.text_bytes =
          static_cast<double>(pg::SaveGraphText(input.data.graph).size());
      inputs.push_back(std::move(input));
    }
    JobClock warm_up;
    if (!run_job(&warm_up)) return;
    const double wall_s = MsSince(start) / 1000.0;
    const double cpu_s = (SelfCpuMs() - cpu_start) / 1000.0;
    report->Op(speed.Probe(), "speed probe");
    timings.AddSetup(wall_s, cpu_s, speed.Scale(0));
  }
  output_ratio.clear();

  // The library runs inside the benchmark process here, so peak RSS is this
  // process's, from just before a job to its end.
  std::vector<double> peak_rss_mb;
  HostSpeed speed;
  report->Op(speed.Probe(), "speed probe");
  const Clock::time_point loop_start = Clock::now();
  for (size_t jobs = 0; KeepGoing(loop_start, config.seconds, jobs); ++jobs) {
    tracer->BeginJob(jobs + 1);
    JobClock clock;
    ResetPeakRss(getpid());
    if (config.trace) {
      replay_job();
    } else if (!run_job(&clock)) {
      break;
    }
    tracer->EndJob();
    auto peak = ReadVmHwmKib(getpid());
    if (report->Op(peak.ok(), "read the benchmark process's VmHWM")) {
      peak_rss_mb.push_back(static_cast<double>(*peak) / 1024.0);
    }
    report->Op(speed.Probe(), "speed probe");
    const double scale = speed.Scale(jobs);
    timings.AddJob(clock.wall_ms, clock.cpu_ms, scale);
    for (size_t i = 0; i < clock.batch_cpu_ms.size(); ++i) {
      timings.AddBatch(clock.batch_wall_ms[i], clock.batch_cpu_ms[i], scale);
    }
  }
  if (config.trace) return;

  timings.AddMetrics(speed.probe_ms(), report);
  report->Add("peak_rss_mb", Median(peak_rss_mb), "MB", peak_rss_mb.size());
  report->Add("write_amplification", Median(output_ratio), "ratio",
              output_ratio.size());
  report->Add("node_f1", quality.node_f1(), "fraction", 16);
  report->Add("edge_f1", quality.edge_f1(), "fraction", 16);
  report->Note("type_count_error", quality.type_count_error(), "fraction", 16);
}

}  // namespace perfbench

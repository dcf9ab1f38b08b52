// ldbc10-static: one job is one `pghive discover --graph F --threads 4
// --out P` child process on the LDBC spec at scale 10 (≈80k nodes, 250k
// edges, an ≈18 MB graph file): the paper's Fig. 5 quantity at realistic
// scale on one batch. File parsing, the data plane, the thread pool and
// post-processing do the work; the service layer does none.

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/pghive.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/graph_io.h"
#include "probe.h"
#include "proc.h"
#include "replay.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace core = pghive::core;
namespace datasets = pghive::datasets;
namespace pg = pghive::pg;

namespace {

constexpr double kScale = 10.0;

core::PgHiveOptions DiscoverOptions() {
  // Exactly what `pghive discover --threads 4` parses.
  return *core::ParsePgHiveOptions(
      {{"threads", std::to_string(kStaticThreads)}});
}

}  // namespace

void RunLdbc10Static(const RunConfig& config, Tracer* tracer, Report* report) {
  const std::string graph_path = config.work_dir + "/ldbc10.graph";
  const std::string out_prefix = config.work_dir + "/discover";
  const std::string pghive = config.tools_dir + "/pghive";

  datasets::Dataset truth;  // Spec and ground truth; the graph is dropped.
  double graph_bytes = 0;
  std::optional<Rendering> first;
  std::vector<double> rss_mb, write_amp;

  // One discover child; its outputs must equal the first job's. Returns how
  // the child ended, or nullopt when it or a check failed.
  auto discover = [&]() -> std::optional<ChildExit> {
    auto child = Child::Spawn({pghive, "discover", "--graph", graph_path,
                               "--threads", std::to_string(kStaticThreads),
                               "--out", out_prefix},
                              config.work_dir + "/discover.log");
    if (!report->Op(child.ok(), "spawn pghive discover: " +
                                    (child.ok() ? "" : child.status().ToString()))) {
      return std::nullopt;
    }
    ChildExit exit = child->Wait();
    if (!report->Op(exit.ok(), "pghive discover exits 0 (got " +
                                   std::to_string(exit.code) + ")")) {
      return std::nullopt;
    }
    auto pgs = ReadFile(out_prefix + ".pgs");
    auto xsd = ReadFile(out_prefix + ".xsd");
    if (!report->Op(pgs.ok() && xsd.ok(), "read discover .pgs and .xsd")) {
      return std::nullopt;
    }
    Rendering out{std::move(*pgs), std::move(*xsd)};
    if (!first) first = out;
    const bool same = report->Op(out.pgs == first->pgs,
                                 "discover .pgs equals the first job's") &&
                      report->Op(out.xsd == first->xsd,
                                 "discover .xsd equals the first job's");
    std::error_code error;
    std::filesystem::remove(out_prefix + ".pgs", error);
    std::filesystem::remove(out_prefix + ".xsd", error);
    if (!same) return std::nullopt;
    return exit;
  };

  Timings timings;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    HostSpeed speed;
    report->Op(speed.Probe(), "speed probe");
    const Clock::time_point start = Clock::now();
    const double cpu_start = SelfCpuMs();
    {
      datasets::Dataset data =
          datasets::Generate(datasets::LdbcSpec(), kScale, config.seed);
      auto saved = pg::SaveGraphFile(data.graph, graph_path);
      if (!report->Op(saved.ok(), "write the LDBC x10 graph file")) return;
      truth.spec = std::move(data.spec);
      truth.truth = std::move(data.truth);
    }
    std::error_code error;
    graph_bytes = static_cast<double>(std::filesystem::file_size(graph_path, error));
    if (!report->Op(!error, "size of the graph file")) return;
    std::optional<ChildExit> warm_up = discover();
    if (!warm_up) return;
    // The benchmark's CPU time (generation, the file) plus the child's.
    const double cpu_s = (SelfCpuMs() - cpu_start + warm_up->cpu_ms) / 1000.0;
    const double wall_s = MsSince(start) / 1000.0;
    report->Op(speed.Probe(), "speed probe");
    timings.AddSetup(wall_s, cpu_s, speed.Scale(0));
  }

  std::optional<pghive::util::ThreadPool> pool;
  if (config.trace) pool.emplace(kStaticThreads);
  HostSpeed speed;
  report->Op(speed.Probe(), "speed probe");
  const Clock::time_point loop_start = Clock::now();
  for (size_t jobs = 0; KeepGoing(loop_start, config.seconds, jobs); ++jobs) {
    tracer->BeginJob(jobs + 1);
    std::optional<ChildExit> exit;
    if (!config.trace) {
      exit = discover();
    } else {
      // The traced replay of one discover run, layer by layer.
      Rendering out;
      {
        Tracer::Span job(tracer, "job");
        pg::PropertyGraph graph;
        {
          Tracer::Span span(tracer, "pg.load");
          auto loaded = pg::LoadGraphFile(graph_path);
          if (!report->Op(loaded.ok(), "load the graph file")) break;
          graph = std::move(loaded).value();
        }
        ReplayHive hive(&graph, DiscoverOptions(), &*pool, tracer);
        hive.ProcessBatch(pg::FullBatch(graph));
        hive.Finish();
        {
          Tracer::Span span(tracer, "core.render");
          out = Render(hive.schema(), graph.vocab());
        }
        tracer->Count("core.final_types",
                      static_cast<double>(hive.schema().num_node_types() +
                                          hive.schema().num_edge_types()));
      }
      report->Op(out == *first, "traced replay renders the discover bytes");
    }
    tracer->EndJob();
    report->Op(speed.Probe(), "speed probe");
    if (!exit) continue;
    // A job hands the whole graph over as one batch, so a batch is a job.
    timings.AddJob(exit->wall_ms, exit->cpu_ms, speed.Scale(jobs));
    timings.AddBatch(exit->wall_ms, exit->cpu_ms, speed.Scale(jobs));
    report->Op(exit->io_ok, "read /proc/<discover>/io");
    rss_mb.push_back(static_cast<double>(exit->maxrss_kib) / 1024.0);
    write_amp.push_back(static_cast<double>(exit->io.wchar) / graph_bytes);
  }

  // The in-process reference: PgHive::Run on the same file and options.
  Quality quality;
  {
    auto loaded = pg::LoadGraphFile(graph_path);
    if (!report->Op(loaded.ok(), "load the graph file")) return;
    pg::PropertyGraph graph = std::move(loaded).value();
    auto hive = core::PgHive::Create(&graph, DiscoverOptions());
    if (!report->Op(hive.ok(), "create the reference PgHive")) return;
    if (!report->Op((*hive)->Run().ok(), "reference PgHive::Run")) return;
    report->Op(Render((*hive)->schema(), graph.vocab()) == *first,
               "discover output equals the in-process PgHive::Run rendering");
    quality.Add((*hive)->schema(), truth);
  }
  if (config.trace) return;

  timings.AddMetrics(speed.probe_ms(), report);
  report->Add("peak_rss_mb", Median(rss_mb), "MB", rss_mb.size());
  report->Add("write_amplification", Median(write_amp), "ratio",
              write_amp.size());
  report->Add("node_f1", quality.node_f1(), "fraction", 1);
  report->Add("edge_f1", quality.edge_f1(), "fraction", 1);
  report->Note("type_count_error", quality.type_count_error(), "fraction", 1);
}

}  // namespace perfbench

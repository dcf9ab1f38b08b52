// daemon-stream: one pghived child (--threads 4 --checkpoint-dir D
// --checkpoint-every 1) and one closed-loop client on two connections. A job
// pings both connections, creates a session, streams LDBC at scale 1.0 as
// the 32 service::BuildIngestPayloads payloads — for each batch: send it,
// wait on subscribe-changefeed until its version arrives, read
// `get-schema pgs snapshot` — then fetches the final schema as pgs, xsd and
// binary, reads the changefeed from version 0 and closes the session. Each
// job streams its own LDBC graph (generator seed derived from --seed and the
// job number, made before the job starts), so the quality metrics average
// over every graph of the run instead of hanging on one small graph.
// Here the service layer does most of the work (wire, assembler, lane, five
// renderings per publish, feed append, an O(graph) checkpoint per batch)
// while discovery per batch is small; it is the only workload with reads
// beside writes and with durable writes. The loop is closed so that a faster
// wire cannot turn into queueing that reads as slower batches. The daemon is
// seen only through its wire protocol, /proc and its CPU-time clock.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/pghive.h"
#include "core/schema_diff.h"
#include "core/serialize.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/batch.h"
#include "pg/graph_io.h"
#include "probe.h"
#include "proc.h"
#include "replay.h"
#include "service/assembler.h"
#include "service/client.h"
#include "service/job_queue.h"
#include "service/session.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace core = pghive::core;
namespace datasets = pghive::datasets;
namespace pg = pghive::pg;
namespace service = pghive::service;

namespace {

constexpr double kScale = 1.0;
constexpr size_t kBatches = 32;
constexpr uint64_t kFeedTimeoutMs = 20000;
constexpr double kPortWaitMs = 10000;

/// One set-up repetition: a pghived child and the client's two connections
/// (`control` for requests, `feed` for changefeed long-polls).
struct Rig {
  std::optional<Child> daemon;
  std::optional<service::PghivedClient> control;
  std::optional<service::PghivedClient> feed;
};

/// The final schema a stream hands back.
struct StreamOutput {
  std::string pgs;
  std::string xsd;
  std::string binary;
};

bool StartRig(const RunConfig& config, int rep, const std::string& pghived,
              Rig* rig, Report* report) {
  const std::string dir = config.work_dir + "/daemon" + std::to_string(rep);
  const std::string port_file = dir + "/port";
  std::error_code error;
  std::filesystem::create_directories(dir + "/checkpoints", error);
  if (!report->Op(!error, "create " + dir + "/checkpoints")) return false;
  auto child = Child::Spawn(
      {pghived, "--port", "0", "--port-file", port_file, "--threads",
       std::to_string(kDaemonThreads), "--checkpoint-dir", dir + "/checkpoints",
       "--checkpoint-every", "1"},
      dir + "/pghived.log");
  if (!report->Op(child.ok(), "spawn pghived")) return false;
  rig->daemon.emplace(std::move(child).value());
  // The daemon writes "<port>\n" once it listens.
  long port = -1;
  const Clock::time_point start = Clock::now();
  while (port < 0 && MsSince(start) < kPortWaitMs) {
    auto text = ReadFile(port_file);
    if (text.ok() && !text->empty() && text->back() == '\n') {
      port = std::strtol(text->c_str(), nullptr, 10);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (!report->Op(port > 0 && port < 65536, "pghived publishes its port")) {
    return false;
  }
  auto control = service::PghivedClient::Connect(static_cast<uint16_t>(port));
  auto feed = service::PghivedClient::Connect(static_cast<uint16_t>(port));
  if (!report->Op(control.ok() && feed.ok(), "connect twice to pghived")) {
    return false;
  }
  rig->control.emplace(std::move(control).value());
  rig->feed.emplace(std::move(feed).value());
  return true;
}

/// Closes both connections and drains the daemon with SIGTERM.
void StopRig(Rig* rig, Report* report) {
  rig->control.reset();
  rig->feed.reset();
  if (!rig->daemon) return;
  rig->daemon->Signal(SIGTERM);
  ChildExit exit = rig->daemon->Wait();
  report->Op(exit.ok(), "pghived exits 0 after SIGTERM (got " +
                            std::to_string(exit.code) + ")");
  rig->daemon.reset();
}

/// One stream's input: LDBC at scale 1.0 as the CLI would load it, its
/// ground truth, and the 32 ingest payloads.
struct StreamInput {
  datasets::Dataset data;
  pg::PropertyGraph graph;
  std::vector<std::string> payloads;
  double payload_bytes = 0;
};

/// Generator seed of the graph streamed by job `job` (0 for set-up).
uint64_t GraphSeed(uint64_t seed, uint64_t job) {
  return seed ^ (job * 0x9E3779B97F4A7C15ULL);
}

StreamInput MakeInput(uint64_t graph_seed, uint64_t split_seed) {
  StreamInput input;
  input.data = datasets::Generate(datasets::LdbcSpec(), kScale, graph_seed);
  input.graph = *pg::LoadGraphText(pg::SaveGraphText(input.data.graph));
  input.payloads = service::BuildIngestPayloads(input.graph, kBatches, split_seed);
  for (const std::string& p : input.payloads) {
    input.payload_bytes += static_cast<double>(p.size());
  }
  return input;
}

/// The daemon's documented contract: its final schema is the in-process
/// 32-batch ProcessBatch schema of the same graph and split.
std::optional<Rendering> Reference(StreamInput* input, uint64_t split_seed,
                                   Report* report) {
  auto hive = core::PgHive::Create(&input->graph, *core::ParsePgHiveOptions({}));
  if (!report->Op(hive.ok(), "create the reference PgHive")) return std::nullopt;
  for (pg::GraphBatch& batch :
       pg::SplitIntoBatches(input->graph, kBatches, split_seed)) {
    if (!report->Op((*hive)->ProcessBatch(std::move(batch)).ok(),
                    "reference ProcessBatch")) {
      return std::nullopt;
    }
  }
  if (!report->Op((*hive)->Finish().ok(), "reference Finish")) return std::nullopt;
  return Render((*hive)->schema(), input->graph.vocab());
}

/// What one stream measured of pghived: wall and CPU time of the stream and
/// of each batch, bytes written and peak RSS.
struct StreamClock {
  double wall_ms = 0;
  double cpu_ms = 0;
  std::vector<double> batch_wall_ms, batch_cpu_ms;
  double write_amplification = 0;
  double peak_rss_mb = 0;
};

/// One job: the closed-loop stream. Returns the final schema, or nullopt
/// when the stream could not complete.
std::optional<StreamOutput> RunStream(Rig* rig, const StreamInput& input,
                                      Tracer* tracer, Report* report,
                                      StreamClock* clock) {
  const std::vector<std::string>& payloads = input.payloads;
  service::PghivedClient& control = *rig->control;
  service::PghivedClient& feed = *rig->feed;
  const pid_t pid = rig->daemon->pid();
  ResetPeakRss(pid);
  auto io_before = ReadProcIo(pid);
  auto cpu_before = CpuMs(pid);
  std::vector<double> batch_ms, batch_cpu_ms;
  StreamOutput out;
  const Clock::time_point job_start = Clock::now();
  {
    Tracer::Span job(tracer, "job");
    for (service::PghivedClient* client : {&control, &feed}) {
      Tracer::Span span(tracer, "service.ping");
      if (!report->Op(client->Ping().ok(), "ping")) return std::nullopt;
    }
    pghive::util::StatusOr<std::string> session = std::string();
    {
      Tracer::Span span(tracer, "service.create");
      session = control.CreateSession({});
    }
    if (!report->Op(session.ok(), "create-session")) return std::nullopt;
    const std::string& id = *session;
    // pghived's CPU time from one version becoming visible to the next:
    // the previous checkpoint, then the ingest, discovery and publish.
    auto cpu_mark = CpuMs(pid);
    for (size_t i = 1; i <= payloads.size(); ++i) {
      Tracer::Span batch(tracer, "service.batch");
      const Clock::time_point sent = Clock::now();
      pghive::util::StatusOr<uint64_t> seq = uint64_t{0};
      {
        Tracer::Span span(tracer, "service.ingest");
        seq = control.IngestBatch(id, payloads[i - 1]);
      }
      const double ack_ms = MsSince(sent);
      if (!report->Op(seq.ok() && *seq == i, "ingest-batch " + std::to_string(i))) {
        return std::nullopt;
      }
      pghive::util::StatusOr<std::string> records = std::string();
      {
        Tracer::Span span(tracer, "service.subscribe");
        records = feed.SubscribeChangefeed(id, i - 1, kFeedTimeoutMs);
      }
      const double visible_ms = MsSince(sent);
      bool arrived = false;
      if (records.ok()) {
        auto diffs = core::ParseSchemaDiffStream(*records);
        arrived = diffs.ok() && !diffs->empty() &&
                  diffs->front().version_to == i;
      }
      if (!report->Op(arrived, "version " + std::to_string(i) +
                                   " arrives on subscribe-changefeed")) {
        return std::nullopt;
      }
      batch_ms.push_back(visible_ms);
      auto cpu_now = CpuMs(pid);
      if (!report->Op(cpu_mark.ok() && cpu_now.ok(), "read pghived's CPU clock")) {
        return std::nullopt;
      }
      batch_cpu_ms.push_back(*cpu_now - *cpu_mark);
      cpu_mark = cpu_now;
      tracer->Sample("service.lane_ms", visible_ms - ack_ms);
      pghive::util::StatusOr<std::string> snapshot = std::string();
      {
        Tracer::Span span(tracer, "service.read");
        snapshot = control.GetSchema(id, "pgs", /*snapshot=*/true);
      }
      report->Op(snapshot.ok() && !snapshot->empty(),
                 "get-schema pgs snapshot after batch " + std::to_string(i));
    }
    pghive::util::StatusOr<std::string> pgs = std::string();
    {
      // Finish, the last publish and the last checkpoint.
      Tracer::Span span(tracer, "service.finish");
      pgs = control.GetSchema(id, "pgs");
    }
    pghive::util::StatusOr<std::string> xsd = std::string();
    pghive::util::StatusOr<std::string> binary = std::string();
    {
      Tracer::Span span(tracer, "service.read_final");
      xsd = control.GetSchema(id, "xsd");
      binary = control.GetSchema(id, "binary");
    }
    if (!report->Op(pgs.ok() && xsd.ok() && binary.ok(),
                    "get-schema pgs, xsd and binary")) {
      return std::nullopt;
    }
    out = {std::move(*pgs), std::move(*xsd), std::move(*binary)};
    pghive::util::StatusOr<std::string> history = std::string();
    {
      Tracer::Span span(tracer, "service.feed_read");
      history = feed.SubscribeChangefeed(id, 0, kFeedTimeoutMs);
    }
    bool contiguous = false;
    if (history.ok()) {
      auto diffs = core::ParseSchemaDiffStream(*history);
      contiguous = diffs.ok() && diffs->size() == payloads.size() + 1;
      for (size_t v = 0; contiguous && v < diffs->size(); ++v) {
        contiguous = (*diffs)[v].version_to == v + 1;
      }
    }
    report->Op(contiguous, "changefeed from 0 parses to versions 1.." +
                               std::to_string(payloads.size() + 1));
    {
      Tracer::Span span(tracer, "service.close");
      report->Op(control.CloseSession(id).ok(), "close");
    }
  }
  const double job_ms = MsSince(job_start);
  auto cpu_after = CpuMs(pid);
  auto io_after = ReadProcIo(pid);
  auto peak = ReadVmHwmKib(pid);
  if (!report->Op(io_before.ok() && io_after.ok(), "read /proc/<pghived>/io") ||
      !report->Op(cpu_before.ok() && cpu_after.ok(),
                  "read pghived's CPU clock") ||
      !report->Op(peak.ok(), "read pghived's VmHWM")) {
    return std::nullopt;
  }
  const double written =
      static_cast<double>(io_after->wchar - io_before->wchar);
  tracer->Count("service.write_bytes", written);
  tracer->Count("service.write_calls",
                static_cast<double>(io_after->syscw - io_before->syscw));
  clock->wall_ms = job_ms;
  clock->cpu_ms = *cpu_after - *cpu_before;
  clock->batch_wall_ms = std::move(batch_ms);
  clock->batch_cpu_ms = std::move(batch_cpu_ms);
  clock->write_amplification = written / input.payload_bytes;
  clock->peak_rss_mb = static_cast<double>(*peak) / 1024.0;
  return out;
}

/// The lane job replayed in process on the same payloads: assemble, the
/// traced PgHive replay, the five renderings and the diff of every publish,
/// and a session checkpoint after each batch and after Finish (built by an
/// in-process service::Session fed the same payloads; its SaveState gives
/// the bytes pghived writes). Returns the final PG-Schema and XSD.
std::optional<Rendering> ReplayLane(const std::vector<std::string>& payloads,
                                    const std::string& checkpoint_path,
                                    pghive::util::ThreadPool* pool,
                                    service::JobQueue* queue, uint64_t job,
                                    Tracer* tracer, Report* report) {
  Tracer::Span replay(tracer, "replay");
  const core::PgHiveOptions options = *core::ParsePgHiveOptions({});
  pg::PropertyGraph graph;
  service::GraphAssembler assembler(&graph);
  ReplayHive hive(&graph, options, pool, tracer);
  auto session = service::Session::Create("replay" + std::to_string(job), {},
                                          pool, queue);
  if (!report->Op(session.ok(), "create the in-process session")) {
    return std::nullopt;
  }
  core::SchemaGraph previous;
  uint64_t version = 0;
  double checkpoint_ms = 0;
  double checkpoint_bytes = 0;
  auto publish = [&] {
    const core::SchemaGraph& schema = hive.schema();
    {
      Tracer::Span span(tracer, "core.render");
      core::SerializePgSchema(schema, graph.vocab(), core::SchemaMode::kStrict);
      core::SerializePgSchema(schema, graph.vocab(), core::SchemaMode::kLoose);
      core::SerializeXsd(schema, graph.vocab());
      core::DescribeSchema(schema, graph.vocab());
      core::SerializeSchemaBinary(schema);
    }
    Tracer::Span span(tracer, "core.diff");
    core::SchemaDiff diff = core::DiffSchemas(previous, schema, graph.vocab());
    previous = schema;
    diff.version_from = version;
    diff.version_to = ++version;
    core::SerializeSchemaDiffBinary(diff);
  };
  auto checkpoint = [&] {
    const Clock::time_point start = Clock::now();
    Tracer::Span span(tracer, "service.checkpoint");
    auto bytes = (*session)->SaveState();
    if (!report->Op(bytes.ok(), "in-process Session::SaveState")) return;
    {
      std::ofstream file(checkpoint_path + ".tmp",
                         std::ios::binary | std::ios::trunc);
      file.write(bytes->data(), static_cast<std::streamsize>(bytes->size()));
      report->Op(static_cast<bool>(file), "write the replay checkpoint");
    }
    std::error_code error;
    std::filesystem::rename(checkpoint_path + ".tmp", checkpoint_path, error);
    report->Op(!error, "rename the replay checkpoint into place");
    checkpoint_ms += MsSince(start);
    checkpoint_bytes += static_cast<double>(bytes->size());
  };
  for (const std::string& payload : payloads) {
    pg::GraphBatch batch;
    {
      Tracer::Span span(tracer, "service.assemble");
      if (!report->Op(assembler.ApplyPayload(payload, &batch).ok(),
                      "assemble a payload")) {
        return std::nullopt;
      }
    }
    hive.ProcessBatch(batch);
    publish();
    report->Op((*session)->SubmitIngest(payload).ok(),
               "in-process Session::SubmitIngest");
    (*session)->Drain();
    checkpoint();
  }
  if (!report->Op(assembler.CheckComplete().ok(), "assembled graph complete")) {
    return std::nullopt;
  }
  hive.Finish();
  publish();
  report->Op((*session)->FinalSnapshot().ok(), "in-process session finishes");
  checkpoint();
  std::error_code error;
  std::filesystem::remove(checkpoint_path, error);
  const double checkpoints = static_cast<double>(version);
  tracer->Count("service.checkpoint_ms", checkpoint_ms / checkpoints);
  tracer->Count("service.checkpoint_bytes", checkpoint_bytes / checkpoints);
  tracer->Count("core.final_types",
                static_cast<double>(hive.schema().num_node_types() +
                                    hive.schema().num_edge_types()));
  return Render(hive.schema(), graph.vocab());
}

}  // namespace

void RunDaemonStream(const RunConfig& config, Tracer* tracer, Report* report) {
  const std::string pghived = config.tools_dir + "/pghived";
  Rig rig;
  Quality quality;
  std::optional<Rendering> warm_up_reference;

  // Checks a stream's final schema against the in-process reference of the
  // same graph, computing the reference on first use.
  auto check = [&](StreamInput* input, const StreamOutput& out,
                   std::optional<Rendering>* reference) {
    if (!*reference) *reference = Reference(input, config.split_seed, report);
    report->Op(*reference && (*reference)->pgs == out.pgs &&
                   (*reference)->xsd == out.xsd,
               "daemon output equals the in-process 32-batch reference");
  };

  Timings timings;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    StopRig(&rig, report);
    HostSpeed speed;
    report->Op(speed.Probe(), "speed probe");
    const Clock::time_point start = Clock::now();
    const double cpu_start = SelfCpuMs();
    if (!StartRig(config, rep, pghived, &rig, report)) return;
    StreamInput input = MakeInput(GraphSeed(config.seed, 0), config.split_seed);
    StreamClock warm_up;
    std::optional<StreamOutput> out =
        RunStream(&rig, input, tracer, report, &warm_up);
    // The benchmark's CPU time plus all of this fresh daemon's.
    auto daemon_cpu = CpuMs(rig.daemon->pid());
    const double wall_s = MsSince(start) / 1000.0;
    if (!out || !report->Op(daemon_cpu.ok(), "read pghived's CPU clock")) {
      StopRig(&rig, report);
      return;
    }
    const double cpu_s = (SelfCpuMs() - cpu_start + *daemon_cpu) / 1000.0;
    report->Op(speed.Probe(), "speed probe");
    timings.AddSetup(wall_s, cpu_s, speed.Scale(0));
    check(&input, *out, &warm_up_reference);
  }

  std::optional<pghive::util::ThreadPool> pool;
  std::optional<service::JobQueue> queue;
  if (config.trace) {
    pool.emplace(kDaemonThreads);
    queue.emplace(&*pool);
  }
  std::vector<double> write_amplification, peak_rss_mb;
  HostSpeed speed;
  report->Op(speed.Probe(), "speed probe");
  const Clock::time_point loop_start = Clock::now();
  for (size_t jobs = 0; KeepGoing(loop_start, config.seconds, jobs); ++jobs) {
    // Every job streams its own graph (made before the job starts), so the
    // quality metrics average over several graphs of the run's seed.
    StreamInput input = MakeInput(GraphSeed(config.seed, jobs + 1),
                                  config.split_seed);
    tracer->BeginJob(jobs + 1);
    StreamClock clock;
    std::optional<StreamOutput> out =
        RunStream(&rig, input, tracer, report, &clock);
    report->Op(speed.Probe(), "speed probe");
    if (out) {
      const double scale = speed.Scale(jobs);
      timings.AddJob(clock.wall_ms, clock.cpu_ms, scale);
      for (size_t i = 0; i < clock.batch_cpu_ms.size(); ++i) {
        timings.AddBatch(clock.batch_wall_ms[i], clock.batch_cpu_ms[i], scale);
      }
      write_amplification.push_back(clock.write_amplification);
      peak_rss_mb.push_back(clock.peak_rss_mb);
      std::optional<Rendering> reference;
      check(&input, *out, &reference);
      auto streamed = core::ParseSchemaBinary(out->binary);
      if (report->Op(streamed.ok(), "parse the binary schema")) {
        quality.Add(*streamed, input.data);
      }
    }
    if (config.trace && out) {
      std::optional<Rendering> lane =
          ReplayLane(input.payloads, config.work_dir + "/replay.pghd", &*pool,
                     &*queue, jobs + 1, tracer, report);
      report->Op(lane && lane->pgs == out->pgs && lane->xsd == out->xsd,
                 "lane replay renders the daemon's pgs and xsd");
    }
    tracer->EndJob();
    if (!out) break;
  }
  StopRig(&rig, report);
  if (config.trace) return;

  const size_t graphs = peak_rss_mb.size();
  timings.AddMetrics(speed.probe_ms(), report);
  // pghived's resident set grows over its first few streams, as its
  // allocator's per-thread arenas fill, and then holds; the second half of
  // the run's streams measure the level it holds.
  const std::vector<double> held(peak_rss_mb.begin() + graphs / 2,
                                 peak_rss_mb.end());
  report->Add("peak_rss_mb", Median(held), "MB", held.size());
  report->Add("write_amplification", Median(write_amplification), "ratio",
              graphs);
  report->Add("node_f1", quality.node_f1(), "fraction", graphs);
  report->Add("edge_f1", quality.edge_f1(), "fraction", graphs);
  report->Note("peak_rss_run_mb",
               peak_rss_mb.empty()
                   ? 0
                   : *std::max_element(peak_rss_mb.begin(), peak_rss_mb.end()),
               "MB", graphs);
  report->Note("type_count_error", quality.type_count_error(), "fraction",
               graphs);
}

}  // namespace perfbench

// pghive — command-line front end for the PG-HIVE library.
//
// Subcommands:
//   discover  --graph FILE [--method elsh|minhash] [--batches N]
//             [--out PREFIX] [--loose] [--sample-datatypes] [--threads N]
//             [--seed N]
//       --threads 0 (default) uses every hardware thread; --threads 1 runs
//       serially. With more than one thread, multi-batch ingest also
//       overlaps batch i+1's preprocess with batch i's cluster/extract; the
//       discovered schema is identical at every thread count.
//       Discovers the schema of a graph file (pg::SaveGraphFile format) and
//       prints it; with --out also writes PREFIX.pgs and PREFIX.xsd.
//       Durability: --checkpoint-to FILE snapshots the full discovery state
//       (PgHive::SaveState) every --checkpoint-every K batches (default 1;
//       the flag needs --checkpoint-to) and after Finish; --resume-from FILE
//       restores such a snapshot and continues with the remaining batches of
//       the same split — the final schema is byte-identical to the
//       uninterrupted run. It exits 1, naming the type and the id, if the
//       snapshot holds an instance id the --graph file lacks (a snapshot of
//       another graph). A pghived session checkpoint (DIR/<id>.pghd) is
//       the same snapshot and resumes here too. After a resume, "discovery
//       took" counts only the batches this process merged. --changefeed FILE
//       writes one binary SchemaDiff record per merged batch (plus one for
//       post-processing); `pghive changefeed --feed FILE` prints it. A
//       resume cuts FILE back to the snapshot's versions first, as a
//       restored pghived session does, and exits 1 if FILE holds fewer
//       versions than the snapshot (a missing FILE holds none). Both files
//       go through the session's writers, so they survive a process kill
//       (not a power loss: nothing calls fsync), and a failed write exits 1
//       naming the file.
//   changefeed --feed FILE
//       Renders a --changefeed file as human-readable schema deltas.
//   import    --nodes FILE[,FILE...] --edges FILE[,FILE...] --out GRAPH
//       Imports neo4j-admin style CSVs into a graph file.
//   generate  --dataset NAME [--scale S] [--seed N] --out GRAPH
//       Generates one of the paper's synthetic datasets (POLE, MB6, HET.IO,
//       FIB25, ICIJ, CORD19, LDBC, IYP); S (default 1.0) must be a finite
//       number > 0.
//   validate  --graph FILE --schema FILE.pgs [--strict]
//       Validates a graph against a PG-Schema file.
//   client    --graph FILE (--port N | --port-file FILE) [--batches N]
//             [--out PREFIX] [--loose] [--stop-after K] [--session ID]
//             [--changefeed-out FILE] [discover knobs]
//       Streams a graph file into a running pghived daemon batch by batch
//       and fetches the discovered schema over the wire; with --out also
//       writes PREFIX.pgs and PREFIX.xsd. Discovery knobs (--method,
//       --threads, ...) are forwarded to create-session. The result is
//       byte-identical to a local `discover --batches N` run with the same
//       knobs (pinned by the service e2e tests and the CI smoke step).
//       --stop-after K streams only the first K batches and leaves the
//       session open. --session ID resumes an EXISTING session instead of
//       creating one (one the daemon restored from its --checkpoint-dir
//       after a SIGTERM or a crash): the client asks session-info for the
//       batch count and streams the rest.
//       --changefeed-out FILE writes the session's full changefeed (from
//       version 1, served from the daemon's feed segments when older than
//       the in-memory backlog) as raw binary records.
//   drift     (--feed FILE | (--port N | --port-file FILE) --session ID)
//             [--from V] [--timeout-ms T] [--fail-on-alert]
//       Scans a changefeed — a segment/--changefeed file or a live pghived
//       session — and flags schema drift: property retypes and cardinality
//       flips (non-widening transitions, which insertion alone never
//       makes). --fail-on-alert exits 1 when anything was flagged.
//
// Each subcommand accepts only the flags it reads, each at most once: an
// unknown flag (a typo, or a knob the subcommand would ignore), a repeated
// flag or a stray positional argument exits 1 with a message naming it.
//
// Exit code 0 on success (and, for validate, on conformance), 1 otherwise.

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/batch_pipeline.h"
#include "core/options.h"
#include "core/pghive.h"
#include "core/pgschema_parser.h"
#include "core/schema_diff.h"
#include "core/serialize.h"
#include "core/validator.h"
#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/csv_import.h"
#include "pg/graph_io.h"
#include "pg/value.h"
#include "service/client.h"
#include "util/file_io.h"
#include "util/parse.h"

namespace {

using namespace pghive;

using util::Args;

/// The discovery knobs `discover` and `client` forward to
/// core::ApplyOptionFlags, besides the --sample-datatypes switch.
constexpr const char* kKnobFlags[] = {"method", "threads", "seed"};

/// Flags that take no value (--key=V is refused: callers only test Has, so
/// a value would be ignored); every other flag needs one (--key V or
/// --key=V).
const std::set<std::string> kSwitches = {"loose", "strict", "sample-datatypes",
                                         "fail-on-alert"};

/// One subcommand and the flags it reads.
struct Command {
  const char* name;
  int (*run)(const Args&);
  std::set<std::string> flags;
};

std::vector<std::string> SplitComma(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "pghive: %s\n", message.c_str());
  return 1;
}

/// Collects the discovery knobs the shared core parser understands from the
/// command line. Validation (ranges, enum values) lives in one place —
/// core::ApplyOptionFlags + PgHiveOptions::Validate — shared with pghived's
/// create-session path, so CLI and daemon reject exactly the same inputs.
std::map<std::string, std::string> DiscoveryKnobs(const Args& args) {
  std::map<std::string, std::string> knobs;
  for (const char* key : kKnobFlags) {
    if (args.Has(key)) knobs[key] = args.Get(key);
  }
  if (args.Has("sample-datatypes")) knobs["sample-datatypes"] = "true";
  return knobs;
}

/// Writes PREFIX.pgs and PREFIX.xsd (discover and client --out). Every
/// whole-file output goes through util::AtomicWriteFile, which checks the
/// flush on close and names the path it could not write.
util::Status WriteSchemaFiles(const std::string& prefix, const std::string& pgs,
                              const std::string& xsd) {
  util::Status status = util::AtomicWriteFile(prefix + ".pgs", pgs);
  if (status.ok()) status = util::AtomicWriteFile(prefix + ".xsd", xsd);
  if (status.ok()) {
    std::printf("wrote %s.pgs and %s.xsd\n", prefix.c_str(), prefix.c_str());
  }
  return status;
}

int CmdDiscover(const Args& args) {
  if (!args.Has("graph")) return Fail("discover needs --graph FILE");
  auto loaded = pg::LoadGraphFile(args.Get("graph"));
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  pg::PropertyGraph graph = std::move(loaded).value();
  std::printf("loaded %zu nodes, %zu edges\n", graph.num_nodes(),
              graph.num_edges());

  auto options = core::ParsePgHiveOptions(DiscoveryKnobs(args));
  if (!options.ok()) return Fail(options.status().ToString());
  auto num_batches = util::ParseInt64InRange(args.Get("batches", "1"), 1,
                                             1000000, "--batches");
  if (!num_batches.ok()) return Fail(num_batches.status().ToString());
  const std::string checkpoint_to = args.Get("checkpoint-to");
  if (args.Has("checkpoint-every") && checkpoint_to.empty()) {
    return Fail("--checkpoint-every requires --checkpoint-to");
  }
  auto checkpoint_every = util::ParseInt64InRange(
      args.Get("checkpoint-every", "1"), 1, 1000000, "--checkpoint-every");
  if (!checkpoint_every.ok()) return Fail(checkpoint_every.status().ToString());
  const std::string changefeed_path = args.Get("changefeed");
  auto stop_after = util::ParseInt64InRange(args.Get("stop-after", "0"), 0,
                                            1000000, "--stop-after");
  if (!stop_after.ok()) return Fail(stop_after.status().ToString());
  if (*stop_after > 0 && checkpoint_to.empty()) {
    return Fail("--stop-after needs --checkpoint-to (the point is to leave "
                "a resumable snapshot behind)");
  }
  auto created = core::PgHive::Create(&graph, *options);
  if (!created.ok()) return Fail(created.status().ToString());
  core::PgHive& pipeline = **created;

  // Resume: the graph file reload above re-interned every label and key at
  // its original id, so the snapshot's vocabulary is position-consistent
  // and RestoreState reconstructs the mid-stream state exactly.
  const bool resuming = args.Has("resume-from");
  uint64_t restored = 0;
  if (resuming) {
    auto bytes = util::ReadWholeFile(args.Get("resume-from"));
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    auto r = pipeline.RestoreState(*bytes);
    if (!r.ok()) return Fail(r.status().ToString());
    util::Status instances = pipeline.CheckRestoredInstances();
    if (!instances.ok()) return Fail(instances.ToString());
    restored = *r;
    std::printf("resumed from %s: %llu batches already merged\n",
                args.Get("resume-from").c_str(),
                static_cast<unsigned long long>(restored));
  }
  std::vector<pg::GraphBatch> batches = pg::SplitIntoBatches(
      graph, static_cast<size_t>(*num_batches), /*seed=*/1);
  if (restored > batches.size()) {
    return Fail("snapshot has " + std::to_string(restored) +
                " batches merged but --batches is only " +
                std::to_string(batches.size()) +
                "; resume with the original --batches");
  }

  // One feed record per published version: one per merged batch, one for
  // Finish. A fresh run starts the feed empty; a resume cuts it back to the
  // snapshot's versions, as a restored pghived session does, and refuses a
  // feed that holds fewer: appending to it would leave a hole in the
  // version sequence.
  const bool has_feed = !changefeed_path.empty();
  uint64_t version =
      restored + (pipeline.phase() == core::PgHive::Phase::kFinished ? 1 : 0);
  util::AppendOnlyFile feed(changefeed_path, /*truncate=*/!resuming);
  if (has_feed) {
    if (resuming) {
      util::Status cut = core::TruncateFeedFile(changefeed_path, version);
      if (!cut.ok()) return Fail(cut.ToString());
    }
    util::Status ready = feed.Open();
    if (!ready.ok()) return Fail(ready.ToString());
  }
  size_t done = static_cast<size_t>(restored);
  // Runs a step that publishes a version (merging batches up to `done`, or
  // Finish), then appends its record: the schema against the one before.
  auto publish = [&](const auto& step) {
    core::SchemaGraph prev;
    if (has_feed) prev = pipeline.schema();
    util::Status status = step();
    if (!status.ok() || !has_feed) return status;
    return feed.Append(core::BuildChangefeedRecord(
        prev, pipeline.schema(), graph.vocab(), ++version, done));
  };
  // Tmp + rename: a crash mid-checkpoint keeps the previous one.
  auto checkpoint = [&] {
    auto bytes = pipeline.SaveState();
    if (!bytes.ok()) return bytes.status();
    return util::AtomicWriteFile(checkpoint_to, *bytes);
  };

  // Checkpoints and feed records are only valid at pipeline barriers, so the
  // run goes chunk by chunk: full pipelining within a chunk, a snapshot or
  // record at each chunk boundary. The changefeed forces chunk size 1 (each
  // merge is one published schema version, and the diff reads the
  // vocabulary, which an overlapped preprocess would be advancing). A run
  // with neither is one chunk.
  size_t chunk = batches.size();
  if (has_feed) {
    chunk = 1;
  } else if (!checkpoint_to.empty()) {
    chunk = static_cast<size_t>(*checkpoint_every);
  }
  double wall_ms = 0;
  // --stop-after simulates an interrupted run deterministically: process
  // that many batches, checkpoint, and exit without finishing.
  const size_t limit =
      *stop_after > 0
          ? std::min(batches.size(), static_cast<size_t>(*stop_after))
          : batches.size();
  while (done < limit) {
    size_t end = std::min(limit, done + chunk);
    std::vector<pg::GraphBatch> slice(
        std::make_move_iterator(batches.begin() + done),
        std::make_move_iterator(batches.begin() + end));
    done = end;
    core::BatchPipeline executor(&pipeline);
    util::Status status = publish([&] { return executor.Run(slice); });
    wall_ms += executor.wall_ms();
    if (status.ok() && !checkpoint_to.empty() &&
        (done % static_cast<size_t>(*checkpoint_every) == 0 ||
         done == limit)) {
      status = checkpoint();
    }
    if (!status.ok()) return Fail(status.ToString());
  }
  if (done < batches.size()) {
    std::printf("stopped after %zu of %zu batches; resume with "
                "--resume-from %s\n",
                done, batches.size(), checkpoint_to.c_str());
    return 0;
  }
  if (pipeline.phase() == core::PgHive::Phase::kIngesting) {
    // Post-processing can retype properties and settle cardinalities, so
    // the feed closes with one record for the finished schema.
    util::Status status = publish([&] { return pipeline.Finish(); });
    if (!status.ok()) return Fail(status.ToString());
  }
  if (!checkpoint_to.empty()) {
    util::Status saved = checkpoint();
    if (!saved.ok()) return Fail(saved.ToString());
    std::printf("checkpointed state to %s\n", checkpoint_to.c_str());
  }
  if (batches.size() > 1) {
    std::printf("ingested %zu batches in %.1f ms\n",
                batches.size() - static_cast<size_t>(restored), wall_ms);
  }

  std::printf("%s", core::DescribeSchema(pipeline.schema(), graph.vocab())
                        .c_str());
  std::printf("discovery took %.1f ms (+%.1f ms post-processing)\n",
              pipeline.total_stats().discovery_ms(),
              pipeline.total_stats().post_process_ms);

  core::SchemaMode mode = args.Has("loose") ? core::SchemaMode::kLoose
                                            : core::SchemaMode::kStrict;
  if (args.Has("out")) {
    util::Status written = WriteSchemaFiles(
        args.Get("out"),
        core::SerializePgSchema(pipeline.schema(), graph.vocab(), mode),
        core::SerializeXsd(pipeline.schema(), graph.vocab()));
    if (!written.ok()) return Fail(written.ToString());
  }
  return 0;
}

int CmdImport(const Args& args) {
  if (!args.Has("nodes") || !args.Has("out")) {
    return Fail("import needs --nodes FILES and --out GRAPH");
  }
  pg::CsvGraphImporter importer;
  for (const std::string& path : SplitComma(args.Get("nodes"))) {
    auto status = importer.AddNodeFile(path);
    if (!status.ok()) return Fail(path + ": " + status.ToString());
  }
  for (const std::string& path : SplitComma(args.Get("edges"))) {
    auto status = importer.AddEdgeFile(path);
    if (!status.ok()) return Fail(path + ": " + status.ToString());
  }
  pg::PropertyGraph graph = importer.TakeGraph();
  auto status = pg::SaveGraphFile(graph, args.Get("out"));
  if (!status.ok()) return Fail(status.ToString());
  std::printf("imported %zu nodes, %zu edges -> %s\n", graph.num_nodes(),
              graph.num_edges(), args.Get("out").c_str());
  return 0;
}

int CmdGenerate(const Args& args) {
  if (!args.Has("dataset") || !args.Has("out")) {
    return Fail("generate needs --dataset NAME and --out GRAPH");
  }
  auto spec = datasets::ZooDataset(args.Get("dataset"));
  if (!spec.ok()) return Fail(spec.status().ToString());
  const std::string scale_text = args.Get("scale", "1.0");
  double scale = 0;
  if (!pg::ParseFloatLiteral(scale_text, &scale) || !std::isfinite(scale) ||
      scale <= 0) {
    return Fail("--scale must be a finite number > 0, got '" + scale_text +
                "'");
  }
  auto seed = util::ParseInt64InRange(args.Get("seed", "42"), 0,
                                      std::numeric_limits<int64_t>::max(),
                                      "--seed");
  if (!seed.ok()) return Fail(seed.status().ToString());
  datasets::Dataset dataset =
      datasets::Generate(spec.value(), scale, static_cast<uint64_t>(*seed));
  auto status = pg::SaveGraphFile(dataset.graph, args.Get("out"));
  if (!status.ok()) return Fail(status.ToString());
  std::printf("generated %s: %zu nodes, %zu edges -> %s\n",
              spec.value().name.c_str(), dataset.graph.num_nodes(),
              dataset.graph.num_edges(), args.Get("out").c_str());
  return 0;
}

/// Resolves --port / --port-file into a port number; 0 when neither flag is
/// present (the caller decides whether that is an error).
util::StatusOr<uint16_t> ResolvePort(const Args& args) {
  if (args.Has("port-file")) {
    // pghived writes the port and a newline.
    auto text = util::ReadWholeFile(args.Get("port-file"));
    if (!text.ok()) return text.status();
    if (!text->empty() && text->back() == '\n') text->pop_back();
    auto parsed = util::ParseInt64InRange(*text, 1, 65535, "port file");
    if (!parsed.ok()) return parsed.status();
    return static_cast<uint16_t>(*parsed);
  }
  if (args.Has("port")) {
    auto parsed = util::ParseInt64InRange(args.Get("port"), 1, 65535,
                                          "--port");
    if (!parsed.ok()) return parsed.status();
    return static_cast<uint16_t>(*parsed);
  }
  return static_cast<uint16_t>(0);
}

/// Streams a graph into a running pghived, batch by batch, and fetches the
/// final schema — the wire-borne twin of CmdDiscover. The discovered schema
/// is byte-identical to a local `pghive discover` run with the same knobs
/// (pinned by the service e2e tests and the CI smoke step).
int CmdClient(const Args& args) {
  if (!args.Has("graph")) return Fail("client needs --graph FILE");
  auto resolved_port = ResolvePort(args);
  if (!resolved_port.ok()) return Fail(resolved_port.status().ToString());
  uint16_t port = *resolved_port;
  if (port == 0) return Fail("client needs --port N or --port-file FILE");
  auto num_batches = util::ParseInt64InRange(args.Get("batches", "1"), 1,
                                             1000000, "--batches");
  if (!num_batches.ok()) return Fail(num_batches.status().ToString());

  auto loaded = pg::LoadGraphFile(args.Get("graph"));
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  pg::PropertyGraph graph = std::move(loaded).value();
  std::vector<std::string> payloads = service::BuildIngestPayloads(
      graph, static_cast<size_t>(*num_batches), /*seed=*/1);

  auto client = service::PghivedClient::Connect(port);
  if (!client.ok()) return Fail(client.status().ToString());
  std::string session;
  size_t skip = 0;
  if (args.Has("session")) {
    // Resume a session the daemon itself restored from --checkpoint-dir:
    // ask how many batches it already holds and stream the remainder.
    auto info = client->SessionInfo(args.Get("session"));
    if (!info.ok()) return Fail(info.status().ToString());
    session = info->id;
    skip = static_cast<size_t>(info->batches);
    if (skip > payloads.size()) {
      return Fail("session " + session + " already holds " +
                  std::to_string(skip) + " batches but --batches only yields " +
                  std::to_string(payloads.size()));
    }
    std::printf("resuming session %s with %zu batches\n", session.c_str(),
                skip);
  } else {
    auto created = client->CreateSession(DiscoveryKnobs(args));
    if (!created.ok()) return Fail(created.status().ToString());
    session = *created;
  }

  size_t limit = payloads.size();
  if (args.Has("stop-after")) {
    auto parsed = util::ParseInt64InRange(
        args.Get("stop-after"), 0, static_cast<int64_t>(payloads.size()),
        "--stop-after");
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    limit = static_cast<size_t>(*parsed);
    if (limit < skip) {
      return Fail("--stop-after " + std::to_string(limit) +
                  " is before the restored batch count " +
                  std::to_string(skip));
    }
  }
  for (size_t i = skip; i < limit; ++i) {
    auto seq = client->IngestBatch(session, payloads[i]);
    if (!seq.ok()) return Fail(seq.status().ToString());
  }
  std::printf("streamed %zu batches to session %s\n", limit - skip,
              session.c_str());

  if (limit < payloads.size()) {
    // Partial stream: leave the session open for a later --session resume
    // (the crash smoke SIGKILLs the server after this).
    std::printf("stopped after %zu of %zu batches\n", limit, payloads.size());
    return 0;
  }

  auto describe = client->GetSchema(session, "describe");
  if (!describe.ok()) return Fail(describe.status().ToString());
  std::printf("%s", describe->c_str());

  if (args.Has("out")) {
    auto pgs = client->GetSchema(session,
                                 args.Has("loose") ? "pgs-loose" : "pgs");
    if (!pgs.ok()) return Fail(pgs.status().ToString());
    auto xsd = client->GetSchema(session, "xsd");
    if (!xsd.ok()) return Fail(xsd.status().ToString());
    util::Status written = WriteSchemaFiles(args.Get("out"), *pgs, *xsd);
    if (!written.ok()) return Fail(written.ToString());
  }
  if (args.Has("changefeed-out")) {
    // The full history from version 1. With --checkpoint-dir on the daemon
    // this reaches past the in-memory backlog into the feed segment files;
    // the bytes are the same concatenated records `discover --changefeed`
    // writes, so the two files byte-compare.
    auto feed = client->SubscribeChangefeed(session, /*after_version=*/0,
                                            /*timeout_ms=*/0);
    if (!feed.ok()) return Fail(feed.status().ToString());
    const std::string path = args.Get("changefeed-out");
    util::Status written = util::AtomicWriteFile(path, *feed);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("wrote changefeed to %s (%zu bytes)\n", path.c_str(),
                feed->size());
  }
  util::Status closed = client->CloseSession(session);
  if (!closed.ok()) return Fail(closed.ToString());
  return 0;
}

/// Prints a changefeed file (discover --changefeed output) in human form.
int CmdChangefeed(const Args& args) {
  if (!args.Has("feed")) return Fail("changefeed needs --feed FILE");
  auto bytes = util::ReadWholeFile(args.Get("feed"));
  if (!bytes.ok()) return Fail(bytes.status().ToString());
  auto records = core::ParseSchemaDiffStream(*bytes);
  if (!records.ok()) return Fail(records.status().ToString());
  for (const core::SchemaDiff& diff : *records) {
    std::printf("%s", core::DescribeSchemaDiff(diff).c_str());
  }
  std::printf("%zu changefeed records\n", records->size());
  return 0;
}

/// Scans a changefeed for schema drift — property retypes and cardinality
/// flips — from a feed file (tolerant of a torn tail, as segment files of a
/// crashed daemon can have one) or a live pghived session (catch-up scan:
/// polls subscribe-changefeed until the feed has no newer version).
int CmdDrift(const Args& args) {
  std::vector<core::SchemaDiff> records;
  if (args.Has("feed")) {
    auto bytes = util::ReadWholeFile(args.Get("feed"));
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    size_t valid_prefix = 0;
    for (core::SchemaDiffRecord& record :
         core::ScanSchemaDiffStream(*bytes, &valid_prefix)) {
      records.push_back(std::move(record.diff));
    }
    if (valid_prefix < bytes->size()) {
      std::fprintf(stderr,
                   "pghive: warning: ignoring %zu trailing bytes of %s "
                   "(torn or corrupt record)\n",
                   bytes->size() - valid_prefix, args.Get("feed").c_str());
    }
  } else if (args.Has("session")) {
    auto resolved_port = ResolvePort(args);
    if (!resolved_port.ok()) return Fail(resolved_port.status().ToString());
    if (*resolved_port == 0) {
      return Fail("drift --session needs --port N or --port-file FILE");
    }
    auto client = service::PghivedClient::Connect(*resolved_port);
    if (!client.ok()) return Fail(client.status().ToString());
    auto from = util::ParseInt64InRange(args.Get("from", "0"), 0,
                                        std::numeric_limits<int64_t>::max(),
                                        "--from");
    if (!from.ok()) return Fail(from.status().ToString());
    auto timeout_ms = util::ParseInt64InRange(args.Get("timeout-ms", "0"), 0,
                                              3600000, "--timeout-ms");
    if (!timeout_ms.ok()) return Fail(timeout_ms.status().ToString());
    uint64_t after = static_cast<uint64_t>(*from);
    for (;;) {
      auto feed = client->SubscribeChangefeed(
          args.Get("session"), after, static_cast<uint64_t>(*timeout_ms));
      if (!feed.ok()) return Fail(feed.status().ToString());
      if (feed->empty()) break;  // Caught up.
      auto parsed = core::ParseSchemaDiffStream(*feed);
      if (!parsed.ok()) return Fail(parsed.status().ToString());
      for (core::SchemaDiff& diff : *parsed) {
        after = std::max(after, diff.version_to);
        records.push_back(std::move(diff));
      }
    }
  } else {
    return Fail("drift needs --feed FILE, or --session ID with --port/"
                "--port-file");
  }

  size_t alert_count = 0;
  for (const core::SchemaDiff& diff : records) {
    for (const core::DriftAlert& alert : core::ScanForDrift(diff)) {
      std::printf("!! %s\n", core::DescribeDriftAlert(alert).c_str());
      ++alert_count;
    }
  }
  std::printf("%zu drift alerts in %zu changefeed records\n", alert_count,
              records.size());
  if (args.Has("fail-on-alert") && alert_count > 0) return 1;
  return 0;
}

int CmdValidate(const Args& args) {
  if (!args.Has("graph") || !args.Has("schema")) {
    return Fail("validate needs --graph FILE and --schema FILE.pgs");
  }
  auto loaded = pg::LoadGraphFile(args.Get("graph"));
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  pg::PropertyGraph graph = std::move(loaded).value();

  auto text = util::ReadWholeFile(args.Get("schema"));
  if (!text.ok()) return Fail(text.status().ToString());
  auto schema = core::ParsePgSchema(*text, &graph.vocab());
  if (!schema.ok()) return Fail(schema.status().ToString());

  core::ValidatorOptions options;
  options.mode = args.Has("strict") ? core::SchemaMode::kStrict
                                    : core::SchemaMode::kLoose;
  core::SchemaValidator validator(&schema.value(), options);
  core::ValidationReport report = validator.Validate(graph);
  std::printf("%s\n", report.Summary().c_str());
  for (size_t i = 0; i < report.violations.size() && i < 20; ++i) {
    const core::Violation& v = report.violations[i];
    std::printf("  [%s] %s %llu: %s\n", core::ViolationKindName(v.kind),
                v.is_edge ? "edge" : "node",
                static_cast<unsigned long long>(v.element_id),
                v.detail.c_str());
  }
  return report.conforms() ? 0 : 1;
}

/// The subcommands and the flags each reads.
std::vector<Command> Commands() {
  auto with_knobs = [](std::set<std::string> flags) {
    flags.insert(std::begin(kKnobFlags), std::end(kKnobFlags));
    flags.insert("sample-datatypes");
    return flags;
  };
  return {
      {"discover", CmdDiscover,
       with_knobs({"graph", "batches", "out", "loose", "checkpoint-to",
                   "checkpoint-every", "resume-from", "stop-after",
                   "changefeed"})},
      {"import", CmdImport, {"nodes", "edges", "out"}},
      {"generate", CmdGenerate, {"dataset", "scale", "seed", "out"}},
      {"validate", CmdValidate, {"graph", "schema", "strict"}},
      {"client", CmdClient,
       with_knobs({"graph", "port", "port-file", "batches", "out", "loose",
                   "stop-after", "session", "changefeed-out"})},
      {"changefeed", CmdChangefeed, {"feed"}},
      {"drift", CmdDrift,
       {"feed", "port", "port-file", "session", "from", "timeout-ms",
        "fail-on-alert"}},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc >= 2 ? argv[1] : "";
  for (const Command& command : Commands()) {
    if (name != command.name) continue;
    auto args = util::ParseArgs(argc, argv, 2, command.flags, kSwitches);
    if (!args.ok()) {
      return Fail(std::string(command.name) + ": " + args.status().message());
    }
    return command.run(*args);
  }
  std::fprintf(stderr,
               "usage: pghive"
               " <discover|import|generate|validate|client|changefeed|drift>"
               " [options]\n"
               "  discover --graph FILE [--method elsh|minhash] [--batches N]"
               " [--out PREFIX] [--loose] [--sample-datatypes] [--threads N]"
               " [--seed N]"
               " [--checkpoint-to FILE [--checkpoint-every K] [--stop-after K]]"
               " [--resume-from FILE] [--changefeed FILE]\n"
               "  import   --nodes a.csv,b.csv --edges rels.csv --out g.pg\n"
               "  generate --dataset POLE [--scale 1.0] [--seed 42] --out g.pg\n"
               "  validate --graph g.pg --schema s.pgs [--strict]\n"
               "  client   --graph FILE (--port N | --port-file FILE)"
               " [--batches N] [--out PREFIX] [--loose] [--stop-after K]"
               " [--session ID] [--changefeed-out FILE] [discover knobs]\n"
               "  changefeed --feed FILE\n"
               "  drift    (--feed FILE | (--port N | --port-file FILE)"
               " --session ID) [--from V] [--timeout-ms T]"
               " [--fail-on-alert]\n");
  return 1;
}

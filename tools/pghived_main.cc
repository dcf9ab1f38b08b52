// pghived — the PG-HIVE schema-discovery daemon.
//
//   pghived [--port N] [--port-file PATH] [--threads N] [--max-sessions N]
//           [--checkpoint-dir DIR] [--checkpoint-every N]
//
// Listens on 127.0.0.1 (port 0 picks an ephemeral port, written to
// --port-file so scripts can find it) and serves the line protocol described
// in src/service/protocol.h. Every session's discovery compute runs on one
// shared thread pool; SIGINT/SIGTERM trigger a graceful shutdown that stops
// accepting, finishes in-flight requests, and drains every session's queued
// jobs before exiting.
//
// With --checkpoint-dir the daemon is durable on its own authority: every
// session appends each ingested payload to DIR/<id>.log, checkpoints its
// discovery state to DIR/<id>.pghd after every --checkpoint-every batches
// (default 1) and once more during the SIGTERM drain, and spills changefeed
// records to DIR/<id>.feed; a restarted daemon restores every snapshot it
// finds there and replays each session's log to rebuild its graph. A
// checkpoint is the snapshot `pghive discover --checkpoint-to` writes, so
// `discover --resume-from DIR/<id>.pghd` resumes it too. The daemon refuses
// to start on a "PGHD" session file from an older build, naming its
// version.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "service/server.h"
#include "util/file_io.h"
#include "util/parse.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int /*signum*/) { g_stop = 1; }

int Fail(const std::string& message) {
  std::fprintf(stderr, "pghived: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // pghive's flag rules: a typo, a repeated flag (a mangled service file)
  // or a flag where a value belongs refuses to start, where a daemon that
  // guessed would serve with options nobody wrote.
  auto args = pghive::util::ParseArgs(
      argc, argv, 1,
      {"port", "port-file", "threads", "max-sessions", "checkpoint-dir",
       "checkpoint-every"});
  if (!args.ok()) return Fail(args.status().message());

  pghive::service::PghivedServer::Options server_options;
  std::string port_file;
  for (const auto& [key, value] : args->options) {
    if (key == "port") {
      auto port = pghive::util::ParseInt64InRange(value, 0, 65535, "--port");
      if (!port.ok()) return Fail(port.status().ToString());
      server_options.port = static_cast<uint16_t>(*port);
    } else if (key == "port-file") {
      port_file = value;
    } else if (key == "threads") {
      auto threads =
          pghive::util::ParseInt64InRange(value, 0, 4096, "--threads");
      if (!threads.ok()) return Fail(threads.status().ToString());
      server_options.threads = static_cast<size_t>(*threads);
    } else if (key == "max-sessions") {
      auto max = pghive::util::ParseInt64InRange(value, 1, 1000000,
                                                 "--max-sessions");
      if (!max.ok()) return Fail(max.status().ToString());
      server_options.sessions.max_sessions = static_cast<size_t>(*max);
    } else if (key == "checkpoint-dir") {
      if (value.empty()) return Fail("--checkpoint-dir needs a directory");
      server_options.sessions.checkpoint_dir = value;
    } else {  // checkpoint-every
      auto every = pghive::util::ParseInt64InRange(value, 1, 1000000,
                                                   "--checkpoint-every");
      if (!every.ok()) return Fail(every.status().ToString());
      server_options.sessions.checkpoint_every = static_cast<uint64_t>(*every);
    }
  }
  if (args->Has("checkpoint-every") && !args->Has("checkpoint-dir")) {
    return Fail("--checkpoint-every requires --checkpoint-dir");
  }

  // Handlers must be installed before Start(): once the daemon is reachable
  // (listening, port file written) a SIGTERM must always drain and
  // checkpoint, never take the default die-without-drain disposition.
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  pghive::service::PghivedServer server(server_options);
  auto status = server.Start();
  if (!status.ok()) return Fail(status.ToString());
  std::printf("pghived listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    // Atomic, so a reader never finds the file empty or half written.
    auto written = pghive::util::AtomicWriteFile(
        port_file, std::to_string(server.port()) + '\n');
    if (!written.ok()) return Fail(written.ToString());
  }

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("pghived: draining and shutting down\n");
  server.Stop();
  return 0;
}

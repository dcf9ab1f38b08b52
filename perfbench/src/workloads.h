#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"

namespace perfbench {

/// One benchmark run, as given on the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;        ///< Dataset generator seed.
  uint64_t split_seed = 1;  ///< pg::SplitIntoBatches seed (the CLI's is 1).
  double seconds = 10;      ///< Length of the timed loop.
  bool trace = false;       ///< Traced run: per-layer metrics instead.
  std::string tools_dir;    ///< Holds the pghive and pghived binaries.
  std::string work_dir;     ///< This run's scratch directory.
};

/// Set-up is repeated this many times per run and its median reported, so
/// that work moved into set-up shows in setup_s.
constexpr int kSetupReps = 3;

/// Worker threads of the system under test, per workload.
constexpr int kStaticThreads = 4;  ///< pghive discover --threads
constexpr int kZooThreads = 1;     ///< PgHiveOptions::num_threads
constexpr int kDaemonThreads = 4;  ///< pghived --threads

/// Each workload adds the end-to-end metrics (untraced run) or leaves its
/// spans and counters in `tracer` (traced run), and counts every operation
/// it attempts in `report`.
void RunLdbc10Static(const RunConfig& config, Tracer* tracer, Report* report);
void RunZooBatched(const RunConfig& config, Tracer* tracer, Report* report);
void RunDaemonStream(const RunConfig& config, Tracer* tracer, Report* report);

/// True while the timed loop should start another job: until `seconds`
/// have passed, and at least once.
inline bool KeepGoing(Clock::time_point loop_start, double seconds,
                      size_t jobs_done) {
  return jobs_done == 0 || MsSince(loop_start) < seconds * 1000.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

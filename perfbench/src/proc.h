#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "util/status.h"

namespace perfbench {

/// The write side of /proc/<pid>/io.
struct IoCounters {
  uint64_t wchar = 0;  ///< Bytes passed to write-family calls.
  uint64_t syscw = 0;  ///< Write-family calls.
};

pghive::util::StatusOr<IoCounters> ReadProcIo(pid_t pid);
/// CPU time (user + system, every thread) this process has used so far, in
/// ms. The kernel counts only time the process ran: time the hypervisor gave
/// to other guests (steal) is left out.
double SelfCpuMs();
/// The same for a live process, read from its CPU-time clock.
pghive::util::StatusOr<double> CpuMs(pid_t pid);
/// Peak resident set (VmHWM) of a live process, in KiB.
pghive::util::StatusOr<uint64_t> ReadVmHwmKib(pid_t pid);
/// Lowers the peak resident set of a live process to its current RSS, so a
/// later ReadVmHwmKib sees the peak of what came after. Where the kernel
/// refuses, says so once on stderr and leaves the peak as it is, which then
/// covers the process's whole life.
void ResetPeakRss(pid_t pid);
/// Reads a whole file; NotFound when it cannot be opened.
pghive::util::StatusOr<std::string> ReadFile(const std::string& path);

/// How a child process ended.
struct ChildExit {
  bool exited = false;  ///< False when a signal ended it.
  int code = -1;        ///< Exit code, or the signal number.
  double wall_ms = 0;   ///< Spawn to exit.
  double cpu_ms = 0;    ///< User + system CPU time (wait4 rusage).
  uint64_t maxrss_kib = 0;
  IoCounters io;        ///< Read just before the child was reaped.
  bool io_ok = false;
  bool ok() const { return exited && code == 0; }
};

/// A child process of the benchmark with stdout and stderr sent to a log
/// file. The destructor kills and reaps a child still running, and the
/// watchdog kills every live child before it ends the benchmark.
class Child {
 public:
  static pghive::util::StatusOr<Child> Spawn(const std::vector<std::string>& argv,
                                             const std::string& log_path);
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) = delete;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }
  void Signal(int signum) const;
  /// Waits for exit, reads /proc/<pid>/io while the child is a zombie, then
  /// reaps it with wait4 for its rusage.
  ChildExit Wait();

 private:
  Child(pid_t pid, int slot);
  pid_t pid_;
  int slot_;
  Clock::time_point start_;
};

/// Ends the benchmark with exit code 3 after `seconds`, killing every live
/// child first, so no wedged child or socket read outlives the deadline.
void ArmWatchdog(unsigned seconds);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_

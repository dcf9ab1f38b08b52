#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// CPU time (ms) of one run of the speed probe: a fixed single-threaded
/// computation of the benchmark's own, independent of pghive's code — random
/// inserts and lookups in an 8 MiB hash table, a pointer chase through
/// 16 MiB, a sort and float dot products — the same work every time, on
/// memory allocated before the clock starts and freed after. Returns a
/// negative value if the probe computed a wrong checksum.
double ProbeMs();

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus();
/// Pins the calling thread to one CPU; false if that failed.
bool PinToCpu(int cpu);
/// Lets the calling thread run on every CPU in `cpus` again.
void Unpin(const std::vector<int>& cpus);

/// The probe's CPU time on the reference host. Scaled timings read as CPU
/// time on a host where the probe takes this long.
constexpr double kProbeReferenceMs = 20.0;

/// Host-speed scaling of CPU times. CPU time leaves out time the hypervisor
/// gave to other guests, but it still grows when other guests load the
/// shared host's caches, memory and cores, by up to 2x on the hosts this
/// benchmark was tuned on. The probe slows with them, so a CPU time
/// multiplied by kProbeReferenceMs / probe time stays put. A workload probes
/// before its first job and after every job; job k is scaled by the mean of
/// the probes on either side of it.
class HostSpeed {
 public:
  /// Runs the probe once on each CPU this process may use and records the
  /// mean, the speed of the host as a whole; false if a probe computed a
  /// wrong checksum.
  bool Probe();
  /// Scale factor for interval `k`, between the k-th and (k+1)-th probe.
  double Scale(size_t k) const;
  /// Probe times measured so far, in ms.
  const std::vector<double>& probe_ms() const { return probe_ms_; }

 private:
  std::vector<double> probe_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_

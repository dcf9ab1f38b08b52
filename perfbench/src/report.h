#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/schema.h"
#include "datasets/generator.h"

namespace perfbench {

/// Quantile q in [0, 1] by linear interpolation between closest ranks;
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// `s` as a quoted JSON string.
std::string JsonString(std::string_view s);

/// One reported metric with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
  bool in_result = true;  ///< False: printed in the table only.
};

/// Operation accounting plus the metrics of one run. Every operation the
/// benchmark attempts — a client call, a child process, a library call that
/// returns a status, an output check — goes through Op(); failures are
/// described on stderr as they happen.
class Report {
 public:
  /// Counts one operation; returns `ok`.
  bool Op(bool ok, const std::string& what);
  void Add(std::string name, double value, std::string unit, size_t samples);
  /// A number printed in the table but kept out of the result object.
  void Note(std::string name, double value, std::string unit, size_t samples);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Human-readable table: one line per metric with unit and sample count.
  void PrintTable(std::FILE* out) const;
  /// The result object the benchmark prints as its last line.
  std::string ResultJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// The timings of one run. Every set-up, job and batch is recorded three
/// ways: wall time, CPU time of the processes under test, and that CPU time
/// scaled to the reference host speed (HostSpeed in probe.h). The result
/// object carries the scaled figures, which hold still while the shared
/// host's load moves the other two; the table shows all three.
struct Timings {
  std::vector<double> setup_wall_s, setup_cpu_s, setup_s;
  std::vector<double> job_ms, job_cpu_ms, job_scaled_ms;
  std::vector<double> batch_ms, batch_cpu_ms, batch_scaled_ms;

  void AddSetup(double wall_s, double cpu_s, double scale);
  void AddJob(double wall_ms, double cpu_ms, double scale);
  void AddBatch(double wall_ms, double cpu_ms, double scale);
  /// setup_s, job_cpu_ms_p50, batch_cpu_ms_p50 and batch_cpu_ms_p90 (scaled)
  /// go to the result; the wall-clock and unscaled figures and the probe
  /// times of `probe_ms` to the table.
  void AddMetrics(const std::vector<double>& probe_ms, Report* report) const;
};

/// Schema quality against a generator's ground truth, accumulated over the
/// final schemas of a job: instance-weighted F1* (eval::MajorityF1) and the
/// type-count error sum |found - true| / sum true over node and edge types.
struct Quality {
  double node_hits = 0;
  double node_total = 0;
  double edge_hits = 0;
  double edge_total = 0;
  double type_error = 0;
  double true_types = 0;

  void Add(const pghive::core::SchemaGraph& schema,
           const pghive::datasets::Dataset& truth);
  double node_f1() const { return node_total > 0 ? node_hits / node_total : 0; }
  double edge_f1() const { return edge_total > 0 ? edge_hits / edge_total : 0; }
  double type_count_error() const {
    return true_types > 0 ? type_error / true_types : 0;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

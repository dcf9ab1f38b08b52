#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
double MsSince(Clock::time_point start);

/// In-memory span recorder for the traced run. A span has a name, start,
/// end, parent (the innermost span open when it began) and job id; spans
/// are written out at the end as Chrome trace-event JSON. Counters are
/// recorded per job at the same call boundaries. A disabled tracer records
/// nothing, so the untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span around one call into a layer. `name` must be a string
  /// literal (it is stored by pointer).
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  /// Starts job `job` (ids from 1; 0 is everything outside timed jobs).
  /// Jobs registered here are the population the per-job medians run over.
  void BeginJob(uint64_t job);
  void EndJob() { job_ = 0; }

  /// Adds `value` to the named counter of the current job.
  void Count(const char* name, double value);
  /// Records one observation of a derived quantity (e.g. lane time) made
  /// inside a job.
  void Sample(const char* name, double value);

  /// Durations (ms) of the spans called `name` inside jobs, in recording
  /// order.
  std::vector<double> Durations(std::string_view name) const;
  /// Per registered job: summed self time (ms) of spans named in `names`.
  std::vector<double> PerJobSelfMs(const std::vector<const char*>& names) const;
  /// Per registered job: summed value of the named counter.
  std::vector<double> PerJobCount(const char* name) const;
  std::vector<double> Samples(const char* name) const;

  size_t num_spans() const { return spans_.size(); }
  size_t num_jobs() const { return jobs_.size(); }

  /// Writes every span and counter as Chrome trace-event JSON (Perfetto and
  /// chrome://tracing open it); `metadata` lands in "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& metadata) const;

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t job;
  };
  struct CounterEvent {
    const char* name;
    int64_t at_ns;
    uint64_t job;
    double value;
  };

  int64_t NowNs() const;
  /// Self time (ns) of every span: its duration minus its children's.
  std::vector<int64_t> SelfNs() const;

  bool enabled_;
  Clock::time_point origin_;
  uint64_t job_ = 0;
  std::vector<uint64_t> jobs_;
  std::vector<Record> spans_;
  std::vector<int64_t> open_;
  std::vector<CounterEvent> counters_;
  std::map<std::string, std::vector<double>, std::less<>> samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

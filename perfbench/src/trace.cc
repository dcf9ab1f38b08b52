#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "report.h"

namespace perfbench {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  int64_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  tracer_->spans_.push_back({name, tracer_->NowNs(), 0, parent, tracer_->job_});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

void Tracer::BeginJob(uint64_t job) {
  job_ = job;
  if (enabled_) jobs_.push_back(job);
}

void Tracer::Count(const char* name, double value) {
  if (!enabled_) return;
  counters_.push_back({name, NowNs(), job_, value});
}

void Tracer::Sample(const char* name, double value) {
  if (!enabled_ || job_ == 0) return;
  samples_[name].push_back(value);
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (r.job != 0 && name == r.name) {
      out.push_back((r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Record& r : spans_) {
    if (r.parent >= 0) self[static_cast<size_t>(r.parent)] -= r.end_ns - r.start_ns;
  }
  return self;
}

std::vector<double> Tracer::PerJobSelfMs(
    const std::vector<const char*>& names) const {
  std::map<uint64_t, double> per_job;
  for (uint64_t job : jobs_) per_job[job] = 0;
  std::vector<int64_t> self = SelfNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto it = per_job.find(spans_[i].job);
    if (it == per_job.end()) continue;
    for (const char* name : names) {
      if (std::strcmp(name, spans_[i].name) == 0) it->second += self[i] / 1e6;
    }
  }
  std::vector<double> out;
  for (const auto& [job, ms] : per_job) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::PerJobCount(const char* name) const {
  std::map<uint64_t, double> per_job;
  for (uint64_t job : jobs_) per_job[job] = 0;
  for (const CounterEvent& c : counters_) {
    auto it = per_job.find(c.job);
    if (it != per_job.end() && std::strcmp(name, c.name) == 0) {
      it->second += c.value;
    }
  }
  std::vector<double> out;
  for (const auto& [job, value] : per_job) out.push_back(value);
  return out;
}

std::vector<double> Tracer::Samples(const char* name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

bool Tracer::WriteChromeTrace(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  char buf[512];
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : metadata) {
    out << (first ? "" : ",") << JsonString(key) << ':' << JsonString(value);
    first = false;
  }
  out << "},\"traceEvents\":[";
  first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"job\":%llu}}",
                  first ? "" : ",", r.name, r.start_ns / 1e3,
                  (r.end_ns - r.start_ns) / 1e3, i,
                  static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.job));
    out << buf;
    first = false;
  }
  for (const CounterEvent& c : counters_) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                  "\"args\":{\"value\":%.17g,\"job\":%llu}}",
                  first ? "" : ",", c.name, c.at_ns / 1e3, c.value,
                  static_cast<unsigned long long>(c.job));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "report.h"

#include <algorithm>
#include <cmath>

#include "eval/f1.h"

namespace perfbench {

namespace core = pghive::core;
namespace datasets = pghive::datasets;
namespace eval = pghive::eval;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  return ok;
}

void Report::Add(std::string name, double value, std::string unit,
                 size_t samples) {
  if (!Op(std::isfinite(value), "metric " + name + " is finite")) value = 0;
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::Note(std::string name, double value, std::string unit,
                  size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples, false});
}

void Report::PrintTable(std::FILE* out) const {
  // Rows marked * are printed only; the result object carries the rest.
  std::fprintf(out, "%-28s %18s  %-8s %8s\n", "metric", "value", "unit",
               "samples");
  for (const Metric& m : metrics_) {
    std::fprintf(out, "%-28s %18.6f  %-8s %8zu%s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.samples, m.in_result ? "" : " *");
  }
  std::fprintf(out, "%-28s %18.6f  %-8s %8llu *\n", "failed_op_ratio",
               attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0,
               "fraction", static_cast<unsigned long long>(attempted_));
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  return out + "}}";
}

void Timings::AddSetup(double wall_s, double cpu_s, double scale) {
  setup_wall_s.push_back(wall_s);
  setup_cpu_s.push_back(cpu_s);
  setup_s.push_back(cpu_s * scale);
}

void Timings::AddJob(double wall_ms, double cpu_ms, double scale) {
  job_ms.push_back(wall_ms);
  job_cpu_ms.push_back(cpu_ms);
  job_scaled_ms.push_back(cpu_ms * scale);
}

void Timings::AddBatch(double wall_ms, double cpu_ms, double scale) {
  batch_ms.push_back(wall_ms);
  batch_cpu_ms.push_back(cpu_ms);
  batch_scaled_ms.push_back(cpu_ms * scale);
}

void Timings::AddMetrics(const std::vector<double>& probe_ms,
                         Report* report) const {
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("job_cpu_ms_p50", Median(job_scaled_ms), "ms",
              job_scaled_ms.size());
  report->Add("batch_cpu_ms_p50", Median(batch_scaled_ms), "ms",
              batch_scaled_ms.size());
  report->Add("batch_cpu_ms_p90", Quantile(batch_scaled_ms, 0.9), "ms",
              batch_scaled_ms.size());
  report->Note("setup_wall_s", Median(setup_wall_s), "s", setup_wall_s.size());
  report->Note("setup_cpu_unscaled_s", Median(setup_cpu_s), "s",
               setup_cpu_s.size());
  report->Note("job_ms_p50", Median(job_ms), "ms", job_ms.size());
  report->Note("job_cpu_unscaled_ms_p50", Median(job_cpu_ms), "ms",
               job_cpu_ms.size());
  report->Note("batch_ms_p50", Median(batch_ms), "ms", batch_ms.size());
  report->Note("batch_ms_p90", Quantile(batch_ms, 0.9), "ms", batch_ms.size());
  report->Note("batch_cpu_unscaled_ms_p50", Median(batch_cpu_ms), "ms",
               batch_cpu_ms.size());
  report->Note("probe_ms_p50", Median(probe_ms), "ms", probe_ms.size());
}

void Quality::Add(const core::SchemaGraph& schema,
                  const datasets::Dataset& truth) {
  const auto& node_truth = truth.truth.node_type;
  const auto& edge_truth = truth.truth.edge_type;
  if (!node_truth.empty()) {
    eval::F1Result f1 =
        eval::MajorityF1(schema.NodeAssignment(node_truth.size()), node_truth);
    node_hits += f1.f1 * static_cast<double>(node_truth.size());
    node_total += static_cast<double>(node_truth.size());
  }
  if (!edge_truth.empty()) {
    eval::F1Result f1 =
        eval::MajorityF1(schema.EdgeAssignment(edge_truth.size()), edge_truth);
    edge_hits += f1.f1 * static_cast<double>(edge_truth.size());
    edge_total += static_cast<double>(edge_truth.size());
  }
  const double true_nodes = static_cast<double>(truth.spec.num_node_types());
  const double true_edges = static_cast<double>(truth.spec.num_edge_types());
  type_error += std::fabs(static_cast<double>(schema.num_node_types()) - true_nodes) +
                std::fabs(static_cast<double>(schema.num_edge_types()) - true_edges);
  true_types += true_nodes + true_edges;
}

}  // namespace perfbench

// bench_diff — the CI bench-regression gate.
//
//   bench_diff BASELINE.json CURRENT.json [--threshold=PCT]
//              [--markdown_out=FILE]
//              [--warn_state_in=FILE] [--warn_state_out=FILE]
//
// Compares two bench_micro --speedup_json sweeps, prints the per-entry
// speedup table, and optionally writes it as markdown (for the GitHub job
// summary). The gate trips on an entry whose parallel speedup ratio drops by
// more than the threshold; ratios divide out the host, so the gate holds up
// on heterogeneous hosted CI runners. Two sweeps that share no entry fail:
// a renamed stage must not switch the gate off.
//
// With --warn_state_in / --warn_state_out the gate is warn-then-fail: a
// regression only fails when the same entry is also listed in the state file
// written by the previous run (one entry name per line); a first trip exits 0
// with a warning. Without the state flags every regression fails immediately.
//
// Exit codes: 0 = gate passed (possibly with first-trip warnings), 1 = gate
// failed, 2 = usage or parse error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tools/bench_diff_lib.h"
#include "util/file_io.h"

namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json CURRENT.json [--threshold=PCT] "
               "[--markdown_out=FILE] [--warn_state_in=FILE] "
               "[--warn_state_out=FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, current_path, markdown_path;
  std::string warn_state_in, warn_state_out;
  double threshold = 10.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      char* end = nullptr;
      threshold = std::strtod(argv[i] + 12, &end);
      if (end == argv[i] + 12 || *end != '\0') {
        std::fprintf(stderr, "invalid --threshold value: %s\n", argv[i] + 12);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--markdown_out=", 15) == 0) {
      markdown_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--warn_state_in=", 16) == 0) {
      warn_state_in = argv[i] + 16;
    } else if (std::strncmp(argv[i], "--warn_state_out=", 17) == 0) {
      warn_state_out = argv[i] + 17;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return Usage(argv[0]);
    } else if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (baseline_path.empty() || current_path.empty()) return Usage(argv[0]);

  auto baseline_text = pghive::util::ReadWholeFile(baseline_path);
  if (!baseline_text.ok()) {
    std::fprintf(stderr, "%s\n", baseline_text.status().ToString().c_str());
    return 2;
  }
  auto current_text = pghive::util::ReadWholeFile(current_path);
  if (!current_text.ok()) {
    std::fprintf(stderr, "%s\n", current_text.status().ToString().c_str());
    return 2;
  }
  auto baseline = pghive::tools::ParseBenchJson(*baseline_text);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", baseline_path.c_str(),
                 baseline.status().ToString().c_str());
    return 2;
  }
  if (baseline->empty()) {
    std::fprintf(stderr, "%s: no entries\n", baseline_path.c_str());
    return 2;
  }
  auto current = pghive::tools::ParseBenchJson(*current_text);
  if (!current.ok()) {
    std::fprintf(stderr, "%s: %s\n", current_path.c_str(),
                 current.status().ToString().c_str());
    return 2;
  }
  if (current->empty()) {
    std::fprintf(stderr, "%s: no entries\n", current_path.c_str());
    return 2;
  }

  const bool warn_then_fail = !warn_state_in.empty() || !warn_state_out.empty();
  std::vector<std::string> prior;
  if (!warn_state_in.empty()) prior = ReadLines(warn_state_in);

  auto rows = pghive::tools::DiffEntries(*baseline, *current);
  auto regressed = pghive::tools::RegressedNames(rows, threshold);
  auto failures = warn_then_fail
                      ? pghive::tools::ConsecutiveRegressions(regressed, prior)
                      : regressed;

  for (const auto& row : rows) {
    const char* flag = "";
    if (pghive::tools::IsRegression(row, threshold)) {
      bool fails = std::find(failures.begin(), failures.end(), row.name) !=
                   failures.end();
      flag = fails ? "  REGRESSION" : "  WARN";
    }
    std::printf("%-40s %9.2fx -> %9.2fx     %+7.1f%%%s\n", row.name.c_str(),
                row.base_speedup, row.cur_speedup, row.speedup_drop_pct, flag);
  }

  if (!warn_state_out.empty()) {
    std::ofstream state(warn_state_out);
    if (!state) {
      std::fprintf(stderr, "cannot write %s\n", warn_state_out.c_str());
      return 2;
    }
    for (const auto& name : regressed) state << name << "\n";
  }

  if (!markdown_path.empty()) {
    std::ofstream md(markdown_path);
    if (!md) {
      std::fprintf(stderr, "cannot write %s\n", markdown_path.c_str());
      return 2;
    }
    md << "### Bench regression gate (speedup ratios, threshold "
       << threshold << "%"
       << (warn_then_fail ? ", warn-then-fail" : "") << ")\n\n"
       << pghive::tools::MarkdownTable(rows, threshold,
                                       warn_then_fail ? &prior : nullptr);
  }

  if (rows.empty()) {
    std::fprintf(stderr, "FAIL: no common entry between %s and %s\n",
                 baseline_path.c_str(), current_path.c_str());
    return 1;
  }

  if (!failures.empty()) {
    std::fprintf(stderr, "FAIL: regression past %.1f%% threshold%s:\n",
                 threshold,
                 warn_then_fail ? " in two consecutive runs" : "");
    for (const auto& name : failures) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return 1;
  }
  for (const auto& name : regressed) {
    std::fprintf(stderr,
                 "WARN: %s tripped the %.1f%% threshold (first run; gate "
                 "fails if it trips again)\n",
                 name.c_str(), threshold);
  }
  std::printf("OK: gate passed (%zu warning%s)\n", regressed.size(),
              regressed.size() == 1 ? "" : "s");
  return 0;
}

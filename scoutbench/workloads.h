#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scoutbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run: an untraced and a traced pass of seconds/2 each.
  bool trace = false;
  /// Where the page file is generated (never inside the source tree).
  std::string work_dir = ".";
  /// Chrome trace-event JSON of the traced pass; empty = not written.
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Sample count behind a percentile; 0 for other metrics.
  size_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;  ///< End-to-end, measured untraced.
  std::vector<Metric> layers;   ///< Per-layer, from the traced pass.
  /// Facts of the run that are not metrics: working set against cache,
  /// pool sizes, worker count, rounds.
  std::vector<std::pair<std::string, double>> facts;
  /// One line per failed correctness check.
  std::vector<std::string> failures;
  uint64_t attempted = 0;  ///< Queries issued in the timed passes.
  /// Of those, queries whose output failed a correctness check. Queries
  /// the engine served degraded under injected faults are not failures;
  /// ok_query_pct reports them.
  uint64_t failed = 0;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false for an unknown workload name or when
/// the run could not be set up; the reason is then in report->failures.
bool RunWorkload(const Options& options, Report* report);

}  // namespace scoutbench

// scoutbench: runs one serving workload of the SCOUT engine from a seed
// and prints its metrics. The last line of standard output is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The line before
// it stamps the host and the run's facts. Exits 1 when a correctness
// check fails, 2 on bad arguments.
//
//   scoutbench --workload vis-sim --seed 7 --seconds 10 --trace 0

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/simd.h"
#include "host.h"
#include "workloads.h"

namespace {

using scoutbench::Metric;
using scoutbench::Report;

void PrintUsage() {
  std::fprintf(stderr,
               "usage: scoutbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "                  [--work-dir DIR] [--trace-file PATH]\n"
               "workloads:");
  for (const std::string& w : scoutbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, scoutbench::Options* o) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::strtod(value.c_str(), &end);
      if (!(o->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = value == "1";
    } else if (arg == "--work-dir") {
      o->work_dir = value;
    } else if (arg == "--trace-file") {
      o->trace_file = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

/// JSON number with all its digits; a non-finite value becomes 0 (and is
/// a failed check, flagged by the caller).
std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Builds one JSON object from already-encoded values.
class JsonObject {
 public:
  void Add(const std::string& key, const std::string& encoded) {
    text_.append(text_.size() == 1 ? "" : ",");
    text_.append(Quoted(key));
    text_.append(":");
    text_.append(encoded);
  }
  std::string Close() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

bool ReleaseBuild() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string LoadAverage() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "[]";
  std::string out = "[";
  for (int i = 0; i < 3; ++i) {
    out.append(i == 0 ? "" : ",");
    out.append(Number(load[i]));
  }
  return out + "]";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-40s %16.4f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-40s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  scoutbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }
  const std::string load_before = LoadAverage();
  const scoutbench::CpuTicks ticks_before = scoutbench::CpuTicks::Now();
  Report report;
  const bool ran = scoutbench::RunWorkload(options, &report);
  const std::string load_after = LoadAverage();
  const double steal_pct =
      scoutbench::CpuTicks::Now().StealPctSince(ticks_before);
  if (!ran) {
    for (const std::string& f : report.failures) {
      std::fprintf(stderr, "scoutbench: %s\n", f.c_str());
    }
    return 1;
  }

  const std::vector<Metric>& out =
      options.trace ? report.layers : report.metrics;
  for (const Metric& m : out) {
    if (!std::isfinite(m.value)) {
      report.failures.push_back(m.name + " is not a finite number");
    }
  }
  if (!ReleaseBuild()) {
    std::fprintf(stderr,
                 "scoutbench: WARNING: not a Release build (NDEBUG unset); "
                 "wall-clock figures are not comparable\n");
  }

  std::printf("scoutbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  PrintMetrics("end-to-end (untraced pass):", report.metrics);
  if (options.trace) PrintMetrics("per-layer (traced pass):", report.layers);
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  // Host stamp and run facts, one JSON line.
  JsonObject host;
  host.Add("nproc", std::to_string(std::thread::hardware_concurrency()));
  host.Add("simd_lane", Quoted(scout::simd::kLaneName));
  host.Add("build_type", Quoted(SCOUTBENCH_BUILD_TYPE));
  host.Add("ndebug", ReleaseBuild() ? "true" : "false");
  host.Add("compiler", Quoted(Compiler()));
  host.Add("loadavg_before", load_before);
  host.Add("loadavg_after", load_after);
  host.Add("cpu_steal_pct", Number(steal_pct));
  JsonObject facts;
  for (const auto& [name, value] : report.facts) facts.Add(name, Number(value));
  JsonObject samples;
  for (const Metric& m : report.metrics) {
    if (m.samples > 0) samples.Add(m.name, std::to_string(m.samples));
  }
  JsonObject info;
  info.Add("host", host.Close());
  info.Add("facts", facts.Close());
  info.Add("samples", samples.Close());
  std::printf("%s\n", info.Close().c_str());

  const bool correct = report.failures.empty();
  JsonObject metrics;
  for (const Metric& m : out) {
    JsonObject metric;
    metric.Add("value", Number(m.value));
    metric.Add("unit", Quoted(m.unit));
    metrics.Add(m.name, metric.Close());
  }
  JsonObject result;
  result.Add("correct", correct ? "true" : "false");
  result.Add("attempted", std::to_string(report.attempted));
  result.Add("failed", std::to_string(report.failed));
  result.Add("metrics", metrics.Close());
  std::printf("%s\n", result.Close().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

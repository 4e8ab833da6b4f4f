#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <vector>

namespace scoutbench {

/// Aggregate CPU time of the machine from /proc/stat, in clock ticks.
/// `steal` is time the hypervisor gave this machine's CPUs to someone
/// else while they had work: wall-clock measurements taken meanwhile
/// were disturbed from outside the program.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;

  static CpuTicks Now() {
    CpuTicks t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    unsigned long long v[8] = {};
    const int n =
        std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    std::fclose(f);
    if (n != 8) return t;
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
    return t;
  }

  /// Share of the CPU time since `earlier` that was stolen, in percent.
  double StealPctSince(const CpuTicks& earlier) const {
    const uint64_t ticks = total - earlier.total;
    return ticks == 0 ? 0.0
                      : 100.0 * static_cast<double>(steal - earlier.steal) /
                            static_cast<double>(ticks);
  }
};

/// Confines the calling thread, and every thread it starts meanwhile, to
/// the first `cpus` of the CPUs it may run on, for the life of the scope;
/// the previous set comes back after. A no-op where that set is already
/// no larger, or where the kernel refuses.
class ScopedCpuBudget {
 public:
  explicit ScopedCpuBudget(size_t cpus) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    if (static_cast<size_t>(CPU_COUNT(&saved_)) <= cpus) return;
    cpu_set_t budget;
    CPU_ZERO(&budget);
    size_t left = cpus;
    for (int c = 0; c < CPU_SETSIZE && left > 0; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &budget);
        --left;
      }
    }
    active_ = sched_setaffinity(0, sizeof(budget), &budget) == 0;
  }
  ~ScopedCpuBudget() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpuBudget(const ScopedCpuBudget&) = delete;
  ScopedCpuBudget& operator=(const ScopedCpuBudget&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Which of a run's chunks to take wall-clock metrics over, given each
/// chunk's steal share and sample count: every chunk with at most
/// `max_steal_pct` steal; when those are fewer than a quarter of the
/// chunks or hold fewer than `min_samples` samples (capped at the run's
/// total), the least-stolen chunks that make up both instead. Returns
/// chunk indices in run order.
inline std::vector<size_t> LeastStolen(const std::vector<double>& steal_pct,
                                       const std::vector<size_t>& samples,
                                       double max_steal_pct,
                                       size_t min_samples) {
  std::vector<size_t> order(steal_pct.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_pct[a] < steal_pct[b];
  });
  min_samples = std::min(
      min_samples, std::accumulate(samples.begin(), samples.end(), size_t{0}));
  size_t take = 0;
  size_t have = 0;
  while (take < order.size() &&
         (steal_pct[order[take]] <= max_steal_pct ||
          4 * take < order.size() || have < min_samples)) {
    have += samples[order[take]];
    ++take;
  }
  order.resize(take);
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace scoutbench

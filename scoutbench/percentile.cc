#include "percentile.h"

#include <algorithm>

namespace scoutbench {
namespace {

constexpr size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `pct` in a sample of `n`, in
/// integer arithmetic: ceil(pct * n / 100), at least 1.
size_t Rank(size_t n, int pct) {
  const size_t rank = (static_cast<size_t>(pct) * n + 99) / 100;
  return std::max<size_t>(1, rank);
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, int pct) {
  return sorted[Rank(sorted.size(), pct) - 1];
}

size_t SamplesBeyond(size_t n, int pct) { return n - Rank(n, pct); }

Percentile TailPercentile(std::vector<double> values, int wanted) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  int pct = std::clamp(wanted, 0, 100);
  while (pct >= 0 && SamplesBeyond(values.size(), pct) < kMinBeyond) --pct;
  if (pct < 0) return out;
  std::sort(values.begin(), values.end());
  out.pct = pct;
  out.value = NearestRank(values, pct);
  return out;
}

Percentile MedianOfWindows(const std::vector<double>& values, size_t window,
                           int wanted) {
  const size_t runs = window == 0 ? 0 : values.size() / window;
  if (runs < 2) return TailPercentile(values, wanted);
  Percentile out;
  out.samples = values.size();
  out.pct = wanted;
  std::vector<double> per_run;
  for (size_t r = 0; r < runs; ++r) {
    const auto begin = values.begin() + static_cast<ptrdiff_t>(r * window);
    const auto end = r + 1 == runs
                         ? values.end()
                         : begin + static_cast<ptrdiff_t>(window);
    const Percentile p =
        TailPercentile(std::vector<double>(begin, end), wanted);
    out.pct = std::min(out.pct, p.pct);
    per_run.push_back(p.value);
  }
  out.value = Median(per_run);
  return out;
}

std::string PercentileName(const std::string& base, int pct,
                           const std::string& unit) {
  return base + "_p" + std::to_string(pct) + "_" + unit;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace scoutbench

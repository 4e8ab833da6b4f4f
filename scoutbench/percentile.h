#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace scoutbench {

/// One reported percentile of a sample: which percentile it is, its
/// nearest-rank value and how many samples it was taken over.
struct Percentile {
  /// The percentile actually reported. Lower than the one asked for when
  /// the sample is too small to put ten samples beyond it; -1 when no
  /// percentile has ten samples beyond it (fewer than 11 samples).
  int pct = -1;
  double value = 0.0;
  size_t samples = 0;

  bool reported() const { return pct >= 0; }
};

/// Nearest-rank percentile: the value at 1-based rank ceil(pct/100 * n)
/// of the sorted sample. `sorted` must be ascending and non-empty.
double NearestRank(const std::vector<double>& sorted, int pct);

/// Samples that lie strictly beyond the nearest-rank `pct` percentile
/// (n - rank).
size_t SamplesBeyond(size_t n, int pct);

/// The highest whole percentile <= `wanted` that has at least ten
/// samples beyond it, with its nearest-rank value. A tail percentile
/// read off fewer samples than that is noise, so it is never reported
/// under the name of the percentile that was asked for.
Percentile TailPercentile(std::vector<double> values, int wanted);

/// The `wanted` percentile of each run of `window` consecutive samples
/// (in the order they were taken; a short remainder joins the last run),
/// reported as the median over the runs, with the sample count of all of
/// them. A burst of host noise then moves a few runs, not the result.
/// With fewer than `window` samples this is TailPercentile. `window` must
/// be large enough for `wanted` to keep ten samples beyond it.
Percentile MedianOfWindows(const std::vector<double>& values, size_t window,
                           int wanted);

/// Metric name of a percentile: "<base>_p<pct>_<unit>".
std::string PercentileName(const std::string& base, int pct,
                           const std::string& unit);

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty) — used for per-run repetitions, not for latency samples.
double Median(std::vector<double> values);

}  // namespace scoutbench

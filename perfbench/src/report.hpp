#pragma once
// Summary statistics and the result line of one benchmark run.
//
// End-to-end timings are reported as an interquartile mean plus a tail: the
// highest percentile that still has at least ten samples beyond it, capped
// at p99, reported with that percentile and the sample count, so a tail is
// never quoted from fewer samples than it claims. The cap keeps sweeps
// (hundreds of thousands of per-seed samples) from quoting p99.99+, which
// measures the host's scheduler rather than the program: across seeds its
// quartile spread was 67% of its median, against 2% at p99. The tail is an
// exact sample value; a median of an even count averages the two middle
// ones.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported tail value.
inline constexpr std::size_t kTailBeyond = 10;
/// The highest quantile a tail is quoted at.
inline constexpr double kTailCap = 0.99;

struct Tail {
  double value = 0;       // the sample at the tail rank
  double percentile = 0;  // 100 * (rank + 1) / samples
  std::size_t samples = 0;
  bool supported = false;  // false when samples <= kTailBeyond (value = max)
};

/// 0-based rank of the tail sample in an ascending order of `samples`
/// values: the highest rank with kTailBeyond samples above it, but no
/// higher than the kTailCap quantile. With samples <= kTailBeyond there is
/// no such rank and the last one is returned.
std::size_t tail_rank(std::size_t samples);

/// The q-quantile (0 <= q <= 1) by linear interpolation between the two
/// nearest ranks; 0 for no samples.
double quantile_of(std::vector<double> v, double q);
/// quantile_of(v, 0.5): the middle sample, or the mean of the two middle
/// ones.
double median_of(std::vector<double> v);
Tail tail_of(std::vector<double> v);
/// The interquartile mean: the mean of the middle half of the samples,
/// leaving out the lowest and the highest quarter (n / 4 each, rounded
/// down); 0 for no samples. Where the samples fall in groups with gaps
/// between them, a sample that moves across the middle shifts it by its
/// move over n / 2, where the median can jump the whole gap.
double interquartile_mean(std::vector<double> v);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints, in this order.
extern const std::vector<MetricDef> kEndToEndMetrics;
/// The per-layer metrics every traced run prints. A layer the workload
/// does not exercise (the socket layer on a sweep, the sweep layers on a
/// committee) reads 0.
extern const std::vector<MetricDef> kPerLayerMetrics;

using MetricValues = std::map<std::string, double>;

/// Collects named metrics in insertion order and prints the run's final
/// JSON line: {"correct","attempted","failed","metrics":{name:{value,unit}}}.
class Result {
 public:
  /// Adds every metric of `defs` in order, valued from `values` (0 where
  /// absent). Throws std::logic_error on a value whose name is not in
  /// `defs`, so a misspelt metric cannot vanish silently.
  void add_all(const std::vector<MetricDef>& defs, const MetricValues& values);
  /// Prints every metric as a readable line, then the JSON line last.
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench

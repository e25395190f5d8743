#pragma once
// Types and helpers shared by the benchmark's workloads.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path config_dir;  ///< perfbench/configs
  std::filesystem::path out_dir;     ///< scratch output (sinks, spans)
};

/// What one workload run produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness checks; any entry fails the run.
  std::vector<std::string> errors;
  /// Metric values by name (units live in main.cpp's tables).
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// Nearest-rank quantile (q in [0,1]) of `v`; 0 for an empty vector.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t k = static_cast<std::size_t>(rank);
  if (static_cast<double>(k) < rank) ++k;  // ceil
  return v[std::clamp<std::size_t>(k, 1, v.size()) - 1];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the middle half of `v` (a quarter dropped from each end); 0 for
/// an empty vector. Unlike the median it resolves finer than the values it
/// averages, and unlike the mean one outlier does not move it.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Peak resident set size of this process, in MB.
inline double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double seconds_between(std::uint64_t t0_ns, std::uint64_t t1_ns) {
  return 1e-9 * static_cast<double>(t1_ns - t0_ns);
}

/// A set-up of a few milliseconds or less is too short for one reading
/// to be steady, so it is repeated until the repeats add up to
/// kSetupBudgetS and the median repeat is reported.
constexpr double kSetupBudgetS = 0.7;

/// Median over repeats of `once`, which returns the seconds its timed
/// part took; repeats until they add up to kSetupBudgetS.
template <class F>
double repeat_median(F&& once) {
  std::vector<double> seconds;
  double total = 0.0;
  do {
    seconds.push_back(once());
    total += seconds.back();
  } while (total < kSetupBudgetS);
  return median(seconds);
}

/// Sets trace.overhead_s to the median of `diffs` (traced minus untraced
/// seconds of one `unit`, one entry per alternating pair) and
/// trace.overhead_spread_s to their range. The overhead is resolved only
/// when the median exceeds the range; otherwise it is below what the host
/// lets this run measure, whatever its sign.
inline void report_overhead(const std::vector<double>& diffs,
                            const std::string& unit, Outcome& out) {
  const auto [lo, hi] = std::minmax_element(diffs.begin(), diffs.end());
  const double med = median(diffs);
  const double spread = diffs.empty() ? 0.0 : *hi - *lo;
  out.set("trace.overhead_s", med);
  out.set("trace.overhead_spread_s", spread);
  char line[256];
  std::snprintf(line, sizeof line,
                "trace overhead: median %.4g s per %s over %zu pairs, range "
                "%.4g s: %s",
                med, unit.c_str(), diffs.size(), spread,
                med > spread ? "resolved" : "unresolved (median within range)");
  out.notes.push_back(line);
}

Outcome run_paper_fig06(const Options& o);
Outcome run_fed_spill(const Options& o);
Outcome run_serve_rt(const Options& o);

}  // namespace perfbench

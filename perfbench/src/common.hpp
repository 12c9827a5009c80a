// Shared pieces of the benchmark runner: clocks, sample statistics, seed
// derivation, the metric record every workload fills, and the
// determinism pins that must repeat bit for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mac/types.hpp"

namespace amac::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Median of a sample (mean of the two middle values for even sizes).
double median(std::vector<double> v);

/// The wall-clock statistic every timed figure reports: the lower decile
/// (10th percentile, interpolated) of repeated timings. On a shared host,
/// cache contention from other tenants slows single repetitions by up to
/// 2x; the fast tail of the timings is what repeats from run to run.
double low_decile(std::vector<double> times);

/// First quartile, median and third quartile (linear interpolation).
std::vector<double> quartiles(std::vector<double> v);

/// Nearest-rank percentile of tick samples, as bench_log_service folds
/// decide latencies: v[p * (size - 1)] of the sorted sample.
mac::Time percentile(std::vector<mac::Time> v, double p);

/// Tick samples pooled across repetitions, kept as counts per value so
/// the pool's memory does not grow with the number of repetitions.
class TickHistogram {
 public:
  void add(const std::vector<mac::Time>& samples);
  /// Same nearest-rank rule as percentile().
  [[nodiscard]] mac::Time percentile(double p) const;
  [[nodiscard]] std::uint64_t size() const { return total_; }

 private:
  std::map<mac::Time, std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Independent sub-seed for one use of --seed (splitmix64 of
/// seed and a salt), so the client stream, the scheduler and the held-out
/// inputs never share a random stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

inline constexpr std::uint64_t kStreamSalt = 0x5717EA3;
inline constexpr std::uint64_t kSchedulerSalt = 0x5C4ED;
inline constexpr std::uint64_t kHeldOutSalt = 0x4E1D0D7;

/// Moves the calling thread to the next CPU of the process's affinity mask,
/// round robin. Every timed repetition calls this first, so each run
/// samples every CPU it may use: on a shared host the CPUs of one machine
/// can differ in speed by more than 1.5x, and which one the scheduler
/// picks would otherwise decide a run's figures.
void pin_to_next_cpu();

/// The host's speed, sampled beside the timed work. On a shared host the
/// same code runs 15-30% slower or faster for minutes at a time, on every
/// CPU at once, so runs at different times disagree by more than any
/// in-run statistic can hide. Each repetition first times a fixed
/// reference workload on the CPU it is about to use: map updates and a
/// sort, in the benchmark's own code, which no library change can move.
/// The wall-clock end-to-end figures are scaled by its lower decile over
/// the run against its time at the reference speed, which tracks the
/// drift far better than it adds noise (NOTES.md).
class HostSpeed {
 public:
  /// Time of one reference pass on the host where the first numbers in
  /// NOTES.md were recorded, at its usual speed.
  static constexpr double kReferenceSeconds = 9.0e-3;

  /// Times one pass of the reference loop and keeps the sample.
  void sample();
  /// Lower decile of the sampled pass times over kReferenceSeconds: 1 at
  /// the reference speed, 1.2 on a host 20% slower. 1 with no samples.
  [[nodiscard]] double slowdown() const;
  [[nodiscard]] std::size_t samples() const { return times_.size(); }

 private:
  std::vector<double> times_;
};

/// Keeps a computed value alive so timed loops are not optimized away.
void keep(std::uint64_t v);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Deterministic observables of one run (ticks, counts, digests). Every
/// repetition of a workload at one seed must produce the same pins; the
/// runner also keeps them on disk so a later run at the same seed is
/// compared against them.
using Pins = std::map<std::string, std::string>;

/// What one workload invocation reports.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; units and the printed set come from the
  /// metric tables in main.cpp (a name the workload does not run reads 0).
  std::map<std::string, double> values;
  std::vector<Metric> text_metrics;  ///< extra lines printed by name only
  std::vector<std::string> problems; ///< any entry makes the run incorrect
  Pins pins;                         ///< --seed's deterministic observables
  Pins heldout_pins;                 ///< the held-out seed's
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Every repetition must reproduce the first repetition's pins exactly.
void check_same_pins(const Pins& first, const Pins& again, const char* what,
                     Report& report);

std::string fmt_double(double v);

}  // namespace amac::perfbench

#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

namespace amac::perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

namespace {
/// Interpolated quantile of a sorted, non-empty sample.
double quantile(const std::vector<double>& v, double p) {
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
}  // namespace

double low_decile(std::vector<double> times) {
  if (times.empty()) return 0;
  std::sort(times.begin(), times.end());
  return quantile(times, 0.1);
}

std::vector<double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0, 0};
  std::sort(v.begin(), v.end());
  return {quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)};
}

mac::Time percentile(std::vector<mac::Time> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[rank];
}

void TickHistogram::add(const std::vector<mac::Time>& samples) {
  for (const mac::Time t : samples) ++counts_[t];
  total_ += samples.size();
}

mac::Time TickHistogram::percentile(double p) const {
  if (total_ == 0) return 0;
  const auto rank =
      static_cast<std::uint64_t>(p * static_cast<double>(total_ - 1));
  std::uint64_t seen = 0;
  for (const auto& [tick, count] : counts_) {
    seen += count;
    if (seen > rank) return tick;
  }
  return counts_.rbegin()->first;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
volatile std::uint64_t g_sink = 0;

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    }
  }
  return cpus;
}
}  // namespace

void pin_to_next_cpu() {
  static const std::vector<int> cpus = allowed_cpus();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort: timing only
}

void keep(std::uint64_t v) { g_sink = g_sink + v; }

void HostSpeed::sample() {
  // Tree updates, a copy and a sort over 1,024 keys in a fixed
  // pseudo-random order: allocation, pointer chasing and unpredictable
  // branches, like the library's own code.
  constexpr int kRounds = 40;
  std::map<std::uint32_t, std::uint32_t> tree;
  std::uint64_t z = 7;
  std::uint64_t acc = 0;
  const auto next_key = [&z] {
    z = z * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>((z >> 40) & 1023);
  };
  const auto t0 = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (std::uint32_t k = 0; k < 1000; ++k) tree[next_key()] += k;
    std::vector<std::uint32_t> flat;
    flat.reserve(512);
    for (const auto& [key, value] : tree) flat.push_back(key ^ value);
    std::sort(flat.begin(), flat.end());
    acc += flat[flat.size() / 2];
    for (int k = 0; k < 500; ++k) tree.erase(next_key());
  }
  times_.push_back(seconds_between(t0, Clock::now()));
  keep(acc + tree.size());
}

double HostSpeed::slowdown() const {
  return times_.empty() ? 1.0 : low_decile(times_) / kReferenceSeconds;
}

double peak_rss_mb() {
  // VmHWM starts afresh at exec; getrusage's ru_maxrss would carry over
  // the peak of whatever process forked this one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void check_same_pins(const Pins& first, const Pins& again, const char* what,
                     Report& report) {
  for (const auto& [name, value] : again) {
    const auto it = first.find(name);
    if (it != first.end() && it->second != value) {
      report.problems.push_back(std::string(what) + ": " + name + " was " +
                                it->second + ", now " + value);
    }
  }
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace amac::perfbench

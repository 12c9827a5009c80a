// perfbench: the repository's benchmark runner. Runs one named workload
// through the public API, checks its outputs, and prints one JSON line
// with either the end-to-end metrics (untraced) or the per-layer metrics
// (--trace 1). See ../NOTES.md for the workloads and metrics.
//
//   perfbench --workload log-leased --seed 1 --seconds 10 --trace 0
//             [--pins-dir DIR]
//   perfbench --selftest     # replays the known agreement defect
#include <cmath>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "common.hpp"
#include "fuzz_bench.hpp"
#include "log_bench.hpp"
#include "util/parse.hpp"

namespace {

using namespace amac::perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json names, in print order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"decide_p50_ticks", "ticks"},
    {"decide_p99_ticks", "ticks"},
    {"bytes_per_op", "B"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"mac.self_ns_per_event", "ns"},
    {"mac.events_per_op", "count"},
    {"mac.broadcasts_per_op", "count"},
    {"mac.deliveries_per_op", "count"},
    {"mac.live_event_share", "ratio"},
    {"mac.batch_push_share", "ratio"},
    {"mac.overflow_share", "ratio"},
    {"mac.peak_events", "count"},
    {"mac.pool_slots", "count"},
    {"mac.instances", "count"},
    {"core.wpaxos.callback_ns", "ns"},
    {"core.wpaxos.callbacks_per_slot", "count"},
    {"core.wpaxos.bytes_per_slot", "B"},
    {"core.commit_flood.callback_ns", "ns"},
    {"core.commit_flood.callbacks_per_slot", "count"},
    {"serde.wpaxos_roundtrip_ns", "ns"},
    {"log.drive_s", "s"},
    {"log.layer_sum_s", "s"},
    {"log.service_self_ns_per_op", "ns"},
    {"log.residual_share", "ratio"},
    {"log.kv.apply_ns", "ns"},
    {"log.kv.get_ns", "ns"},
    {"log.ops_per_slot", "count"},
    {"log.leased_share", "ratio"},
    {"log.full_paxos_slots", "count"},
    {"log.recovered_slots", "count"},
    {"log.relaunches", "count"},
    {"log.re_elections", "count"},
    {"log.read_p99_ticks", "ticks"},
    {"log.outage_ticks", "ticks"},
    {"verify.slot_oracle_ns", "ns"},
    {"verify.log_prefix_ns_per_slot", "ns"},
    {"net.graph_build_s", "s"},
    {"fuzz.generate_ns", "ns"},
    {"fuzz.run_ns", "ns"},
    {"fuzz.differential_ns", "ns"},
    {"fuzz.signature_ns", "ns"},
    {"fuzz.mutate_ns", "ns"},
    {"fuzz.spec_roundtrip_ns", "ns"},
    {"fuzz.events_per_scenario", "count"},
    {"fuzz.novel_share", "ratio"},
    {"fuzz.mutated_share", "ratio"},
    {"fuzz.signatures", "count"},
    {"failed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "{log-leased|log-paxos|log-failover|fuzz-soak} --seed N "
               "--seconds S --trace {0|1} [--pins-dir DIR]\n"
               "       perfbench --selftest\n");
  return 2;
}

Pins read_pins(const std::string& path) {
  Pins pins;
  std::ifstream in(path);
  std::string name;
  std::string value;
  while (in >> name >> value) pins[name] = value;
  return pins;
}

/// Compares `fresh` against the pins an earlier run at the same seed left
/// in `path`, then stores the union.
void reconcile_pins(const std::string& path, const Pins& fresh,
                    const char* what, Report& report) {
  Pins stored = read_pins(path);
  check_same_pins(stored, fresh, what, report);
  for (const auto& [name, value] : fresh) stored.emplace(name, value);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [name, value] : stored) out << name << ' ' << value << '\n';
  }
  std::rename(tmp.c_str(), path.c_str());
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

int run_selftest() {
  const KnownDefectReplay r = replay_known_defect();
  if (!r.parsed) {
    std::printf("known-defect replay: spec did not parse\n");
    return 1;
  }
  std::printf("known-defect replay: %s\n", kKnownDefectSpec);
  std::printf("  attempted=1 failed=%d failure=%s\n", r.violated ? 1 : 0,
              r.failure.c_str());
  std::printf("  detail: %s\n", r.detail.c_str());
  std::printf("  the replay returned normally: the defect is a counted "
              "failure, not a crash\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string pins_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--selftest") return run_selftest();
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto v = amac::util::parse_u64(value);
      if (!v) return usage();
      options.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = amac::util::parse_u64(value);
      if (!v || *v == 0) return usage();
      options.seconds = static_cast<double>(*v);
    } else if (arg == "--trace") {
      const std::string_view t = value;
      if (t != "0" && t != "1") return usage();
      options.trace = t == "1";
    } else if (arg == "--pins-dir") {
      pins_dir = value;
    } else {
      return usage();
    }
  }
  const bool fuzz = options.workload == "fuzz-soak";
  if (!have_workload || (!fuzz && !is_log_workload(options.workload))) {
    return usage();
  }

  Report report;
  if (fuzz) {
    run_fuzz_workload(options, report);
  } else {
    run_log_workload(options, report);
  }
  if (!pins_dir.empty()) {
    const std::string stem =
        pins_dir + "/" + options.workload + "-" + std::to_string(options.seed);
    reconcile_pins(stem + ".pins", report.pins, "earlier run", report);
    reconcile_pins(stem + ".heldout.pins", report.heldout_pins,
                   "earlier held-out run", report);
  }

  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  const auto value_of = [&](const char* name) {
    const auto it = report.values.find(name);
    return it == report.values.end() ? 0.0 : it->second;
  };
  std::ostringstream json;
  json << "{\"correct\": " << (report.problems.empty() ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& defs : {std::span<const MetricDef>(kEndToEnd),
                           std::span<const MetricDef>(kPerLayer)}) {
    const bool printed = (defs.data() == kPerLayer) == options.trace;
    if (!printed) continue;
    for (const MetricDef& d : defs) {
      const double v = value_of(d.name);
      std::printf("  %-38s %.6g %s\n", d.name, v, d.unit);
      json << (first ? "" : ", ") << "\"" << d.name
           << "\": {\"value\": " << json_number(v) << ", \"unit\": \""
           << d.unit << "\"}";
      first = false;
    }
  }
  json << "}}";
  for (const Metric& m : report.text_metrics) {
    std::printf("  %-38s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!options.trace) {  // the traced set prints it as a metric
    std::printf("  %-38s %.6g ratio\n", "failed_share",
                static_cast<double>(report.failed) /
                    static_cast<double>(report.attempted == 0
                                            ? 1
                                            : report.attempted));
  }
  for (const auto& [name, value] : report.heldout_pins) {
    std::printf("  held-out %-29s %s\n", name.c_str(), value.c_str());
  }
  for (const std::string& p : report.problems) {
    std::printf("PROBLEM %s\n", p.c_str());
  }
  std::printf("%s\n", json.str().c_str());
  return 0;
}

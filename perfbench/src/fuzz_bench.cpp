#include "fuzz_bench.hpp"

#include <algorithm>

#include "fuzz/fuzzer.hpp"
#include "fuzz/scenario.hpp"
#include "harness/experiment.hpp"
#include "tracing.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "verify/checker.hpp"

namespace amac::perfbench {
namespace {

constexpr std::size_t kSoakCount = 5000;
/// The soak is timed in chunks of this many scenarios; each chunk's time
/// is the lower decile over repetitions, so a burst of machine noise in
/// one repetition does not move the figure.
constexpr std::size_t kChunk = 250;

/// The timed soak always covers the fixed range of seeds 1..5000: every
/// count and tick it reports is then the same at any --seed, and only
/// wall-clock figures vary. --seed picks the held-out block instead.
constexpr std::uint64_t kTimedSeedBase = 1;

/// Seed base of the held-out block for --seed: one of the 1000 blocks of
/// kSoakCount seeds after the timed range.
std::uint64_t heldout_seed_base(std::uint64_t seed) {
  return 1 + (1 + derive_seed(seed, kHeldOutSalt) % 1000) * kSoakCount;
}

fuzz::SoakOptions soak_options(std::uint64_t seed_base) {
  fuzz::SoakOptions o;
  o.seed_base = seed_base;
  o.count = kSoakCount;
  o.jobs = 1;
  o.mutate_ratio = 0.35;
  o.log_every = 40;
  o.differential_every = 7;
  o.shrink_failures = false;
  return o;
}

/// What the soak hook records per scenario. Always on: the decide ticks
/// and byte counts are end-to-end figures. The traced run also keeps
/// every scenario and report for the per-function replays.
struct SoakLog {
  std::vector<mac::Time> decide_ticks;
  std::uint64_t payload_bytes = 0;
  std::uint64_t events = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t acks = 0;
  std::uint64_t batch_pushes = 0;
  std::uint64_t overflow_pushes = 0;
  std::size_t peak_events = 0;
  std::vector<Clock::time_point> done_at;  ///< when each scenario finished
  /// When each chunk's timing began: after the move to its CPU and the
  /// host-speed sample there, which stay out of the timed span.
  std::vector<Clock::time_point> chunk_begin;
  double calibration_s = 0;  ///< time the soak spent in host samples
  HostSpeed* host = nullptr;
  bool capture = false;
  std::vector<fuzz::Scenario> scenarios;
  std::vector<fuzz::RunReport> reports;
};

struct SoakRep {
  double soak_s = 0;
  std::vector<double> chunk_s;  ///< wall time of each kChunk scenarios
  fuzz::SoakResult result;
  SoakLog log;
  Pins pins;
  mac::Time decide_p50 = 0;
  mac::Time decide_p99 = 0;
  double bytes_per_op = 0;
};

/// Moves to the next CPU and, when `log.host` is set, samples the host
/// speed there. Chunk timing begins after both.
void start_chunk(SoakLog& log) {
  pin_to_next_cpu();
  if (log.host != nullptr) {
    const auto c0 = Clock::now();
    log.host->sample();
    log.calibration_s += seconds_between(c0, Clock::now());
  }
  log.chunk_begin.push_back(Clock::now());
}

SoakRep run_rep(std::uint64_t seed_base, bool capture, HostSpeed* host) {
  SoakRep rep;
  rep.log.capture = capture;
  rep.log.host = host;
  fuzz::SoakOptions options = soak_options(seed_base);
  SoakLog& log = rep.log;
  options.on_scenario = [&log](std::size_t, const fuzz::Scenario& s,
                               const fuzz::RunReport& r) {
    // One-shot instances start at tick 0, so the last decision tick is
    // the instance's decide latency.
    if (!r.log_service && r.verdict.termination) {
      log.decide_ticks.push_back(r.verdict.last_decision);
    }
    log.payload_bytes += r.stats.payload_bytes;
    log.events += events_pushed(r.stats);
    log.broadcasts += r.stats.broadcasts;
    log.deliveries += r.stats.deliveries;
    log.acks += r.stats.acks;
    log.batch_pushes += r.stats.batch_pushes;
    log.overflow_pushes += r.stats.overflow_pushes;
    log.peak_events = std::max(log.peak_events, r.stats.peak_events);
    log.done_at.push_back(Clock::now());
    // One move per repetition plus one per chunk: chunk c lands on a
    // different CPU in each repetition.
    if (log.done_at.size() % kChunk == 0) start_chunk(log);
    if (log.capture) {
      log.scenarios.push_back(s);
      log.reports.push_back(r);
    }
  };
  log.done_at.reserve(kSoakCount);
  start_chunk(log);
  const auto t1 = log.chunk_begin.front();
  log.calibration_s = 0;  // the sample before t1 is outside the span
  rep.result = fuzz::run_soak(options);
  const auto t2 = Clock::now();
  rep.soak_s = seconds_between(t1, t2) - log.calibration_s;
  for (std::size_t i = kChunk; i <= log.done_at.size(); i += kChunk) {
    rep.chunk_s.push_back(
        seconds_between(log.chunk_begin[i / kChunk - 1], log.done_at[i - 1]));
  }

  const fuzz::SoakResult& res = rep.result;
  rep.decide_p50 = percentile(log.decide_ticks, 0.50);
  rep.decide_p99 = percentile(log.decide_ticks, 0.99);
  rep.bytes_per_op = res.runs == 0 ? 0
                                   : static_cast<double>(log.payload_bytes) /
                                         static_cast<double>(res.runs);
  util::Hasher failures;
  for (const fuzz::SoakFailure& f : res.failures) {
    failures.mix_string(fuzz::format_spec(f.scenario));
    failures.mix_u64(static_cast<std::uint64_t>(f.report.failure));
  }
  Pins& p = rep.pins;
  p["corpus_digest"] = std::to_string(res.corpus_digest);
  p["runs"] = std::to_string(res.runs);
  p["signatures"] = std::to_string(res.coverage.distinct);
  p["novel_runs"] = std::to_string(res.novel_runs);
  p["mutated_runs"] = std::to_string(res.mutated_runs);
  p["log_scenarios"] = std::to_string(res.log_scenarios);
  p["differential_runs"] = std::to_string(res.differential_runs);
  p["violations"] = std::to_string(res.failures.size());
  p["violation_digest"] = std::to_string(failures.digest());
  p["decide_p50_ticks"] = std::to_string(rep.decide_p50);
  p["decide_p99_ticks"] = std::to_string(rep.decide_p99);
  p["bytes_per_op"] = fmt_double(rep.bytes_per_op);
  p["mac.events"] = std::to_string(log.events);
  p["mac.broadcasts"] = std::to_string(log.broadcasts);
  p["mac.deliveries"] = std::to_string(log.deliveries);
  return rep;
}

template <typename F>
double mean_ns(std::size_t calls, F&& body) {
  if (calls == 0) return 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) body(i);
  return static_cast<double>(ns_between(t0, Clock::now())) /
         static_cast<double>(calls);
}

/// Per-function and per-layer figures from the scenarios one soak ran.
void traced_layers(const SoakRep& rep, Report& report) {
  const SoakLog& log = rep.log;
  const fuzz::SoakResult& res = rep.result;
  const fuzz::SoakOptions options = soak_options(kTimedSeedBase);
  const std::size_t runs = log.scenarios.size();
  auto& v = report.values;

  std::uint64_t sink = 0;
  v["fuzz.generate_ns"] = mean_ns(runs, [&](std::size_t i) {
    sink += fuzz::generate_scenario(log.scenarios[i].seed).n;
  });
  v["fuzz.signature_ns"] = mean_ns(runs, [&](std::size_t i) {
    sink += fuzz::coverage_signature(log.scenarios[i], log.reports[i]).key();
  });
  std::size_t spec_mismatches = 0;
  v["fuzz.spec_roundtrip_ns"] = mean_ns(runs, [&](std::size_t i) {
    const auto parsed = fuzz::parse_spec(fuzz::format_spec(log.scenarios[i]));
    if (!parsed.has_value()) {
      ++spec_mismatches;
    } else {
      sink += parsed->n;
    }
  });
  for (std::size_t i = 0; i < runs; i += 97) {
    const auto parsed = fuzz::parse_spec(fuzz::format_spec(log.scenarios[i]));
    if (!parsed.has_value() ||
        fuzz::format_spec(*parsed) != fuzz::format_spec(log.scenarios[i])) {
      ++spec_mismatches;
    }
  }
  if (spec_mismatches != 0) {
    report.problems.push_back("spec round trip failed for " +
                              std::to_string(spec_mismatches) + " scenarios");
  }
  if (!res.corpus.empty()) {
    util::Rng rng(res.corpus_digest);
    constexpr std::size_t kMutations = 4000;
    v["fuzz.mutate_ns"] = mean_ns(kMutations, [&](std::size_t i) {
      const fuzz::Scenario& base = res.corpus[i % res.corpus.size()];
      const fuzz::Scenario& partner =
          res.corpus[(i * 7 + 3) % res.corpus.size()];
      sink += fuzz::mutate_scenario(base, &partner, rng).n;
    });
  }

  // Sampled scenarios re-run through run_scenario, with and without the
  // differential replay on the reference engine. The stride is prime so
  // the sample does not line up with the soak's every-40th log promotion
  // or every-7th differential.
  constexpr std::size_t kRunSample = 250;
  constexpr std::size_t kStride = 7919;
  std::vector<std::size_t> picks;
  for (std::size_t i = 0; i < std::min(kRunSample, runs); ++i) {
    picks.push_back(i * kStride % runs);
  }
  std::uint64_t plain_ns = 0;
  std::uint64_t diff_plain_ns = 0;
  std::uint64_t diff_ns = 0;
  std::size_t diff_count = 0;
  std::size_t rerun_mismatches = 0;
  for (const std::size_t i : picks) {
    const fuzz::Scenario& s = log.scenarios[i];
    fuzz::RunOptions plain_options;
    const auto t0 = Clock::now();
    const fuzz::RunReport plain = fuzz::run_scenario(s, plain_options);
    const std::uint64_t ns = ns_between(t0, Clock::now());
    plain_ns += ns;
    if (plain.fingerprint != log.reports[i].fingerprint) ++rerun_mismatches;
    if (s.log_ops == 0 && s.n <= options.differential_max_n) {
      fuzz::RunOptions diff_options;
      diff_options.differential = true;
      const auto d0 = Clock::now();
      const fuzz::RunReport diff = fuzz::run_scenario(s, diff_options);
      diff_ns += ns_between(d0, Clock::now());
      diff_plain_ns += ns;
      ++diff_count;
      sink += diff.reference_fingerprint;
    }
  }
  if (rerun_mismatches != 0) {
    report.problems.push_back(std::to_string(rerun_mismatches) +
                              " scenarios re-ran to a different fingerprint");
  }
  v["fuzz.run_ns"] = picks.empty() ? 0
                                   : static_cast<double>(plain_ns) /
                                         static_cast<double>(picks.size());
  v["fuzz.differential_ns"] =
      diff_count == 0 ? 0
                      : (static_cast<double>(diff_ns) -
                         static_cast<double>(diff_plain_ns)) /
                            static_cast<double>(diff_count);

  // Solo replays of sampled one-shot scenarios with timed processes: the
  // engine's own time per event and the protocol callbacks.
  CallbackTally wpaxos_tally;
  CallbackTally other_tally;
  std::vector<util::Buffer> payloads;
  wpaxos_tally.payloads = &payloads;
  wpaxos_tally.payload_cap = 50000;
  std::uint64_t plain_run_ns = 0;
  std::uint64_t traced_run_ns = 0;
  std::uint64_t plain_events = 0;
  std::uint64_t oracle_ns = 0;
  std::size_t oracle_calls = 0;
  std::uint64_t build_ns = 0;
  std::size_t builds = 0;
  std::size_t wpaxos_runs = 0;
  std::uint64_t wpaxos_bytes = 0;
  for (const std::size_t i : picks) {
    const fuzz::Scenario& s = log.scenarios[i];
    if (s.log_ops != 0 || s.n > 256) continue;
    const bool wpaxos = s.algorithm == harness::Algorithm::kWPaxos;
    CallbackTally& tally = wpaxos ? wpaxos_tally : other_tally;
    for (const bool traced : {false, true}) {
      const auto b0 = Clock::now();
      fuzz::BuiltScenario b = fuzz::build_scenario(s);
      build_ns += ns_between(b0, Clock::now());
      ++builds;
      const auto prepare = [&](mac::Network& net) {
        if (!b.faults.empty()) net.set_link_faults(b.faults);
        for (const mac::CrashPlan& plan : b.crashes) net.schedule_crash(plan);
        if (s.late_holds) fuzz::apply_holds(s, b);
      };
      const auto inspect = [&](const mac::Network& net) {
        if (!traced) return;
        const auto o0 = Clock::now();
        sink += verify::check_consensus(net, b.inputs).agreement ? 1 : 0;
        oracle_ns += ns_between(o0, Clock::now());
        ++oracle_calls;
      };
      const SoloRun run = run_solo(
          b.graph, traced ? timed_factory(b.factory, tally) : b.factory,
          *b.scheduler, prepare, SoloEnd::kAllDecided, s.horizon,
          inspect);
      if (traced) {
        traced_run_ns += run.run_ns;
      } else {
        plain_run_ns += run.run_ns;
        plain_events += run.events;
      }
    }
    if (wpaxos) {
      ++wpaxos_runs;
      wpaxos_bytes += log.reports[i].stats.payload_bytes;
    }
  }
  keep(sink);

  const auto per = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const double ops = static_cast<double>(res.runs);
  const double events = static_cast<double>(log.events);
  // Engine self time: the untraced replays minus the (span-cost
  // corrected) callback time the traced replays recorded.
  const double span_ns = empty_span_ns();
  const double wpaxos_cb_ns = corrected_callback_ns(wpaxos_tally, span_ns);
  const double other_cb_ns = corrected_callback_ns(other_tally, span_ns);
  v["mac.self_ns_per_event"] =
      per(static_cast<double>(plain_run_ns) - wpaxos_cb_ns - other_cb_ns,
          static_cast<double>(plain_events));
  v["mac.events_per_op"] = per(events, ops);
  v["mac.broadcasts_per_op"] = per(static_cast<double>(log.broadcasts), ops);
  v["mac.deliveries_per_op"] = per(static_cast<double>(log.deliveries), ops);
  v["mac.live_event_share"] =
      per(static_cast<double>(log.deliveries + log.acks), events);
  v["mac.batch_push_share"] = per(static_cast<double>(log.batch_pushes),
                                  static_cast<double>(log.broadcasts));
  v["mac.overflow_share"] = per(static_cast<double>(log.overflow_pushes), events);
  v["mac.peak_events"] = static_cast<double>(log.peak_events);
  v["core.wpaxos.callback_ns"] =
      per(wpaxos_cb_ns, static_cast<double>(wpaxos_tally.callbacks));
  v["core.wpaxos.callbacks_per_slot"] =
      per(static_cast<double>(wpaxos_tally.callbacks),
          static_cast<double>(wpaxos_runs));
  v["core.wpaxos.bytes_per_slot"] =
      per(static_cast<double>(wpaxos_bytes), static_cast<double>(wpaxos_runs));
  const double serde_ns = wpaxos_roundtrip_ns(payloads);
  if (serde_ns < 0) {
    report.problems.push_back("wPAXOS codec round trip changed bytes");
  }
  v["serde.wpaxos_roundtrip_ns"] = std::max(serde_ns, 0.0);
  v["verify.slot_oracle_ns"] =
      per(static_cast<double>(oracle_ns), static_cast<double>(oracle_calls));
  v["net.graph_build_s"] =
      per(static_cast<double>(build_ns) * 1e-9, static_cast<double>(builds));
  v["fuzz.events_per_scenario"] = per(events, ops);
  v["fuzz.novel_share"] = per(static_cast<double>(res.novel_runs), ops);
  v["fuzz.mutated_share"] = per(static_cast<double>(res.mutated_runs), ops);
  v["fuzz.signatures"] = static_cast<double>(res.coverage.distinct);
  v["trace.overhead_share"] =
      per(static_cast<double>(traced_run_ns), static_cast<double>(plain_run_ns)) -
      1.0;
  report.text_metrics.push_back(
      {"reconcile.soak_s", rep.soak_s, "s"});
  report.text_metrics.push_back(
      {"reconcile.run_calls_s",
       per(static_cast<double>(plain_ns) * ops * 1e-9,
           static_cast<double>(picks.size())),
       "s"});
  report.text_metrics.push_back(
      {"reconcile.other_callback_ns",
       per(other_cb_ns, static_cast<double>(other_tally.callbacks)),
       "ns"});
}

}  // namespace

KnownDefectReplay replay_known_defect() {
  KnownDefectReplay out;
  const auto scenario = fuzz::parse_spec(kKnownDefectSpec);
  if (!scenario.has_value()) return out;
  out.parsed = true;
  const fuzz::RunReport r = fuzz::run_scenario(*scenario);
  out.violated = r.failure != fuzz::FailureKind::kNone;
  out.failure = fuzz::failure_name(r.failure);
  out.detail = r.detail;
  return out;
}

void run_fuzz_workload(const Options& options, Report& report) {
  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<std::vector<double>> chunks;  ///< per chunk, one time per rep
  SoakRep last;
  HostSpeed host;
  const auto start = Clock::now();
  const double budget = options.trace ? 0 : options.seconds;
  while (rates.empty() || (!options.trace && rates.size() < 3) ||
         seconds_between(start, Clock::now()) < budget) {
    last = SoakRep{};
    last = run_rep(kTimedSeedBase, options.trace, &host);
    rates.push_back(static_cast<double>(last.result.runs) / last.soak_s);
    chunks.resize(last.chunk_s.size());
    for (std::size_t c = 0; c < last.chunk_s.size(); ++c) {
      chunks[c].push_back(last.chunk_s[c]);
    }
    if (report.pins.empty()) {
      // Every repetition runs the same scenarios (the pins, violations
      // included, must repeat), so each scenario counts once and the
      // counts do not depend on how many repetitions fit in the run.
      report.attempted += last.result.runs;
      report.failed += last.result.failures.size();
      report.pins = last.pins;
    } else {
      check_same_pins(report.pins, last.pins, "repetition", report);
    }
  }
  const double rss = peak_rss_mb();
  // Set-up (the soak options and the known-defect spec) takes about a
  // microsecond, so it is timed in batches and reported per set-up.
  constexpr int kSetupsPerBatch = 2000;
  while (setups.size() < 31) {
    pin_to_next_cpu();
    host.sample();
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      fuzz::SoakOptions o = soak_options(kTimedSeedBase);
      const auto parsed = fuzz::parse_spec(kKnownDefectSpec);
      keep(o.seed_base + (parsed.has_value() ? parsed->n : 0));
    }
    setups.push_back(seconds_between(t0, Clock::now()) / kSetupsPerBatch);
  }
  double soak_s = 0;
  for (const std::vector<double>& c : chunks) soak_s += low_decile(c);

  // The known defect, replayed on every run: it counts as one attempted
  // op that failed for as long as the defect stands.
  const KnownDefectReplay known = replay_known_defect();
  ++report.attempted;
  if (!known.parsed) {
    report.problems.push_back("known-defect spec no longer parses");
  } else if (known.violated) {
    ++report.failed;
  }
  report.text_metrics.push_back(
      {"known_defect_failed", known.violated ? 1.0 : 0.0, "count"});

  if (options.trace) {
    traced_layers(last, report);
    report.values["failed_share"] =
        static_cast<double>(report.failed) /
        static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  } else {
    auto& v = report.values;
    v["setup_s"] = low_decile(setups) / host.slowdown();
    v["ops_per_s"] =
        static_cast<double>(kSoakCount) / soak_s * host.slowdown();
    v["decide_p50_ticks"] = static_cast<double>(last.decide_p50);
    v["decide_p99_ticks"] = static_cast<double>(last.decide_p99);
    v["bytes_per_op"] = last.bytes_per_op;
    v["peak_rss_mb"] = rss;
  }
  report.text_metrics.push_back(
      {"scenarios_per_s",
       static_cast<double>(kSoakCount) / soak_s * host.slowdown(), "1/s"});
  report.text_metrics.push_back(
      {"ops_per_s.measured", static_cast<double>(kSoakCount) / soak_s, "1/s"});
  report.text_metrics.push_back(
      {"setup_s.measured", low_decile(setups), "s"});
  report.text_metrics.push_back({"host.slowdown", host.slowdown(), "ratio"});
  const std::vector<double> q = quartiles(rates);
  report.text_metrics.push_back({"whole_soak_per_s.median", q[1], "1/s"});
  report.text_metrics.push_back({"whole_soak_per_s.q1", q[0], "1/s"});
  report.text_metrics.push_back({"whole_soak_per_s.q3", q[2], "1/s"});
  report.text_metrics.push_back(
      {"signatures", static_cast<double>(last.result.coverage.distinct),
       "count"});
  report.text_metrics.push_back(
      {"violations", static_cast<double>(last.result.failures.size()),
       "count"});
  report.text_metrics.push_back(
      {"decide_samples", static_cast<double>(last.log.decide_ticks.size()),
       "count"});
  report.text_metrics.push_back(
      {"repetitions", static_cast<double>(rates.size()), "count"});
  for (const fuzz::SoakFailure& f : last.result.failures) {
    report.text_metrics.push_back(
        {"violation " + fuzz::format_spec(f.scenario), 1.0, "count"});
  }
  last = SoakRep{};

  const SoakRep held =
      run_rep(heldout_seed_base(options.seed), false, nullptr);
  report.attempted += held.result.runs;
  report.failed += held.result.failures.size();
  report.heldout_pins = held.pins;
}

}  // namespace amac::perfbench

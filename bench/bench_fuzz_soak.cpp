// Fuzz soak entry point: the CI fuzz lane and the command-line replay tool.
//
//   ./bench_fuzz_soak --count 1000                 # soak seeds [1, 1000]
//   ./bench_fuzz_soak --count 40000 --jobs 4       # sharded parallel soak
//                         (merged digest bit-identical to --jobs 1 when
//                          mutation is off; see fuzzer.hpp "Sharded")
//   ./bench_fuzz_soak --seed-base 5000 --count 200 # a different corpus
//   ./bench_fuzz_soak --count 20000 --mutate 0.35  # coverage-steered soak
//   ./bench_fuzz_soak --count 2000 --fault-rate 0.05 --dup-rate 0.02
//                                                  # unreliable-link floor
//   ./bench_fuzz_soak --count 2000 --large-every 250 --large-n 4096
//                                                  # large-topology family
//   ./bench_fuzz_soak --count 2000 --log-every 40  # replicated-log family
//   ./bench_fuzz_soak --count 100000 --max-seconds 300 --no-shrink
//                                                  # wall-clock-budgeted
//   ./bench_fuzz_soak --replay <spec-or-seed>      # one scenario, verbose
//   ./bench_fuzz_soak --replay <spec> --expect-digest 0xABCD  # CI pinning
//   ./bench_fuzz_soak ... --corpus-out corpus.txt  # dump mutation corpus
//   ./bench_fuzz_soak ... --corpus-in corpus.txt   # pre-seed it
//
// Exit status: 0 when every scenario upholds its properties (and, for
// --replay --expect-digest, the digest matches); 1 otherwise; 2 on a bad
// command line. Every numeric flag is parsed strictly: "--count abc" is a
// usage error, never a silent zero-scenario soak. So is a flag given twice,
// a soak flag given with --replay, --expect-digest without --replay, and
// --corpus-strict without --corpus-in. On any violation a
// minimal self-contained repro line is printed; paste it back via --replay
// to reproduce the identical run. See fuzz/fuzzer.hpp for the full fuzzing
// HOWTO.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "fuzz/corpus_io.hpp"
#include "fuzz/fuzzer.hpp"
#include "util/parse.hpp"

namespace {

using namespace amac;

struct CliOptions {
  fuzz::SoakOptions soak;
  std::string replay;
  std::string corpus_out;
  std::string corpus_in;
  std::optional<std::uint64_t> expect_digest;
  bool corpus_strict = false;
  bool no_shrink = false;
  bool sig_version = false;
  std::size_t progress_every = 0;
};

void print_report(const fuzz::Scenario& s, const fuzz::RunReport& r) {
  std::printf("scenario  %s\n", fuzz::format_spec(s).c_str());
  std::printf("verdict   %s\n", r.verdict.summary().c_str());
  std::printf("result    failure=%s end_time=%llu broadcasts=%llu "
              "deliveries=%llu acks=%llu mid_flight_crashes=%zu "
              "drops=%llu duplicates=%llu\n",
              fuzz::failure_name(r.failure),
              static_cast<unsigned long long>(r.end_time),
              static_cast<unsigned long long>(r.stats.broadcasts),
              static_cast<unsigned long long>(r.stats.deliveries),
              static_cast<unsigned long long>(r.stats.acks),
              r.mid_flight_crashes,
              static_cast<unsigned long long>(r.stats.drops),
              static_cast<unsigned long long>(r.stats.duplicates));
  std::printf("calendar  wheel=%llu overflow=%llu resizes=%llu batch=%llu "
              "span=%zu\n",
              static_cast<unsigned long long>(r.stats.wheel_pushes),
              static_cast<unsigned long long>(r.stats.overflow_pushes),
              static_cast<unsigned long long>(r.stats.wheel_resizes),
              static_cast<unsigned long long>(r.stats.batch_pushes),
              r.stats.wheel_span);
  std::printf("protocol  rounds=%llu coins=%llu proposals=%llu changes=%llu "
              "learned=%llu\n",
              static_cast<unsigned long long>(r.protocol.max_round),
              static_cast<unsigned long long>(r.protocol.coin_flips),
              static_cast<unsigned long long>(r.protocol.proposals),
              static_cast<unsigned long long>(r.protocol.change_events),
              static_cast<unsigned long long>(r.protocol.max_learned));
  if (r.log_service) {
    std::printf("log       recovered=%zu re_elections=%zu lease_broken=%d "
                "kv=0x%016llx\n",
                r.log_slots_recovered, r.log_re_elections,
                r.log_lease_broken ? 1 : 0,
                static_cast<unsigned long long>(r.log_kv_digest));
  }
  const fuzz::CoverageSignature sig = fuzz::coverage_signature(s, r);
  std::printf("coverage  signature=0x%016llx (engine=0x%013llx "
              "protocol=0x%04llx, space v%u)\n",
              static_cast<unsigned long long>(sig.key()),
              static_cast<unsigned long long>(sig.engine_key()),
              static_cast<unsigned long long>(sig.protocol_key()),
              fuzz::kSignatureSpaceVersion);
  std::printf("digest    fingerprint=0x%016llx trace=0x%016llx\n",
              static_cast<unsigned long long>(r.fingerprint),
              static_cast<unsigned long long>(r.trace_digest));
  if (r.differential_ran) {
    std::printf("reference fingerprint=0x%016llx (%s)\n",
                static_cast<unsigned long long>(r.reference_fingerprint),
                r.failure == fuzz::FailureKind::kDifferential ? "MISMATCH"
                                                              : "match");
  }
  if (!r.detail.empty()) std::printf("detail    %s\n", r.detail.c_str());
}

int run_replay(const CliOptions& cli) {
  const auto scenario = fuzz::parse_spec(cli.replay);
  if (!scenario) {
    std::fprintf(stderr, "error: malformed --replay spec: %s\n",
                 cli.replay.c_str());
    return 2;
  }
  fuzz::RunOptions options;
  options.differential = true;  // replays are rare: always cross-check
  const auto report = fuzz::run_scenario(*scenario, options);
  print_report(*scenario, report);

  bool ok = report.failure == fuzz::FailureKind::kNone;
  if (cli.expect_digest && report.fingerprint != *cli.expect_digest) {
    std::printf("EXPECTED  fingerprint=0x%016llx -- MISMATCH\n",
                static_cast<unsigned long long>(*cli.expect_digest));
    ok = false;
  }
  if (!ok && report.failure != fuzz::FailureKind::kNone) {
    const auto shrunk = fuzz::shrink_scenario(*scenario, report.failure);
    std::printf("minimal   %s\n", fuzz::format_spec(shrunk.scenario).c_str());
  }
  return ok ? 0 : 1;
}

/// Loads a --corpus-in file (fuzz::load_corpus_file): tolerant by default —
/// malformed lines are skipped with a per-line warning and a summary, and
/// only an unreadable file or one whose EVERY spec line is malformed fails
/// the soak (a stale actions/cache frontier restored across a grammar
/// change must not kill the whole nightly). --corpus-strict restores the
/// old all-or-nothing contract.
bool load_corpus(const std::string& path, bool strict,
                 std::vector<fuzz::Scenario>& out) {
  fuzz::CorpusLoadResult res =
      fuzz::load_corpus_file(path, strict, &std::cerr);
  if (!res.ok) {
    std::fprintf(stderr, "error: --corpus-in: %s\n", res.error.c_str());
    return false;
  }
  if (res.skipped > 0) {
    std::fprintf(stderr,
                 "warning: --corpus-in %s: loaded %zu specs, skipped %zu "
                 "malformed line(s)\n",
                 path.c_str(), res.loaded, res.skipped);
  }
  for (auto& s : res.scenarios) out.push_back(std::move(s));
  return true;
}

/// Writes --corpus-out via temp-file + atomic rename (fuzz::
/// write_corpus_file): an interrupted run can never truncate a previously
/// persisted frontier.
bool write_corpus(const std::string& path,
                  const std::vector<fuzz::Scenario>& corpus) {
  std::string error;
  if (!fuzz::write_corpus_file(path, corpus, &error)) {
    std::fprintf(stderr, "error: --corpus-out: %s\n", error.c_str());
    return false;
  }
  return true;
}

void print_coverage_table(const fuzz::SoakResult& result) {
  const auto& cov = result.coverage;
  // The "distinct coverage signatures:", "distinct engine-only
  // signatures:" and "distinct protocol signatures:" lines are
  // machine-parsed by the CI coverage assertions; keep their shapes stable.
  std::printf("  distinct coverage signatures: %zu (novel in %zu of %zu "
              "runs, %zu mutated; signature space v%u)\n",
              cov.distinct, result.novel_runs, result.runs,
              result.mutated_runs, fuzz::kSignatureSpaceVersion);
  std::printf("  distinct engine-only signatures: %zu\n", cov.engine_distinct);
  std::printf("  distinct protocol signatures: %zu\n", cov.protocol_distinct);
  // Machine-parsed by the CI coverage set-difference assertion (the
  // mutating soak must reach protocol corners pure generation missed);
  // keys are sorted, so the line is deterministic.
  std::printf("  protocol signature keys:");
  for (const std::uint64_t key : result.protocol_keys) {
    std::printf(" %llx", static_cast<unsigned long long>(key));
  }
  std::printf("\n");
  std::printf("  coverage by scheduler:");
  for (std::size_t i = 0; i < fuzz::kSchedulerKindCount; ++i) {
    std::printf(" %s=%zu",
                util::enum_name(fuzz::kSchedulerNames, i),
                cov.per_scheduler[i]);
  }
  std::printf("\n");
  std::printf("  coverage by path: overflow=%zu resize=%zu batch=%zu "
              "crashes=%zu holds=%zu protocol=%zu (of %zu signatures)\n",
              cov.overflow_sigs, cov.resize_sigs, cov.batch_sigs,
              cov.crash_sigs, cov.hold_sigs, cov.protocol_sigs,
              cov.distinct);
  // "distinct fault signatures:", "distinct large-topology signatures:"
  // and "distinct log-service signatures:" are machine-parsed by CI
  // coverage assertions; keep their shapes stable.
  std::printf("  distinct fault signatures: %zu\n", cov.fault_sigs);
  std::printf("  distinct large-topology signatures: %zu\n", cov.large_sigs);
  std::printf("  distinct log-service signatures: %zu\n", cov.log_sigs);
  // Machine-parsed by the CI log-family set-difference assertion (the
  // log-promoting soak must reach engine-space keys an instance-only soak
  // cannot); keys are sorted, so the line is deterministic.
  std::printf("  engine signature keys:");
  for (const std::uint64_t key : result.engine_keys) {
    std::printf(" %llx", static_cast<unsigned long long>(key));
  }
  std::printf("\n");
}

int run_soak_cli(const CliOptions& cli) {
  fuzz::SoakOptions options = cli.soak;
  if (!cli.corpus_in.empty() &&
      !load_corpus(cli.corpus_in, cli.corpus_strict,
                   options.initial_corpus)) {
    return 2;
  }
  if (cli.progress_every != 0) {
    options.on_scenario = [&](std::size_t index, const fuzz::Scenario& s,
                              const fuzz::RunReport& r) {
      if ((index + 1) % cli.progress_every == 0) {
        std::printf("  [%zu/%zu] last=%s failure=%s wheel=%llu overflow=%llu "
                    "resizes=%llu\n",
                    index + 1, cli.soak.count,
                    harness::algorithm_name(s.algorithm),
                    fuzz::failure_name(r.failure),
                    static_cast<unsigned long long>(r.stats.wheel_pushes),
                    static_cast<unsigned long long>(r.stats.overflow_pushes),
                    static_cast<unsigned long long>(r.stats.wheel_resizes));
        std::fflush(stdout);
      }
    };
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = fuzz::run_soak(options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // options.count >= 1 is enforced at parse time (--count 0 is a usage
  // error), so the inclusive seed range below cannot underflow.
  std::printf("fuzz soak: %zu scenarios (seeds %llu..%llu), %zu differential "
              "replays, mutate ratio %.2f\n",
              result.runs,
              static_cast<unsigned long long>(options.seed_base),
              static_cast<unsigned long long>(options.seed_base +
                                              options.count - 1),
              result.differential_runs, options.mutate_ratio);
  // Machine-parsed by the CI speedup log ("wall-clock:"); keep the shape.
  std::printf("  wall-clock: %.3fs across %zu job(s)\n", elapsed,
              options.jobs);
  if (options.fault_rate > 0.0 || options.dup_rate > 0.0 ||
      result.faulted_scenarios > 0) {
    std::printf("  link-fault floor: drop %.4f dup %.4f -> %zu faulted "
                "scenarios, %llu dropped / %llu duplicated frames\n",
                options.fault_rate, options.dup_rate,
                result.faulted_scenarios,
                static_cast<unsigned long long>(result.dropped_frames),
                static_cast<unsigned long long>(result.duplicated_frames));
  }
  if (options.large_every != 0) {
    std::printf("  large topologies: %zu scenario(s) promoted to n=%zu "
                "(every %zu)\n",
                result.large_scenarios, options.large_n, options.large_every);
  }
  if (options.log_every != 0 || result.log_scenarios > 0) {
    // log_scenarios counts family MEMBERSHIP (promoted + mutated-in +
    // corpus pre-seeds), so it can be nonzero with --log-every 0.
    std::printf("  log-service scenarios: %zu (every %zu)\n",
                result.log_scenarios, options.log_every);
  }
  if (result.differential_skipped > 0) {
    std::printf("  differential replays skipped (n > %zu): %zu\n",
                options.differential_max_n, result.differential_skipped);
  }
  if (options.max_seconds > 0.0) {
    // Budgeted soaks are wall-clock-bounded, not digest-reproducible; the
    // skip count makes the truncation visible in the log.
    std::printf("  time budget: %.1fs -> %zu run(s) never started\n",
                options.max_seconds, result.budget_skipped);
  }
  for (std::size_t i = 0; i < harness::kAlgorithmCount; ++i) {
    std::printf("  %-10s %zu\n",
                harness::algorithm_name(static_cast<harness::Algorithm>(i)),
                result.per_algorithm[i]);
  }
  std::printf("  crash scenarios: %zu (mid-flight cancellations in %zu)\n",
              result.crash_scenarios, result.mid_flight_crash_scenarios);
  std::printf("  calendar events: %llu wheel / %llu overflow heap "
              "(overflow path in %zu scenarios, wheel resized in %zu)\n",
              static_cast<unsigned long long>(result.wheel_events),
              static_cast<unsigned long long>(result.overflow_events),
              result.overflow_scenarios, result.resized_scenarios);
  print_coverage_table(result);
  std::printf("  corpus digest: 0x%016llx\n",
              static_cast<unsigned long long>(result.corpus_digest));

  // Persist the corpus BEFORE the failure-exit path: violation soaks are
  // exactly the nights whose widened frontier is worth resuming from. A
  // write failure is reported but never masks the violations themselves.
  const bool corpus_written =
      cli.corpus_out.empty() || write_corpus(cli.corpus_out, result.corpus);

  if (!result.ok()) {
    for (const auto& f : result.failures) {
      std::printf("VIOLATION kind=%s\n  spec    %s\n  minimal %s\n  %s\n",
                  fuzz::failure_name(f.report.failure),
                  fuzz::format_spec(f.scenario).c_str(),
                  fuzz::format_spec(f.minimal).c_str(),
                  f.report.detail.c_str());
      std::printf("  replay: ./bench_fuzz_soak --replay '%s'\n",
                  fuzz::format_spec(f.minimal).c_str());
    }
    std::printf("FAIL: %zu violation(s)\n", result.failures.size());
    return 1;
  }
  if (!corpus_written) return 2;
  std::printf("OK: zero property violations\n");
  return 0;
}

// The command line is one table: a row per flag, in usage order. Kinds:
// count (decimal integer), ratio (real in [0, 1]), seconds (real >= 0),
// hex (decimal or 0x-prefixed integer), path (any text: a file, or the
// --replay spec) and switch (no value; sets its bool). Every value parses
// strictly and in full: std::strtoull's silent garbage-to-0 once let
// "--count abc" soak zero scenarios and exit green.
enum class Kind : std::uint8_t {
  kCount, kRatio, kSeconds, kHex, kPath, kSwitch };
using enum Kind;

/// Which run a flag belongs to; a flag the chosen run would ignore is a
/// usage error, never a silent no-op.
enum Mode : std::uint8_t { kSoak = 1, kReplay = 2, kBoth = kSoak | kReplay };

struct Flag {
  const char* name;
  Kind kind;
  const char* metavar;  ///< usage placeholder for the value
  std::variant<std::uint64_t*, std::optional<std::uint64_t>*, double*,
               std::string*, bool*>
      target;
  bool nonzero;  ///< 0 is a usage error: a count or budget of nothing
  Mode mode;
};

// Count rows write SoakOptions' size_t fields through uint64_t pointers.
static_assert(std::is_same_v<std::size_t, std::uint64_t>);

std::vector<Flag> flag_table(CliOptions& cli) {
  fuzz::SoakOptions& o = cli.soak;
  return {
      {"--count", kCount, "N", &o.count, true, kSoak},
      {"--seed-base", kCount, "S", &o.seed_base, false, kSoak},
      {"--jobs", kCount, "J", &o.jobs, true, kSoak},  // 0 is not "auto"
      {"--differential-every", kCount, "K", &o.differential_every, false,
       kSoak},
      {"--mutate", kRatio, "RATIO", &o.mutate_ratio, false, kSoak},
      {"--fault-rate", kRatio, "RATIO", &o.fault_rate, false, kSoak},
      {"--dup-rate", kRatio, "RATIO", &o.dup_rate, false, kSoak},
      {"--large-every", kCount, "K", &o.large_every, false, kSoak},
      {"--large-n", kCount, "N", &o.large_n, true, kSoak},
      {"--log-every", kCount, "K", &o.log_every, false, kSoak},
      {"--differential-max-n", kCount, "N", &o.differential_max_n, false,
       kSoak},
      {"--max-seconds", kSeconds, "S", &o.max_seconds, true, kSoak},
      {"--corpus-out", kPath, "FILE", &cli.corpus_out, false, kSoak},
      {"--corpus-in", kPath, "FILE", &cli.corpus_in, false, kSoak},
      {"--corpus-strict", kSwitch, "", &cli.corpus_strict, false, kSoak},
      {"--no-shrink", kSwitch, "", &cli.no_shrink, false, kSoak},
      {"--max-shrink-attempts", kCount, "A", &o.max_shrink_attempts, false,
       kSoak},
      {"--progress-every", kCount, "P", &cli.progress_every, false, kSoak},
      {"--replay", kPath, "SPEC", &cli.replay, false, kReplay},
      {"--expect-digest", kHex, "HEX", &cli.expect_digest, false, kReplay},
      {"--sig-version", kSwitch, "", &cli.sig_version, false, kBoth},
  };
}

int usage(const char* argv0, const std::vector<Flag>& flags) {
  int column = std::fprintf(stderr, "usage: %s", argv0);
  for (const Flag& f : flags) {
    const std::string item = std::string(" [") + f.name +
                             (f.kind == kSwitch ? "" : " ") + f.metavar + "]";
    if (column + static_cast<int>(item.size()) > 78) {
      column = std::fprintf(stderr, "\n         ") - 1;
    }
    column += std::fprintf(stderr, "%s", item.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Parses `value` (nullptr when missing) into the flag's target; false
/// when it is not a valid value of the flag's kind.
bool set_flag(const Flag& f, const char* value) {
  if (f.kind == kSwitch) return *std::get<bool*>(f.target) = true;
  if (value == nullptr) return false;
  if (f.kind == kPath) {
    *std::get<std::string*>(f.target) = value;
    return *value != '\0';
  }
  if (f.kind == kHex) {
    auto& target = *std::get<std::optional<std::uint64_t>*>(f.target);
    target = util::parse_u64_any(value);
    return target.has_value();
  }
  if (f.kind == kCount) {
    const auto v = util::parse_u64(value);
    if (!v || (f.nonzero && *v == 0)) return false;
    *std::get<std::uint64_t*>(f.target) = *v;
    return true;
  }
  const auto v = util::parse_double(value);
  if (!v || *v < 0.0 || (f.kind == kRatio && *v > 1.0) ||
      (f.nonzero && *v == 0.0)) {
    return false;
  }
  *std::get<double*>(f.target) = *v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  const std::vector<Flag> flags = flag_table(cli);
  std::vector<bool> given(flags.size(), false);
  const auto fail = [&](std::string_view flag, const std::string& problem) {
    std::fprintf(stderr, "error: %.*s: %s\n", static_cast<int>(flag.size()),
                 flag.data(), problem.c_str());
    return usage(argv[0], flags);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto f = std::find_if(flags.begin(), flags.end(),
                                [arg](const Flag& x) { return arg == x.name; });
    if (f == flags.end()) return fail(arg, "unknown flag");
    const auto row = static_cast<std::size_t>(f - flags.begin());
    if (given[row]) return fail(arg, "given twice");
    given[row] = true;
    const char* value =
        f->kind == kSwitch || i + 1 >= argc ? nullptr : argv[++i];
    if (!set_flag(*f, value)) {
      return fail(arg, value ? "invalid value '" + std::string(value) + "'"
                             : "missing value");
    }
  }
  // --sig-version feeds the nightly corpus-cache key: print and exit.
  if (cli.sig_version) {
    std::printf("%u\n", fuzz::kSignatureSpaceVersion);
    return 0;
  }
  const Mode run = cli.replay.empty() ? kSoak : kReplay;
  for (std::size_t row = 0; row < flags.size(); ++row) {
    if (given[row] && (flags[row].mode & run) == 0) {
      return fail(flags[row].name,
                  run == kSoak ? "needs --replay" : "not valid with --replay");
    }
  }
  if (cli.corpus_strict && cli.corpus_in.empty()) {
    return fail("--corpus-strict", "needs --corpus-in");
  }
  cli.soak.shrink_failures = !cli.no_shrink;
  return run == kReplay ? run_replay(cli) : run_soak_cli(cli);
}

// Fuzz smoke lane (tier-1): the pinned seed corpus must run clean.
//
//   * the generator stays inside every algorithm's guarantee envelope;
//   * spec lines round-trip exactly (the --replay contract);
//   * replaying a scenario is bit-identical, run to run and spec to spec;
//   * a sampled subset matches the frozen reference engine exactly;
//   * the 504-scenario corpus (seeds 1..504, the same range the CI fuzz
//     lane soaks) produces zero property violations across all six
//     algorithms.
#include <gtest/gtest.h>

#include "fuzz/fuzzer.hpp"
#include "net/graph.hpp"
#include "util/hash.hpp"

namespace amac::fuzz {
namespace {

using harness::Algorithm;

TEST(FuzzSpec, RoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = generate_scenario(seed);
    const std::string spec = format_spec(s);
    const auto parsed = parse_spec(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_EQ(format_spec(*parsed), spec);
  }
}

TEST(FuzzSpec, BareSeedMeansGeneratedScenario) {
  const auto parsed = parse_spec("42");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(format_spec(*parsed), format_spec(generate_scenario(42)));
}

TEST(FuzzSpec, RejectsMalformedInput) {
  EXPECT_FALSE(parse_spec("").has_value());
  EXPECT_FALSE(parse_spec("amacfuzz1").has_value());  // missing fields
  EXPECT_FALSE(parse_spec("amacfuzz2:seed=1").has_value());
  EXPECT_FALSE(parse_spec("amacfuzz1:seed=x:alg=wpaxos").has_value());
  const std::string good = format_spec(generate_scenario(7));
  EXPECT_TRUE(parse_spec(good).has_value());
  EXPECT_FALSE(parse_spec(good + ":bogus=1").has_value());
  // A key given twice is malformed, never last-wins or concatenated.
  EXPECT_FALSE(parse_spec(good + ":seed=99").has_value());
  EXPECT_TRUE(parse_spec(good + ":holds=0@5").has_value());
  EXPECT_FALSE(parse_spec(good + ":holds=0@5:holds=1@6").has_value());
  // So is an empty value or an empty list entry (format_spec omits an
  // empty list instead of writing `crashes=`).
  EXPECT_FALSE(parse_spec(good + ":crashes=").has_value());
  EXPECT_FALSE(parse_spec(good + ":crashes=0@5,").has_value());
  EXPECT_FALSE(parse_spec(good + ":log=").has_value());
}

TEST(FuzzSpec, RoundTripsEveryLineOfAMutatingSoak) {
  // Every scenario a mutating, faulted, log-promoting soak runs, every
  // corpus line it keeps, and every failure and minimal spec it reports
  // must survive format -> parse -> format exactly.
  std::vector<std::string> specs;
  SoakOptions options;
  options.count = 2000;
  options.differential_every = 0;
  options.mutate_ratio = 0.5;
  options.fault_rate = 0.05;
  options.log_every = 40;
  options.on_scenario = [&specs](std::size_t, const Scenario& s,
                                 const RunReport&) {
    specs.push_back(format_spec(s));
  };
  const SoakResult result = run_soak(options);
  for (const Scenario& s : result.corpus) specs.push_back(format_spec(s));
  for (const SoakFailure& f : result.failures) {
    specs.push_back(format_spec(f.scenario));
    specs.push_back(format_spec(f.minimal));
  }
  ASSERT_EQ(result.runs, 2000u);
  EXPECT_GT(result.mutated_runs, 0u);
  EXPECT_GT(result.log_scenarios, 0u);
  EXPECT_GT(result.faulted_scenarios, 0u);
  util::Hasher spec_digest;
  for (const std::string& spec : specs) {
    const auto parsed = parse_spec(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_EQ(format_spec(*parsed), spec);
    spec_digest.mix_string(spec);
  }
  // Pins of the mutant stream: every spec line above, in order, and the
  // fold of every run fingerprint. A refactor of the mutator, clamp,
  // normalize or shrinker must leave both unchanged. A change to what a
  // log-family run decides, fails or costs moves them: its fingerprint
  // folds the service's counters, and its failures add spec lines.
  EXPECT_EQ(specs.size(), 2256u);
  EXPECT_EQ(spec_digest.digest(), 0x447315e25f154c48ULL);
  EXPECT_EQ(result.corpus_digest, 0xd6e3420247ad4a0aULL);
}

TEST(FuzzLargeTopology, PromotedScenariosStaySparseAndRoundTrip) {
  // promote_to_large rewrites any generated scenario into its n=4096
  // counterpart. The result must stay inside the large-topology envelope
  // (sparse O(n)-edge family; no clique-locked algorithm; no
  // liveness-checked wPAXOS, whose n-proposer duel is unbounded) and its
  // spec line must survive format -> parse -> format exactly — the
  // --replay contract the soak's repro lines depend on.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Scenario s = generate_scenario(seed);
    promote_to_large(s, 4096);
    EXPECT_EQ(s.n, 4096u);
    const bool sparse = s.topology == TopologyKind::kGrid ||
                        s.topology == TopologyKind::kTorus ||
                        s.topology == TopologyKind::kBinaryTree ||
                        s.topology == TopologyKind::kStar;
    EXPECT_TRUE(sparse) << format_spec(s);
    EXPECT_NE(s.algorithm, Algorithm::kTwoPhase) << format_spec(s);
    EXPECT_NE(s.algorithm, Algorithm::kBenOr) << format_spec(s);
    if (s.algorithm == Algorithm::kWPaxos) {
      EXPECT_FALSE(termination_expected(s)) << format_spec(s);
    }
    const std::string spec = format_spec(s);
    const auto parsed = parse_spec(spec);
    ASSERT_TRUE(parsed.has_value()) << spec;
    EXPECT_EQ(format_spec(*parsed), spec);
  }
}

TEST(FuzzLargeTopology, PromotionIsDeterministicAndBuildsConnected) {
  Scenario a = generate_scenario(17);
  Scenario b = generate_scenario(17);
  promote_to_large(a, 4096);
  promote_to_large(b, 4096);
  EXPECT_EQ(format_spec(a), format_spec(b));  // pure function of (s, n)
  const BuiltScenario built = build_scenario(a);
  // Grid/torus promotion picks the near-square w with (w+1)^2 <= n, so
  // w * (n / w) may round a node or two below n; never more.
  EXPECT_GE(built.graph.node_count(), 4095u);
  EXPECT_LE(built.graph.node_count(), 4096u);
  EXPECT_TRUE(built.graph.is_connected());
}

TEST(FuzzGenerator, StaysInsideGuaranteeEnvelopes) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Scenario s = generate_scenario(seed);
    const BuiltScenario b = build_scenario(s);
    const std::size_t count = b.graph.node_count();
    ASSERT_GE(count, 2u);
    ASSERT_TRUE(b.graph.is_connected());
    ASSERT_EQ(b.inputs.size(), count);
    ASSERT_EQ(b.ids.size(), count);

    // Theorem 3.3/3.9 algorithms only ever face the synchronous scheduler.
    if (s.algorithm == Algorithm::kAnonymous ||
        s.algorithm == Algorithm::kStability) {
      EXPECT_EQ(s.scheduler, SchedulerKind::kSynchronous);
      EXPECT_TRUE(s.crashes.empty());
    }
    // Single-hop algorithms stay on the clique.
    if (s.algorithm == Algorithm::kTwoPhase ||
        s.algorithm == Algorithm::kBenOr) {
      EXPECT_EQ(s.topology, TopologyKind::kClique);
    }
    if (s.algorithm == Algorithm::kTwoPhase) EXPECT_TRUE(s.crashes.empty());
    if (s.algorithm == Algorithm::kBenOr) {
      EXPECT_LT(2 * s.benor_f, count);
      EXPECT_LE(s.crashes.size(), s.benor_f);
    }
    for (const auto& c : s.crashes) EXPECT_LT(c.node, count);
    if (s.scheduler != SchedulerKind::kHoldback) {
      EXPECT_TRUE(s.holds.empty());
      EXPECT_FALSE(s.late_holds);
    }
    // kScripted is mutation-only: the generator must never emit it (the
    // pinned corpus digest depends on the generated draw range).
    EXPECT_NE(s.scheduler, SchedulerKind::kScripted);
    EXPECT_TRUE(s.script.empty());
    // Link faults are mutation/CLI-floor-only for the same reason: a
    // generated scenario always builds with the empty LinkFaultPlan.
    EXPECT_EQ(s.drop_rate_bp, 0u);
    EXPECT_EQ(s.dup_rate_bp, 0u);
    EXPECT_TRUE(s.faults.empty());
    EXPECT_TRUE(b.faults.empty());
  }
}

TEST(FuzzReplay, BitIdenticalRunToRunAndSpecToSpec) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const Scenario s = generate_scenario(seed);
    const RunReport a = run_scenario(s);
    const RunReport b = run_scenario(s);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << format_spec(s);
    EXPECT_EQ(a.trace_digest, b.trace_digest);

    const auto replayed = parse_spec(format_spec(s));
    ASSERT_TRUE(replayed.has_value());
    const RunReport c = run_scenario(*replayed);
    EXPECT_EQ(a.fingerprint, c.fingerprint) << format_spec(s);
    EXPECT_EQ(a.trace_digest, c.trace_digest);
  }
}

TEST(FuzzDifferential, SampledScenariosMatchReferenceEngine) {
  RunOptions options;
  options.differential = true;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = generate_scenario(seed);
    const RunReport r = run_scenario(s, options);
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint) << format_spec(s);
    // The Lemma 4.2 monitor really runs on every wPAXOS scenario.
    if (s.algorithm == Algorithm::kWPaxos) {
      EXPECT_GT(r.monitor_checks, 0u) << format_spec(s);
    }
  }
}

TEST(FuzzDifferential, FaultedScenariosMatchReferenceEngineBitForBit) {
  // The fault layer's differential contract: both engines consult the same
  // pure (broadcast_id, sender, receiver) hash, so a NON-empty
  // LinkFaultPlan must leave the calendar engine and the frozen reference
  // engine bit-identical — same fingerprints, same trace digests, same
  // drop/duplicate counters folded in. Safety stays unconditional
  // (clamp_to_envelope keeps each algorithm inside its legal fault class);
  // only termination claims are waived under faults.
  RunOptions options;
  options.differential = true;
  std::uint64_t total_drops = 0;
  std::uint64_t total_dups = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = generate_scenario(seed);
    s.drop_rate_bp = 400;
    s.dup_rate_bp = 200;
    s.faults.push_back(FaultSpec{0, 1, 2, 40});
    clamp_to_envelope(s);
    const RunReport r = run_scenario(s, options);
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint) << format_spec(s);
    total_drops += r.stats.drops;
    total_dups += r.stats.duplicates;
  }
  // The sweep must actually exercise the fault path, not just survive a
  // clamp down to the empty plan.
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_dups, 0u);
}

TEST(FuzzSoak, PinnedCorpusRunsCleanAcrossAllSixAlgorithms) {
  SoakOptions options;
  options.seed_base = 1;
  options.count = 504;  // >= 500-scenario acceptance floor; 72 differential
  options.differential_every = 7;
  const SoakResult result = run_soak(options);

  EXPECT_EQ(result.runs, 504u);
  EXPECT_EQ(result.differential_runs, 72u);
  for (std::size_t i = 0; i < harness::kAlgorithmCount; ++i) {
    EXPECT_GE(result.per_algorithm[i], 40u)
        << "algorithm " << harness::algorithm_name(static_cast<Algorithm>(i))
        << " under-sampled";
  }
  EXPECT_GT(result.crash_scenarios, 0u);
  EXPECT_GT(result.mid_flight_crash_scenarios, 0u)
      << "corpus no longer exercises crash-during-in-flight-ack";
  for (const auto& f : result.failures) {
    ADD_FAILURE() << "violation kind="
                  << failure_name(f.report.failure) << "\n  spec    "
                  << format_spec(f.scenario) << "\n  minimal "
                  << format_spec(f.minimal) << "\n  " << f.report.detail;
  }

  // The corpus digest folds every run fingerprint: rerunning the soak must
  // reproduce it exactly (full-pipeline determinism), so any generator or
  // engine behavior change is a visible, reviewable digest change. The
  // rerun is SHARDED across three threads — the canonical seed-order merge
  // makes the job count invisible in every digest (the dedicated suite is
  // tests/test_fuzz_shard.cpp).
  SoakOptions again = options;
  again.differential_every = 0;  // differential replay never alters runs
  again.jobs = 3;
  EXPECT_EQ(run_soak(again).corpus_digest, result.corpus_digest);
}

TEST(FuzzSoak, ProtocolStatsCollectionNeverPerturbsRuns) {
  // The determinism regression for the protocol coverage dimension AND the
  // link-fault layer: ProtocolStats collection (always on for calendar
  // runs) is a post-run const read, and generated scenarios carry an empty
  // LinkFaultPlan (the generator never draws faults; the plan hash is
  // consulted only when a plan is installed), so the pinned 504-corpus
  // digest is bit-identical to the digest pinned before either existed. A
  // change to this constant means run behavior moved and must be a
  // reviewed, deliberate decision.
  //
  // Pin history: 0xfa43aa7e095f5b45 (PR 2-5) was re-pinned once, in the PR
  // that added fault injection, because fixing the wPAXOS at-most-once
  // cursor (it parked on a deposed leader's larger proposal number and
  // silently swallowed the new leader's flood — a genuine liveness bug
  // against Theorem 4.6) changed the wPAXOS subset of the corpus. The
  // fault layer itself contributes nothing here: every scenario below runs
  // with the empty plan.
  constexpr std::uint64_t kPinned504Digest = 0x4bc22ec0b0a6e511ULL;

  SoakOptions options;
  options.seed_base = 1;
  options.count = 504;
  options.differential_every = 0;
  const SoakResult result = run_soak(options);
  EXPECT_EQ(result.corpus_digest, kPinned504Digest);

  // The protocol buckets refine coverage: the full signature space is
  // strictly wider than its engine-only projection, and the runs reach
  // more than the all-zero protocol corner.
  EXPECT_GT(result.coverage.distinct, result.coverage.engine_distinct);
  EXPECT_GT(result.coverage.protocol_distinct, 1u);

  // Differential replays of the two stat-richest algorithms: the calendar
  // run collects protocol stats, the reference replay never does, and the
  // fingerprints match bit for bit.
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 504 && checked < 2; ++seed) {
    const Scenario s = generate_scenario(seed);
    if (s.algorithm != Algorithm::kWPaxos &&
        s.algorithm != Algorithm::kBenOr) {
      continue;
    }
    ++checked;
    RunOptions on;
    on.differential = true;
    const RunReport r = run_scenario(s, on);
    ASSERT_TRUE(r.differential_ran);
    EXPECT_EQ(r.failure, FailureKind::kNone) << format_spec(s);
    EXPECT_EQ(r.fingerprint, r.reference_fingerprint) << format_spec(s);
    EXPECT_NE(coverage_signature(s, r).protocol_key(), 0u) << format_spec(s);
  }
  EXPECT_EQ(checked, 2u);
}

}  // namespace
}  // namespace amac::fuzz

// Coverage-steered mutation fuzzing (tier-1 pins).
//
//   * every mutant — including chains of mutants — survives the
//     clamp_to_envelope round-trip: spec-exact (format/parse), inside its
//     algorithm's guarantee envelope, and buildable;
//   * mutation is deterministic given the rng state;
//   * CoverageSignature is stable, discriminates engine paths, and the
//     corpus is bounded with exact novelty detection;
//   * a mutating soak strictly widens distinct-signature coverage over
//     pure generation at the same budget (the acceptance property the CI
//     fuzz lane asserts at 2000 scenarios);
//   * schedule-space shrinking minimizes a seeded violation's hold release
//     to its exact reproduction threshold, not just to fewer holds.
#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/fuzzer.hpp"
#include "util/hash.hpp"

namespace amac::fuzz {
namespace {

using harness::Algorithm;

/// The envelope assertions of test_fuzz_smoke.cpp, applied to a mutant.
void expect_in_envelope(const Scenario& s, const std::string& context) {
  const BuiltScenario b = build_scenario(s);
  const std::size_t count = b.graph.node_count();
  ASSERT_GE(count, 2u) << context;
  ASSERT_TRUE(b.graph.is_connected()) << context;
  ASSERT_EQ(b.inputs.size(), count) << context;
  ASSERT_EQ(b.ids.size(), count) << context;

  if (s.algorithm == Algorithm::kAnonymous ||
      s.algorithm == Algorithm::kStability) {
    EXPECT_EQ(s.scheduler, SchedulerKind::kSynchronous) << context;
    EXPECT_TRUE(s.crashes.empty()) << context;
  }
  if (s.algorithm == Algorithm::kTwoPhase ||
      s.algorithm == Algorithm::kBenOr) {
    EXPECT_EQ(s.topology, TopologyKind::kClique) << context;
  }
  if (s.algorithm == Algorithm::kTwoPhase) {
    EXPECT_TRUE(s.crashes.empty()) << context;
  }
  if (s.algorithm == Algorithm::kBenOr) {
    EXPECT_LT(2 * s.benor_f, count) << context;
    EXPECT_LE(s.crashes.size(), s.benor_f) << context;
  }
  for (const auto& c : s.crashes) EXPECT_LT(c.node, count) << context;
  for (const auto& h : s.holds) EXPECT_LT(h.sender, count) << context;
  if (s.scheduler != SchedulerKind::kHoldback) {
    EXPECT_TRUE(s.holds.empty()) << context;
    EXPECT_FALSE(s.late_holds) << context;
  }
  if (s.scheduler != SchedulerKind::kScripted) {
    EXPECT_TRUE(s.script.empty()) << context;
  }
  for (const auto& t : s.script) {
    EXPECT_LT(t.sender, count) << context;
    EXPECT_GE(t.ack, 1u) << context;
    EXPECT_GE(t.recv, 1u) << context;
    EXPECT_LE(t.recv, t.ack) << context;
    // Per-receiver overrides: in range, deduplicated, sorted, delays
    // inside [1, ack], and recv is exactly their maximum.
    mac::Time max_delay = 0;
    for (std::size_t i = 0; i < t.delays.size(); ++i) {
      EXPECT_LT(t.delays[i].first, count) << context;
      if (i > 0) EXPECT_LT(t.delays[i - 1].first, t.delays[i].first)
          << context;
      EXPECT_GE(t.delays[i].second, 1u) << context;
      EXPECT_LE(t.delays[i].second, t.ack) << context;
      max_delay = std::max(max_delay, t.delays[i].second);
    }
    if (!t.delays.empty()) EXPECT_EQ(t.recv, max_delay) << context;
  }
  EXPECT_GE(s.fack, 1u) << context;

  // Link-fault envelope (the bounded-loss rules clamp_to_envelope
  // enforces): synchronous-only algorithms see a perfectly reliable MAC;
  // two-phase commit tolerates deferral and duplication but never
  // permanent loss; wPAXOS counts acceptor responses, so never
  // duplication. Rates and window counts stay inside the mutation bounds.
  const bool sync_only = s.algorithm == Algorithm::kAnonymous ||
                         s.algorithm == Algorithm::kStability;
  if (sync_only) {
    EXPECT_EQ(s.drop_rate_bp, 0u) << context;
    EXPECT_EQ(s.dup_rate_bp, 0u) << context;
    EXPECT_TRUE(s.faults.empty()) << context;
  }
  if (s.algorithm == Algorithm::kTwoPhase) {
    EXPECT_EQ(s.drop_rate_bp, 0u) << context;
    for (const auto& w : s.faults) {
      EXPECT_NE(w.until_tick, mac::kForever) << context;
    }
  }
  if (s.algorithm == Algorithm::kWPaxos) {
    EXPECT_EQ(s.dup_rate_bp, 0u) << context;
  }
  EXPECT_LE(s.drop_rate_bp, 2000u) << context;  // kMaxFaultRateBp
  EXPECT_LE(s.dup_rate_bp, 2000u) << context;
  EXPECT_LE(s.faults.size(), 4u) << context;  // kMaxFaultWindows
  for (const auto& w : s.faults) {
    EXPECT_LT(w.from, count) << context;
    EXPECT_LT(w.to, count) << context;
    EXPECT_NE(w.from, w.to) << context;
    if (w.until_tick != mac::kForever) {
      EXPECT_GT(w.until_tick, w.from_tick) << context;  // live window
    }
  }
}

TEST(FuzzMutation, MutantChainsSurviveRoundTripAndStayInEnvelope) {
  // Chains of mutants (mutant-of-mutant, with occasional splice partners)
  // must stay spec-exact and inside the guarantee envelope — this is what
  // makes a mutant violation a real bug and its printed spec replayable.
  util::Rng rng(0xC07E4A6E);
  util::Hasher mutant_digest;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Scenario s = generate_scenario(seed);
    const Scenario partner = generate_scenario(seed + 1000);
    for (int step = 0; step < 8; ++step) {
      const Scenario* splice = (step % 3 == 2) ? &partner : nullptr;
      s = mutate_scenario(s, splice, rng);
      const std::string context = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + ": " +
                                  format_spec(s);
      // Spec round-trip is exact.
      const auto parsed = parse_spec(format_spec(s));
      ASSERT_TRUE(parsed.has_value()) << context;
      EXPECT_EQ(format_spec(*parsed), format_spec(s)) << context;
      expect_in_envelope(s, context);
      mutant_digest.mix_string(format_spec(s));
    }
  }
  // Pins the 480 mutant specs of this chain, in order: a refactor of the
  // mutator or the envelope clamp must reproduce every rng draw.
  EXPECT_EQ(mutant_digest.digest(), 0x20d8197d9cef44c5ULL);
}

TEST(FuzzSpec, PerReceiverScriptSlotsRoundTripExactly) {
  // The non-uniform 4th script field: "r-d+r-d" lists per-receiver
  // delays; a bare integer keeps the uniform form. Both must round-trip
  // bit for bit (the --replay contract), and recv is derived as the
  // maximum listed delay, matching normalize_scenario.
  const char* spec =
      "amacfuzz1:seed=1:alg=flooding:topo=clique:n=6:aux=0:sched=scripted:"
      "fack=3:late=0:in=split:ids=identity:f=0:hz=1000000:"
      "script=0@0@4@1-2+3-4,1@1@3@2";
  const auto parsed = parse_spec(spec);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->script.size(), 2u);
  const ScriptSlot& per = parsed->script[0];
  EXPECT_EQ(per.sender, 0u);
  EXPECT_EQ(per.index, 0u);
  EXPECT_EQ(per.ack, 4u);
  ASSERT_EQ(per.delays.size(), 2u);
  EXPECT_EQ(per.delays[0], (std::pair<NodeId, mac::Time>{1, 2}));
  EXPECT_EQ(per.delays[1], (std::pair<NodeId, mac::Time>{3, 4}));
  EXPECT_EQ(per.recv, 4u);  // max listed delay
  const ScriptSlot& uni = parsed->script[1];
  EXPECT_TRUE(uni.delays.empty());
  EXPECT_EQ(uni.recv, 2u);
  EXPECT_EQ(format_spec(*parsed), spec);

  // The scenario builds and runs clean: unlisted receivers fall back to
  // delay 1 and the run is deterministic.
  const RunReport a = run_scenario(*parsed);
  const RunReport b = run_scenario(*parsed);
  EXPECT_EQ(a.failure, FailureKind::kNone) << a.detail;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
}

TEST(FuzzSpec, PerReceiverDelaysAreCanonicalizedByNormalize) {
  // normalize_scenario canonicalizes messy per-receiver lists the same
  // way ScriptedScheduler resolves them: later entries win duplicates,
  // out-of-range receivers are dropped, delays clamp into [1, ack], the
  // list sorts by receiver, and recv becomes the maximum listed delay —
  // so format/parse round-trips exactly on the result.
  Scenario s = generate_scenario(1);
  s.algorithm = Algorithm::kFlooding;
  s.topology = TopologyKind::kClique;
  s.n = 5;
  s.scheduler = SchedulerKind::kScripted;
  ScriptSlot slot;
  slot.sender = 0;
  slot.index = 0;
  slot.ack = 3;
  slot.recv = 1;
  slot.delays = {{4, 2}, {9, 1}, {1, 0}, {4, 7}, {2, 3}};
  s.script = {slot};
  normalize_scenario(s);

  ASSERT_EQ(s.script.size(), 1u);
  const ScriptSlot& t = s.script[0];
  // receiver 9 dropped (out of range), duplicate 4 resolved later-wins
  // (delay 7, clamped to ack=3), delay 0 clamped up to 1, sorted.
  ASSERT_EQ(t.delays.size(), 3u);
  EXPECT_EQ(t.delays[0], (std::pair<NodeId, mac::Time>{1, 1}));
  EXPECT_EQ(t.delays[1], (std::pair<NodeId, mac::Time>{2, 3}));
  EXPECT_EQ(t.delays[2], (std::pair<NodeId, mac::Time>{4, 3}));
  EXPECT_EQ(t.recv, 3u);

  const auto parsed = parse_spec(format_spec(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(format_spec(*parsed), format_spec(s));
}

TEST(FuzzShrinker, PhaseTwoNeverProbesAnUnchangedSpec) {
  // Phase 2 binary-searches every searchable value the way shrink_scenario
  // does. A per-receiver slot's recv is not one: normalize overwrites it
  // with the largest listed delay, so probing it would rerun the current
  // scenario. Walk every search to its end, once rejecting every probe
  // and once accepting every one, and require each normalized probe to
  // differ from the scenario it was made from.
  const auto base = parse_spec(
      "amacfuzz1:seed=1:alg=flooding:topo=clique:n=6:aux=0:sched=scripted:"
      "fack=30:late=0:in=split:ids=identity:f=0:hz=1000000:"
      "script=0@0@30@1-20+3-25");
  ASSERT_TRUE(base.has_value());
  for (const bool accept : {false, true}) {
    Scenario s = *base;
    std::size_t probes = 0;
    const ValueSearch search = [&](mac::Time floor, mac::Time value,
                                   const ValueSetter& set) {
      bool reduced = false;
      mac::Time lo = floor;
      mac::Time hi = value;
      while (lo < hi) {
        const mac::Time mid = lo + (hi - lo) / 2;
        Scenario cand = s;
        set(cand, mid);
        normalize_scenario(cand);
        ++probes;
        EXPECT_NE(format_spec(cand), format_spec(s))
            << "probe " << mid << " of " << format_spec(s);
        if (accept) {
          s = cand;
          reduced = true;
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      return reduced;
    };
    search_values(s, search);
    EXPECT_GT(probes, 0u);
  }
}

TEST(FuzzMutation, DeterministicGivenRngState) {
  const Scenario base = generate_scenario(7);
  const Scenario partner = generate_scenario(8);
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 50; ++i) {
    const Scenario ma = mutate_scenario(base, &partner, a);
    const Scenario mb = mutate_scenario(base, &partner, b);
    EXPECT_EQ(format_spec(ma), format_spec(mb));
  }
}

TEST(FuzzMutation, MutantsRunCleanInsideTheirEnvelopes) {
  // Clamped mutants make guarantees the oracle can hold them to; a sample
  // must run violation-free (deterministic: fixed rng, so never flaky).
  util::Rng rng(99);
  std::size_t ran = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario s = generate_scenario(seed);
    s = mutate_scenario(s, nullptr, rng);
    const RunReport r = run_scenario(s);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    ++ran;
  }
  EXPECT_EQ(ran, 20u);
}

TEST(FuzzMutation, ScriptedTimelineMutantsStayInEnvelopeOver500Seeds) {
  // The ScriptedScheduler timeline property: every mutant of a scripted
  // timeline — including chains where retime/swap/duplicate/drop ops
  // rearrange the slots — still satisfies the algorithm's envelope after
  // clamp_to_envelope, across 500 seeded chains. inside_envelope() is the
  // clamp fixpoint check: a mutant passing it makes guarantees the oracle
  // can hold it to, which is what makes a mutant violation a real bug.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    util::Rng rng(seed * 0x9E3779B9u + 7);
    // Start from a scripted scenario: a generated base pushed through the
    // timeline conversion (mutate until the scheduler flips to scripted,
    // which kScriptTimeline is drawn into within a few attempts).
    Scenario s = generate_scenario(seed);
    for (int attempt = 0; attempt < 64 &&
                          s.scheduler != SchedulerKind::kScripted;
         ++attempt) {
      s = mutate_scenario(s, nullptr, rng);
      // Scripted timelines are unreachable inside the log-service family
      // (its envelope owns the Network end to end), so a chain that
      // crossed in restarts from the base rather than wedging there.
      if (s.log_ops > 0) s = generate_scenario(seed);
    }
    if (s.scheduler != SchedulerKind::kScripted) continue;  // sync-only alg

    // Now a chain of further mutants; every one must stay a clamp
    // fixpoint, spec-round-trip exactly, and keep its slots well-formed.
    for (int step = 0; step < 6; ++step) {
      s = mutate_scenario(s, nullptr, rng);
      const std::string context =
          "seed " + std::to_string(seed) + " step " + std::to_string(step) +
          ": " + format_spec(s);
      EXPECT_TRUE(inside_envelope(s)) << context;
      const auto parsed = parse_spec(format_spec(s));
      ASSERT_TRUE(parsed.has_value()) << context;
      EXPECT_EQ(format_spec(*parsed), format_spec(s)) << context;
      expect_in_envelope(s, context);
      // Synchronous-only algorithms can never carry a scripted timeline.
      if (s.algorithm == Algorithm::kAnonymous ||
          s.algorithm == Algorithm::kStability) {
        EXPECT_NE(s.scheduler, SchedulerKind::kScripted) << context;
      }
    }
  }
}

TEST(FuzzMutation, FaultWindowSpliceRecombinesBothParentsInEnvelope) {
  // The kSpliceFaultWindows crossover: children that mix drop windows
  // from BOTH parents must appear (fault timelines neither parent ran),
  // and every mutant of the fault-bearing pair — whatever op fired — must
  // stay a clamp_to_envelope fixpoint. Sentinel windows use exact
  // (from, to, from_tick, until_tick) tuples no other op reproduces, so a
  // mixed plan can only come from the recombination op; the draw stream
  // is fixed, so the count below is deterministic.
  Scenario base = generate_scenario(1);
  base.algorithm = Algorithm::kFlooding;
  base.topology = TopologyKind::kClique;
  base.n = 8;
  base.aux = 0;
  base.scheduler = SchedulerKind::kSynchronous;
  base.crashes.clear();
  base.holds.clear();
  base.script.clear();
  base.faults = {FaultSpec{0, 1, 100, 107}, FaultSpec{1, 2, 200, 207}};
  clamp_to_envelope(base);
  ASSERT_TRUE(inside_envelope(base));
  ASSERT_EQ(base.faults.size(), 2u);

  Scenario partner = base;
  partner.seed = 999;
  partner.faults = {FaultSpec{2, 3, 300, 307}, FaultSpec{3, 4, 400, 407}};
  clamp_to_envelope(partner);
  ASSERT_EQ(partner.faults.size(), 2u);

  const auto window_eq = [](const FaultSpec& a, const FaultSpec& b) {
    return a.from == b.from && a.to == b.to && a.from_tick == b.from_tick &&
           a.until_tick == b.until_tick;
  };
  const auto has_window_from = [&](const Scenario& s,
                                   const std::vector<FaultSpec>& parent) {
    for (const auto& w : s.faults) {
      for (const auto& p : parent) {
        if (window_eq(w, p)) return true;
      }
    }
    return false;
  };

  util::Rng rng(0x57A7B1E);
  std::size_t recombined = 0;
  for (int i = 0; i < 400; ++i) {
    const Scenario m = mutate_scenario(base, &partner, rng);
    EXPECT_TRUE(inside_envelope(m)) << format_spec(m);
    const auto parsed = parse_spec(format_spec(m));
    ASSERT_TRUE(parsed.has_value()) << format_spec(m);
    if (has_window_from(m, base.faults) &&
        has_window_from(m, partner.faults)) {
      ++recombined;
    }
  }
  EXPECT_GE(recombined, 3u)
      << "no mutants recombined fault windows from both parents";
}

TEST(FuzzMutation, DeliberatelyUnclampedScriptedMutantIsRejected) {
  // The negative half of the property: hand-build timeline violations the
  // clamp would have fixed and check inside_envelope rejects each one —
  // proving the fixpoint check has teeth, not just that mutants happen to
  // pass it.
  util::Rng rng(0xBADC0DE);
  Scenario base;  // a flooding base: scripted timelines are in-envelope
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 200 && !found; ++seed) {
    base = generate_scenario(seed);
    found = base.algorithm == Algorithm::kFlooding;
  }
  ASSERT_TRUE(found);
  Scenario s = base;
  // Mutation never changes the algorithm, so every mutant stays flooding.
  for (int attempt = 0;
       attempt < 256 &&
       (s.scheduler != SchedulerKind::kScripted || s.script.empty());
       ++attempt) {
    s = mutate_scenario(s, nullptr, rng);
    // Scripted timelines are unreachable inside the log-service family
    // (its envelope owns the Network end to end); a chain that crossed in
    // restarts from the base rather than wedging there.
    if (s.log_ops > 0) s = base;
  }
  ASSERT_EQ(s.scheduler, SchedulerKind::kScripted);
  ASSERT_TRUE(inside_envelope(s));
  ASSERT_FALSE(s.script.empty());

  // Receive delay above the ack delay: violates the abstract MAC layer
  // contract (a copy delivered after its own ack).
  Scenario bad = s;
  bad.script[0].recv = bad.script[0].ack + 5;
  EXPECT_FALSE(inside_envelope(bad));

  // Ack beyond the mutation bound.
  bad = s;
  bad.script[0].ack = 100000;
  EXPECT_FALSE(inside_envelope(bad));

  // A scripted timeline on a synchronous-only algorithm: an expected
  // counterexample (Theorem 3.3), never a fuzz target.
  bad = s;
  bad.algorithm = Algorithm::kAnonymous;
  EXPECT_FALSE(inside_envelope(bad));

  // Scripted slots dangling on a non-scripted scheduler.
  bad = s;
  bad.scheduler = SchedulerKind::kUniformRandom;
  EXPECT_FALSE(inside_envelope(bad));

  // Clamping each rejected mutant re-admits it.
  clamp_to_envelope(bad);
  EXPECT_TRUE(inside_envelope(bad));
}

TEST(FuzzMutation, ClampCapsAPreSeedsHoldCount) {
  // Generation draws at most 3 holds and the add-hold op stops at 6, but a
  // --corpus-in pre-seed can carry more. The clamp caps the count too, so
  // no mutant of such a pre-seed passes inside_envelope() with 7 holds.
  Scenario base;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 500 && !found; ++seed) {
    base = generate_scenario(seed);
    found = base.scheduler == SchedulerKind::kHoldback && inside_envelope(base);
  }
  ASSERT_TRUE(found);
  Scenario seven = base;
  while (seven.holds.size() < 7) {
    const auto i = static_cast<NodeId>(seven.holds.size());
    seven.holds.push_back(HoldSpec{static_cast<NodeId>(i % seven.n), 50 + i});
  }
  normalize_scenario(seven);
  ASSERT_EQ(seven.holds.size(), 7u) << format_spec(seven);
  EXPECT_FALSE(inside_envelope(seven));

  Scenario clamped = seven;
  clamp_to_envelope(clamped);
  EXPECT_EQ(clamped.holds.size(), 6u);
  EXPECT_TRUE(inside_envelope(clamped));
  EXPECT_TRUE(std::equal(clamped.holds.begin(), clamped.holds.end(),
                         seven.holds.begin(),
                         [](const HoldSpec& a, const HoldSpec& b) {
                           return a.sender == b.sender &&
                                  a.release == b.release;
                         }));

  util::Rng rng(0x7401D5);
  for (int i = 0; i < 50; ++i) {
    const Scenario mutant = mutate_scenario(seven, nullptr, rng);
    EXPECT_LE(mutant.holds.size(), 6u) << format_spec(mutant);
    EXPECT_TRUE(inside_envelope(mutant)) << format_spec(mutant);
  }
}

TEST(FuzzMutation, ScriptedMutantsRunCleanAndExerciseScriptedPaths) {
  // Scripted mutants inside their envelopes must run violation-free, and
  // the scripted scheduler really drives the runs (nonzero traffic,
  // deterministic replay from the spec line).
  util::Rng rng(2024);
  std::size_t scripted_runs = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = generate_scenario(seed);
    for (int attempt = 0; attempt < 64 &&
                          s.scheduler != SchedulerKind::kScripted;
         ++attempt) {
      s = mutate_scenario(s, nullptr, rng);
      // Scripted timelines are unreachable inside the log-service family
      // (its envelope owns the Network end to end), so a chain that
      // crossed in restarts from the base rather than wedging there.
      if (s.log_ops > 0) s = generate_scenario(seed);
    }
    if (s.scheduler != SchedulerKind::kScripted) continue;
    ++scripted_runs;
    const RunReport r = run_scenario(s);
    EXPECT_EQ(r.failure, FailureKind::kNone)
        << format_spec(s) << "\n" << r.detail;
    EXPECT_GT(r.stats.broadcasts, 0u) << format_spec(s);
    // Spec-line replay is bit-identical (the repro contract).
    const auto replayed = parse_spec(format_spec(s));
    ASSERT_TRUE(replayed.has_value());
    EXPECT_EQ(run_scenario(*replayed).fingerprint, r.fingerprint)
        << format_spec(s);
  }
  EXPECT_GE(scripted_runs, 20u);
}

TEST(FuzzCoverage, SignatureIsStableAndDiscriminatesEnginePaths) {
  // Same scenario, same signature (bit-stable run to run).
  const Scenario s = generate_scenario(11);
  const CoverageSignature sig_a = coverage_signature(s, run_scenario(s));
  const CoverageSignature sig_b = coverage_signature(s, run_scenario(s));
  EXPECT_EQ(sig_a.key(), sig_b.key());

  // A late-hold resize scenario and a plain synchronous scenario must land
  // in different signatures (different scheduler, overflow, resize and
  // hold dimensions) — the signal that steers mutation toward rare paths.
  const auto resize_spec = parse_spec(
      "amacfuzz1:seed=43:alg=flooding:topo=clique:n=14:aux=0:sched=holdback:"
      "fack=5:late=1:in=alt:ids=perm:f=0:hz=1000000:holds=9@129,11@59,12@136");
  ASSERT_TRUE(resize_spec.has_value());
  const RunReport resize_report = run_scenario(*resize_spec);
  const CoverageSignature resize_sig =
      coverage_signature(*resize_spec, resize_report);
  EXPECT_NE(resize_sig.key(), sig_a.key());
  EXPECT_GT(resize_sig.overflow_bucket, 0);
  EXPECT_GT(resize_sig.resize_bucket, 0);
  EXPECT_TRUE(resize_sig.flags & CoverageSignature::kHasHolds);
  EXPECT_TRUE(resize_sig.flags & CoverageSignature::kLateHolds);
}

TEST(FuzzCoverage, CorpusIsBoundedAndDetectsNovelty) {
  CoverageCorpus corpus(4);
  CoverageSignature sig;
  sig.scheduler = 1;
  EXPECT_TRUE(corpus.observe(sig));
  EXPECT_FALSE(corpus.observe(sig));  // exact dedup on the packed key
  sig.overflow_bucket = 2;
  EXPECT_TRUE(corpus.observe(sig));
  EXPECT_EQ(corpus.distinct_signatures(), 2u);

  for (std::uint64_t seed = 1; seed <= 7; ++seed) {
    corpus.admit(generate_scenario(seed));
  }
  EXPECT_EQ(corpus.size(), 4u);  // bounded: ring-replaced, never grows
  // Ring replacement: seeds 5, 6, 7 overwrote slots 0, 1, 2.
  EXPECT_EQ(corpus.entry(0).seed, 5u);
  EXPECT_EQ(corpus.entry(1).seed, 6u);
  EXPECT_EQ(corpus.entry(2).seed, 7u);
  EXPECT_EQ(corpus.entry(3).seed, 4u);
}

TEST(FuzzCoverage, MutatingSoakStrictlyWidensCoverage) {
  // The acceptance property, at the CI budget: --mutate 0.5 over 2000
  // scenarios must discover strictly more distinct signatures than pure
  // generation of the same budget, while staying violation-free. Both
  // soaks are deterministic, so this can never flake.
  SoakOptions pure;
  pure.seed_base = 1;
  pure.count = 2000;
  pure.differential_every = 0;
  const SoakResult pure_result = run_soak(pure);
  ASSERT_TRUE(pure_result.ok());
  EXPECT_EQ(pure_result.mutated_runs, 0u);

  SoakOptions mutating = pure;
  mutating.mutate_ratio = 0.5;
  const SoakResult mutated_result = run_soak(mutating);
  ASSERT_TRUE(mutated_result.ok());
  EXPECT_GT(mutated_result.mutated_runs, 0u);

  EXPECT_GT(mutated_result.coverage.distinct, pure_result.coverage.distinct)
      << "mutation failed to widen signature coverage over blind generation";
  // The protocol dimension must strictly refine the engine-only (PR-4)
  // projection, and mutation must reach protocol corners pure generation
  // MISSED (a set difference, not a count comparison: replacing half the
  // generated stream with mutants can lose a pure corner for every mutant
  // corner gained, so strict count-widening flips on noise while the
  // difference stays non-empty) — the CI assertions.
  EXPECT_GT(mutated_result.coverage.distinct,
            mutated_result.coverage.engine_distinct);
  std::size_t mutant_only_protocol = 0;
  for (const std::uint64_t key : mutated_result.protocol_keys) {
    if (!pure_result.protocol_keys.contains(key)) ++mutant_only_protocol;
  }
  EXPECT_GT(mutant_only_protocol, 0u)
      << "mutation reached no protocol corner pure generation missed";
  EXPECT_GT(mutated_result.coverage.protocol_sigs, 0u);
  // The corpus digest folds every fingerprint, so the two soaks really ran
  // different scenario streams.
  EXPECT_NE(mutated_result.corpus_digest, pure_result.corpus_digest);
  // Coverage summary bookkeeping is consistent.
  EXPECT_EQ(mutated_result.coverage.distinct, mutated_result.novel_runs);
  EXPECT_LE(mutated_result.corpus.size(), mutating.corpus_max);
}

TEST(FuzzCoverage, InitialCorpusSeedsMutationBases) {
  // A soak seeded from an external corpus can mutate from the very first
  // scenario (no warm-up needed) — the --corpus-in path.
  SoakOptions options;
  options.seed_base = 1;
  options.count = 60;
  options.differential_every = 0;
  options.mutate_ratio = 1.0;
  options.initial_corpus.push_back(generate_scenario(5000));
  const SoakResult result = run_soak(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.mutated_runs, result.runs);
}

TEST(FuzzShrinker, MinimizesHoldReleaseToExactThreshold) {
  // The schedule-space shrinking demo: a bloated Theorem 3.3-style
  // violation (anonymous min-flood, ring of 8, four held senders at
  // release 400) must shrink not only structurally but in VALUES — the
  // surviving hold release lands exactly at its reproduction threshold:
  // the violation reproduces at the shrunk release and provably does not
  // one tick below it.
  const auto scenario = parse_spec(
      "amacfuzz1:seed=1:alg=anonymous:topo=ring:n=8:aux=0:sched=holdback:"
      "fack=3:late=0:in=alt:ids=identity:f=0:hz=1000000:"
      "holds=0@400,2@400,4@400,6@400");
  ASSERT_TRUE(scenario.has_value());
  ASSERT_EQ(run_scenario(*scenario).failure, FailureKind::kAgreement);

  ShrinkOptions options;
  options.max_attempts = 400;  // room for both phases to reach fixpoint
  const ShrinkResult shrunk = shrink_scenario(
      *scenario, FailureKind::kAgreement, RunOptions{}, options);
  EXPECT_EQ(shrunk.report.failure, FailureKind::kAgreement);
  ASSERT_FALSE(shrunk.scenario.holds.empty());

  // Values were minimized, not just entries dropped.
  for (const auto& h : shrunk.scenario.holds) {
    EXPECT_LT(h.release, 400u) << format_spec(shrunk.scenario);
  }
  // Exactness: decrementing any hold release makes the violation vanish
  // (the failure is monotone in the release for this family, and the
  // binary search's final no-progress pass probed release - 1).
  for (std::size_t i = 0; i < shrunk.scenario.holds.size(); ++i) {
    if (shrunk.scenario.holds[i].release == 0) continue;
    Scenario below = shrunk.scenario;
    below.holds[i].release -= 1;
    normalize_scenario(below);
    EXPECT_NE(run_scenario(below).failure, FailureKind::kAgreement)
        << "hold " << i << " of " << format_spec(shrunk.scenario)
        << " is not at its threshold";
  }
  // The minimal spec still replays to the same violation.
  const auto replayed = parse_spec(format_spec(shrunk.scenario));
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(run_scenario(*replayed).failure, FailureKind::kAgreement);
  // Pins of the shrink path: the exact minimal spec and the candidate runs
  // spent reaching it.
  EXPECT_EQ(format_spec(shrunk.scenario),
            "amacfuzz1:seed=1:alg=anonymous:topo=ring:n=3:aux=0:"
            "sched=holdback:fack=1:late=0:in=alt:ids=identity:f=0:"
            "hz=1000000:holds=0@3,2@3");
  EXPECT_EQ(shrunk.attempts, 32u);
}

}  // namespace
}  // namespace amac::fuzz

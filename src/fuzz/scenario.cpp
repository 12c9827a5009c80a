#include "fuzz/scenario.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>

#include "net/topologies.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace amac::fuzz {

namespace {

using harness::Algorithm;

// Salts separating the derived random streams. Every stream is
// Rng(hash(seed, salt)), so the dimensions can't alias each other and a
// shrink step that changes one dimension leaves the others' draws intact.
constexpr std::uint64_t kGenSalt = 0xF022ED11;
constexpr std::uint64_t kTopoSalt = 0x70601061;
constexpr std::uint64_t kInputSalt = 0x1A9B75C1;
constexpr std::uint64_t kIdSalt = 0x1DA551;
constexpr std::uint64_t kSchedSalt = 0x5C4EDD1E;
constexpr std::uint64_t kFaultSalt = 0xFA0175;
constexpr std::uint64_t kLargeSalt = 0x1A26E701;
constexpr std::uint64_t kLogSalt = 0x10654A17;

[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t salt) {
  util::Hasher h;
  h.mix_u64(seed);
  h.mix_u64(salt);
  return h.digest();
}

[[nodiscard]] std::uint32_t min_nodes(TopologyKind k) {
  switch (k) {
    case TopologyKind::kRing: return 3;
    case TopologyKind::kTorus: return 9;  // 3x3
    default: return 2;
  }
}

[[nodiscard]] net::Graph build_graph(const Scenario& s) {
  util::Rng rng(sub_seed(s.seed, kTopoSalt));
  const std::size_t n = std::max(s.n, min_nodes(s.topology));
  switch (s.topology) {
    case TopologyKind::kClique: return net::make_clique(n);
    case TopologyKind::kLine: return net::make_line(n);
    case TopologyKind::kRing: return net::make_ring(n);
    case TopologyKind::kStar: return net::make_star(n);
    case TopologyKind::kGrid: {
      const std::size_t w =
          std::clamp<std::size_t>(s.aux, 1, std::max<std::size_t>(1, n));
      const std::size_t h = std::max<std::size_t>(1, n / w);
      if (w * h < 2) return net::make_grid(2, 1);
      return net::make_grid(w, h);
    }
    case TopologyKind::kTorus: {
      const std::size_t w = std::clamp<std::size_t>(s.aux, 3, n / 3);
      const std::size_t h = std::max<std::size_t>(3, n / w);
      return net::make_torus(w, h);
    }
    case TopologyKind::kBinaryTree: return net::make_binary_tree(n);
    case TopologyKind::kBarbell: {
      const std::size_t path = std::max<std::uint32_t>(1, s.aux);
      const std::size_t k =
          n > path ? std::max<std::size_t>(1, (n - (path - 1)) / 2) : 1;
      return net::make_barbell(k, path);
    }
    case TopologyKind::kRandomConnected: {
      const double p = 0.05 + 0.30 * rng.uniform01();
      return net::make_random_connected(n, p, rng);
    }
    case TopologyKind::kRandomGeometric: {
      const double r = 0.20 + 0.30 * rng.uniform01();
      return net::make_random_geometric(n, r, rng);
    }
  }
  AMAC_ASSERT(false);
  return net::Graph(1);
}

[[nodiscard]] bool needs_diameter(Algorithm a) {
  return a == Algorithm::kAnonymous || a == Algorithm::kStability;
}

[[nodiscard]] bool synchronous_only(Algorithm a) {
  // Theorems 3.3 / 3.9: outside the synchronous scheduler these algorithms
  // genuinely violate agreement, so the generator never pairs them with an
  // adversarial scheduler (hand-written specs still can, to reproduce the
  // paper's counterexamples).
  return a == Algorithm::kAnonymous || a == Algorithm::kStability;
}

[[nodiscard]] bool single_hop_only(Algorithm a) {
  return a == Algorithm::kTwoPhase || a == Algorithm::kBenOr;
}

}  // namespace

bool termination_expected(const Scenario& s) {
  // Bounded-loss envelope: rate faults drop copies permanently and a
  // kForever window severs a link for good, so no algorithm owes
  // termination under either (agreement/validity stay unconditional).
  // Finite windows merely defer deliveries — the engine stretches the ack
  // past every deferred arrival — so they never cost liveness by
  // themselves. Duplicate rates are conservatively excluded too: the
  // oracle only promises termination on fault-free (or deferral-only)
  // runs.
  if (s.drop_rate_bp != 0 || s.dup_rate_bp != 0) return false;
  for (const auto& w : s.faults) {
    if (w.until_tick == mac::kForever) return false;
  }
  switch (s.algorithm) {
    case Algorithm::kTwoPhase:
    case Algorithm::kFlooding:
    case Algorithm::kWPaxos:
    case Algorithm::kAnonymous:
    case Algorithm::kStability:
      // Deterministic algorithms: Theorem 3.2 says one crash may already
      // cost liveness, so the oracle demands termination only crash-free.
      return s.crashes.empty();
    case Algorithm::kBenOr:
      // Randomized: lives up to its declared f (normalize keeps f < n/2).
      return s.crashes.size() <= s.benor_f;
  }
  AMAC_ASSERT(false);
  return false;
}

void normalize_scenario(Scenario& s) {
  s.n = std::max(s.n, min_nodes(s.topology));
  if (s.fack < 1) s.fack = 1;
  // Log-service knobs: inert (reset to defaults, so format_spec stays
  // canonical) outside the family, floored to well-formed values inside it.
  // Service runs cap n well under the engine's 4096-instance-id/kLeaderBits
  // ceilings — derived topology counts can overshoot s.n a little.
  if (s.log_ops == 0) {
    s.log_batch = 8;
    s.log_window = 4;
    s.log_lease = 64;
  } else {
    s.log_ops = std::min<std::uint32_t>(s.log_ops, 65536);
    s.log_batch = std::clamp<std::uint32_t>(s.log_batch, 1, 4096);
    s.log_window = std::clamp<std::uint32_t>(s.log_window, 1, 256);
    s.log_lease = std::clamp<std::uint32_t>(s.log_lease, 1, 65536);
    s.n = std::min<std::uint32_t>(s.n, 2048);
  }
  if (s.scheduler != SchedulerKind::kHoldback) {
    s.holds.clear();
    s.late_holds = false;
  }
  if (s.scheduler != SchedulerKind::kScripted) s.script.clear();
  const std::size_t count = build_graph(s).node_count();
  std::erase_if(s.crashes, [&](const CrashSpec& c) { return c.node >= count; });
  std::erase_if(s.holds, [&](const HoldSpec& h) { return h.sender >= count; });
  std::erase_if(s.script,
                [&](const ScriptSlot& t) { return t.sender >= count; });
  // Fault windows on out-of-range or self links are inert; so are finite
  // windows that close at or before they open. Dropping them keeps the
  // shrinker's "remove a window" steps canonical.
  std::erase_if(s.faults, [&](const FaultSpec& w) {
    return w.from >= count || w.to >= count || w.from == w.to ||
           (w.until_tick != mac::kForever && w.until_tick <= w.from_tick);
  });
  if (s.scheduler == SchedulerKind::kScripted) {
    // Slot well-formedness mirrors ScriptedScheduler's contracts; the
    // scenario's fack mirrors the scheduler's effective bound (max scripted
    // ack, with the synchronous length-1 fallback), so decide-round
    // bucketing and spec lines stay meaningful. Per-receiver slots are
    // canonicalized: out-of-range receivers dropped, later-wins dedupe,
    // receiver-sorted, delays clamped into [1, ack], and `recv` mirrors the
    // largest listed delay (ScriptedScheduler gives unlisted receivers
    // delay 1).
    mac::Time max_ack = 1;
    for (auto& t : s.script) {
      if (t.ack < 1) t.ack = 1;
      if (!t.delays.empty()) {
        std::vector<std::pair<NodeId, mac::Time>> kept;
        for (const auto& [receiver, delay] : t.delays) {
          if (receiver >= count) continue;
          const mac::Time d = std::clamp<mac::Time>(delay, 1, t.ack);
          bool replaced = false;
          for (auto& k : kept) {
            if (k.first == receiver) {
              k.second = d;  // later-wins, like ScriptedScheduler's scan
              replaced = true;
            }
          }
          if (!replaced) kept.emplace_back(receiver, d);
        }
        std::sort(kept.begin(), kept.end());
        t.delays = std::move(kept);
      }
      if (t.delays.empty()) {
        if (t.recv < 1) t.recv = 1;
        if (t.recv > t.ack) t.recv = t.ack;
      } else {
        t.recv = 1;
        for (const auto& [receiver, delay] : t.delays) {
          t.recv = std::max(t.recv, delay);
        }
      }
      max_ack = std::max(max_ack, t.ack);
    }
    s.fack = max_ack;
  }
  if (s.algorithm == Algorithm::kBenOr) {
    const std::size_t max_f = (count - 1) / 2;
    s.benor_f = std::min(s.benor_f, max_f);
    if (s.crashes.size() > s.benor_f) s.crashes.resize(s.benor_f);
  }
}

// ---- mutation -----------------------------------------------------------

namespace {

// Mutation value bounds. Wider than the generator's draw ranges on purpose
// (that is where the new coverage lives) but small enough that a mutant
// still runs in fuzz-soak time: releases stay inside the wheel's resizable
// horizon and crash times inside every horizon the clamp can pick.
constexpr mac::Time kMaxMutatedFack = 64;
constexpr mac::Time kMaxMutatedRelease = 4000;
constexpr mac::Time kMaxMutatedCrashTime = 5000;
constexpr std::size_t kMaxMutatedHolds = 6;
constexpr std::size_t kMaxMutatedCrashes = 4;
constexpr std::uint32_t kMaxMutatedNodes = 24;
// Scripted-timeline bounds: slots stay few (unscripted broadcasts fall back
// to lock-step, so a handful of slots already builds the paper's
// counterexample shapes), indices reachable in soak time, acks inside the
// wheel's initial span so scripted runs stress the batch path, not the heap.
constexpr std::size_t kMaxScriptSlots = 6;
constexpr std::uint32_t kMaxScriptIndex = 12;
constexpr mac::Time kMaxScriptAck = 32;
// Link-fault bounds: a handful of windows inside the wheel's resizable
// horizon already builds partition-and-heal shapes, and rates cap at 20%
// so faulted soak runs still make protocol progress worth covering.
constexpr std::size_t kMaxFaultWindows = 4;
constexpr mac::Time kMaxFaultTick = 4000;
constexpr std::uint32_t kMaxFaultRateBp = 2000;
// Log-service bounds: every slot is a full consensus instance, so ops stay
// soak-sized; batch/window stay small enough that pipelining and stalls
// interleave, and leases stay short so renewals — and re-elections after a
// leader crash — happen several times per run.
constexpr std::uint32_t kMinMutatedLogOps = 8;
constexpr std::uint32_t kMaxMutatedLogOps = 256;
constexpr std::uint32_t kMaxMutatedLogBatch = 16;
constexpr std::uint32_t kMaxMutatedLogWindow = 8;
constexpr std::uint32_t kMaxMutatedLogLease = 32;

[[nodiscard]] mac::Time clamp_time(mac::Time t, mac::Time lo, mac::Time hi) {
  return t < lo ? lo : (t > hi ? hi : t);
}

/// Halve, double, or nudge a tick value (the perturb-* ops).
[[nodiscard]] mac::Time perturb_time(mac::Time t, util::Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0: return t / 2;
    case 1: return t * 2;
    case 2: return t + rng.uniform(1, 8);
    default: return t > 1 ? t - rng.uniform(1, std::min<mac::Time>(t - 1, 8))
                          : t + 1;
  }
}

[[nodiscard]] bool crashes_allowed(const Scenario& s) {
  switch (s.algorithm) {
    case Algorithm::kFlooding:
    case Algorithm::kWPaxos:
      return s.crashes.size() < kMaxMutatedCrashes;
    case Algorithm::kBenOr:
      return s.crashes.size() < s.benor_f;
    default:
      return false;  // crash-intolerant: mutants stay crash-free
  }
}

// Link-fault envelope per algorithm. Faults only go where SAFETY survives
// them (termination_expected separately withdraws the liveness demand on
// lossy plans), so a faulted mutant violation is a real bug:
//   * synchronous-only algorithms (Theorems 3.3/3.9) get no faults at all —
//     under them any asynchrony is an expected counterexample;
//   * two-phase loses agreement under permanent loss (a decided node's
//     phase-1 and phase-2 messages can both vanish toward one witness, which
//     then completes its witness wait on the other value), so it keeps only
//     deferral faults: zero drop rate, finite windows;
//   * wpaxos acceptor responses carry tallied counts with no dedup, so
//     duplicate faults are withheld; loss is safe (monotone acceptor state
//     plus quorum intersection);
//   * flooding and Ben-Or tolerate arbitrary loss and duplication.
[[nodiscard]] bool faults_allowed(const Scenario& s) {
  // The log service owns its Network and exposes no LinkFaultPlan seam, so
  // the log family carries no faults (clamp scrubs them; the gate here just
  // keeps fault ops from producing no-op mutants).
  return !synchronous_only(s.algorithm) && s.log_ops == 0;
}

[[nodiscard]] bool permanent_loss_allowed(const Scenario& s) {
  return faults_allowed(s) && s.algorithm != Algorithm::kTwoPhase;
}

[[nodiscard]] bool duplicates_allowed(const Scenario& s) {
  return faults_allowed(s) && s.algorithm != Algorithm::kWPaxos;
}

/// Applies `op` to `s` in place. Returns false when the op does not apply
/// to this scenario's shape (no holds to drop, wrong scheduler, ...).
bool apply_mutation(Scenario& s, MutationOp op, const Scenario* splice,
                    util::Rng& rng) {
  switch (op) {
    case MutationOp::kPerturbFack:
      // Scripted scenarios derive fack from their slots (normalize); perturb
      // the slots instead.
      if (s.scheduler == SchedulerKind::kScripted) return false;
      s.fack = clamp_time(perturb_time(s.fack, rng), 1, kMaxMutatedFack);
      return true;
    case MutationOp::kPerturbHoldRelease: {
      if (s.holds.empty()) return false;
      auto& h = s.holds[rng.uniform(0, s.holds.size() - 1)];
      h.release =
          clamp_time(perturb_time(h.release, rng), 2, kMaxMutatedRelease);
      return true;
    }
    case MutationOp::kPerturbCrashTime: {
      if (s.crashes.empty()) return false;
      auto& c = s.crashes[rng.uniform(0, s.crashes.size() - 1)];
      c.when = clamp_time(perturb_time(c.when, rng), 1, kMaxMutatedCrashTime);
      return true;
    }
    case MutationOp::kRetimeHold: {
      if (s.holds.empty()) return false;
      auto& h = s.holds[rng.uniform(0, s.holds.size() - 1)];
      h.release = clamp_time(rng.uniform(2, 40 * s.fack + 200), 2,
                             kMaxMutatedRelease);
      return true;
    }
    case MutationOp::kAddHold: {
      if (s.scheduler != SchedulerKind::kHoldback ||
          s.holds.size() >= kMaxMutatedHolds) {
        return false;
      }
      HoldSpec h;
      h.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      h.release = clamp_time(rng.uniform(s.fack + 1, 20 * s.fack + 40), 2,
                             kMaxMutatedRelease);
      s.holds.push_back(h);
      return true;
    }
    case MutationOp::kRemoveHold:
      if (s.holds.empty()) return false;
      s.holds.erase(s.holds.begin() + static_cast<std::ptrdiff_t>(
                                          rng.uniform(0, s.holds.size() - 1)));
      return true;
    case MutationOp::kAddCrash: {
      if (!crashes_allowed(s)) return false;
      CrashSpec c;
      c.node = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      c.when = clamp_time(rng.uniform(1, 6 * s.fack + 2 * s.n), 1,
                          kMaxMutatedCrashTime);
      s.crashes.push_back(c);
      return true;
    }
    case MutationOp::kRemoveCrash:
      if (s.crashes.empty()) return false;
      s.crashes.erase(s.crashes.begin() +
                      static_cast<std::ptrdiff_t>(
                          rng.uniform(0, s.crashes.size() - 1)));
      return true;
    case MutationOp::kToggleLateHolds:
      if (s.scheduler != SchedulerKind::kHoldback || s.holds.empty()) {
        return false;
      }
      s.late_holds = !s.late_holds;
      return true;
    case MutationOp::kReseed:
      s.seed = rng.uniform(1, 999'999'999);
      return true;
    case MutationOp::kSpliceTransport:
      if (splice == nullptr) return false;
      s.topology = splice->topology;
      s.n = splice->n;
      s.aux = splice->aux;
      s.scheduler = splice->scheduler;
      s.fack = splice->fack;
      s.late_holds = splice->late_holds;
      s.holds = splice->holds;
      s.script = splice->script;
      s.drop_rate_bp = splice->drop_rate_bp;
      s.dup_rate_bp = splice->dup_rate_bp;
      s.faults = splice->faults;
      return true;
    case MutationOp::kScriptTimeline: {
      // Theorem 3.3/3.9 algorithms are only guaranteed under the
      // synchronous scheduler; a scripted timeline would be an expected
      // counterexample, not a bug, so they never get one. Log scenarios
      // never get one either: scripts index a one-shot instance's
      // broadcasts, which means nothing to a slot sequence (clamp would
      // scrub it into a no-op mutant).
      if (synchronous_only(s.algorithm) || s.log_ops > 0) return false;
      s.scheduler = SchedulerKind::kScripted;
      s.holds.clear();
      s.late_holds = false;
      s.script.clear();
      const std::size_t slots = rng.uniform(1, 4);
      for (std::size_t i = 0; i < slots; ++i) {
        ScriptSlot t;
        t.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
        t.index = static_cast<std::uint32_t>(rng.uniform(0, 5));
        t.ack = rng.uniform(1, kMaxScriptAck);
        t.recv = rng.uniform(1, t.ack);
        s.script.push_back(t);
      }
      return true;
    }
    case MutationOp::kRetimeScriptSlot: {
      if (s.script.empty()) return false;
      auto& t = s.script[rng.uniform(0, s.script.size() - 1)];
      t.ack = rng.uniform(1, kMaxScriptAck);
      t.recv = rng.uniform(1, t.ack);
      return true;
    }
    case MutationOp::kSwapScriptSlots: {
      // Exchange the delays of two slots while their (sender, index)
      // anchors stay put: a pure timeline reordering, the shape of the
      // paper's adversarial schedules.
      if (s.script.size() < 2) return false;
      const std::size_t i = rng.uniform(0, s.script.size() - 1);
      std::size_t j = rng.uniform(0, s.script.size() - 2);
      if (j >= i) ++j;
      std::swap(s.script[i].ack, s.script[j].ack);
      std::swap(s.script[i].recv, s.script[j].recv);
      return true;
    }
    case MutationOp::kDuplicateScriptSlot: {
      if (s.script.empty() || s.script.size() >= kMaxScriptSlots) {
        return false;
      }
      ScriptSlot t = s.script[rng.uniform(0, s.script.size() - 1)];
      t.index += 1;  // replay the same delays one broadcast later
      s.script.push_back(t);
      return true;
    }
    case MutationOp::kDropScriptSlot:
      // Keep at least one slot: a slotless scripted scenario is just the
      // synchronous scheduler in disguise (normalize can still empty the
      // script when a shrunk topology drops every scripted sender).
      if (s.script.size() <= 1) return false;
      s.script.erase(s.script.begin() +
                     static_cast<std::ptrdiff_t>(
                         rng.uniform(0, s.script.size() - 1)));
      return true;
    case MutationOp::kAddDropWindow: {
      if (!faults_allowed(s) || s.faults.size() >= kMaxFaultWindows ||
          s.n < 2) {
        return false;
      }
      FaultSpec w;
      w.from = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      w.to = static_cast<NodeId>(rng.uniform(0, s.n - 2));
      if (w.to >= w.from) ++w.to;  // distinct endpoints
      w.from_tick = rng.uniform(0, kMaxFaultTick - 1);
      if (permanent_loss_allowed(s) && rng.chance(0.2)) {
        w.until_tick = mac::kForever;  // sever the link for good
      } else {
        w.until_tick = w.from_tick + rng.uniform(1, 64);
      }
      s.faults.push_back(w);
      return true;
    }
    case MutationOp::kRemoveDropWindow:
      if (s.faults.empty()) return false;
      s.faults.erase(s.faults.begin() +
                     static_cast<std::ptrdiff_t>(
                         rng.uniform(0, s.faults.size() - 1)));
      return true;
    case MutationOp::kWidenDropWindow: {
      if (s.faults.empty()) return false;
      auto& w = s.faults[rng.uniform(0, s.faults.size() - 1)];
      const bool can_earlier = w.from_tick > 0;
      const bool can_later = w.until_tick != mac::kForever;
      if (!can_earlier && !can_later) return false;
      if (can_earlier && (!can_later || rng.chance(0.5))) {
        w.from_tick -= rng.uniform(1, std::min<mac::Time>(w.from_tick, 32));
      } else {
        w.until_tick += rng.uniform(1, 64);
      }
      return true;
    }
    case MutationOp::kNarrowDropWindow: {
      if (s.faults.empty()) return false;
      auto& w = s.faults[rng.uniform(0, s.faults.size() - 1)];
      if (w.until_tick == mac::kForever) {
        // Heal the link: the infinite outage becomes a bounded one.
        w.until_tick = w.from_tick + rng.uniform(1, 64);
        return true;
      }
      const mac::Time span = w.until_tick - w.from_tick;
      if (span <= 1) return false;
      const mac::Time cut = rng.uniform(1, span - 1);
      if (rng.chance(0.5)) {
        w.from_tick += cut;
      } else {
        w.until_tick -= cut;
      }
      return true;
    }
    case MutationOp::kPerturbFaultRates: {
      const bool drop_ok = permanent_loss_allowed(s);
      const bool dup_ok = duplicates_allowed(s);
      if (!drop_ok && !dup_ok) return false;
      const bool pick_drop = drop_ok && (!dup_ok || rng.chance(0.5));
      std::uint32_t& rate = pick_drop ? s.drop_rate_bp : s.dup_rate_bp;
      switch (rng.uniform(0, 2)) {
        case 0:  // fresh light rate (turns faults on)
          rate = static_cast<std::uint32_t>(rng.uniform(1, 500));
          break;
        case 1:  // intensify
          rate = std::min<std::uint32_t>(
              kMaxFaultRateBp,
              rate + static_cast<std::uint32_t>(rng.uniform(1, 250)));
          break;
        default:  // back toward the fault-free envelope
          rate /= 2;
          break;
      }
      return true;
    }
    case MutationOp::kScriptReceiverDelay: {
      // Retime ONE receiver of a scripted slot: the uniform slot becomes a
      // per-receiver one (unlisted receivers drop to ScriptedScheduler's
      // delay-1 default), which is the paper's "one node hears late" shape.
      if (s.script.empty()) return false;
      auto& t = s.script[rng.uniform(0, s.script.size() - 1)];
      const NodeId receiver = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      const mac::Time delay = rng.uniform(1, std::max<mac::Time>(1, t.ack));
      bool replaced = false;
      for (auto& [r, d] : t.delays) {
        if (r == receiver) {
          d = delay;
          replaced = true;
        }
      }
      if (!replaced) t.delays.emplace_back(receiver, delay);
      return true;
    }
    case MutationOp::kSpliceFaultWindows: {
      // Window-granular crossover (contrast kSpliceTransport, which copies
      // the partner's whole plan along with its transport): slot i of the
      // child takes parent A's or parent B's window i by a fair coin,
      // falling back to whichever parent still has a window there. The
      // global rates recombine the same way, and clamp_to_envelope +
      // normalize keep the child inside the algorithm's bounded-loss
      // envelope (out-of-range links are dropped, not remapped).
      if (splice == nullptr || !faults_allowed(s)) return false;
      if (s.faults.empty() && splice->faults.empty()) return false;
      const std::size_t slots = std::min<std::size_t>(
          std::max(s.faults.size(), splice->faults.size()), kMaxFaultWindows);
      std::vector<FaultSpec> child;
      child.reserve(slots);
      for (std::size_t i = 0; i < slots; ++i) {
        const bool from_base = rng.chance(0.5);
        const auto& first = from_base ? s.faults : splice->faults;
        const auto& second = from_base ? splice->faults : s.faults;
        if (i < first.size()) {
          child.push_back(first[i]);
        } else if (i < second.size()) {
          child.push_back(second[i]);
        }
      }
      s.faults = std::move(child);
      if (rng.chance(0.5)) s.drop_rate_bp = splice->drop_rate_bp;
      if (rng.chance(0.5)) s.dup_rate_bp = splice->dup_rate_bp;
      return true;
    }
    case MutationOp::kLogService: {
      // Enter the replicated-log family: the mutant runs a slot sequence
      // with elected leases instead of a one-shot instance. Crashes (and
      // the transport) carry over; clamp applies the family envelope.
      if (s.log_ops > 0) return false;
      s.log_ops = static_cast<std::uint32_t>(
          rng.uniform(kMinMutatedLogOps, kMaxMutatedLogOps / 2));
      s.log_batch = static_cast<std::uint32_t>(rng.uniform(1, 8));
      s.log_window = static_cast<std::uint32_t>(rng.uniform(1, 4));
      s.log_lease = static_cast<std::uint32_t>(rng.uniform(1, 16));
      return true;
    }
    case MutationOp::kPerturbLogKnobs: {
      if (s.log_ops == 0) return false;
      const auto nudge = [&](std::uint32_t v, std::uint32_t lo,
                             std::uint32_t hi) {
        return static_cast<std::uint32_t>(
            clamp_time(perturb_time(v, rng), lo, hi));
      };
      switch (rng.uniform(0, 3)) {
        case 0:
          s.log_ops = nudge(s.log_ops, kMinMutatedLogOps, kMaxMutatedLogOps);
          break;
        case 1:
          s.log_batch = nudge(s.log_batch, 1, kMaxMutatedLogBatch);
          break;
        case 2:
          s.log_window = nudge(s.log_window, 1, kMaxMutatedLogWindow);
          break;
        default:
          s.log_lease = nudge(s.log_lease, 1, kMaxMutatedLogLease);
          break;
      }
      return true;
    }
  }
  AMAC_ASSERT(false);
  return false;
}

}  // namespace

void clamp_to_envelope(Scenario& s) {
  // Log-service family envelope (log_ops > 0): the service IS the wPAXOS
  // renewal + leased CommitFlood stack, so the algorithm is pinned; it owns
  // its Network, so per-broadcast scripts and LinkFaultPlans have no seam
  // to thread through and are scrubbed. Crashes stay — a crash that takes
  // the lease holder is exactly the re-election/recovery coverage this
  // family exists for (the wPAXOS cap below still applies).
  if (s.log_ops > 0) {
    s.algorithm = Algorithm::kWPaxos;
    if (s.scheduler == SchedulerKind::kScripted) {
      s.scheduler = SchedulerKind::kUniformRandom;
      s.script.clear();
    }
    // The contention scheduler's declared fack bound covers ONE instance's
    // broadcast density; a pipelined slot sequence sustains arrivals above
    // the 1-frame-per-tick decode rate, so the receiver backlog — and with
    // it the worst delay — grows with the slot count and would trip the
    // scheduler's bound contract by design. No static bound fits a
    // service-length run; the family runs without that scheduler.
    if (s.scheduler == SchedulerKind::kContention) {
      s.scheduler = SchedulerKind::kUniformRandom;
    }
    s.drop_rate_bp = 0;
    s.dup_rate_bp = 0;
    s.faults.clear();
    s.log_ops = std::clamp<std::uint32_t>(s.log_ops, kMinMutatedLogOps,
                                          kMaxMutatedLogOps);
    s.log_batch = std::clamp<std::uint32_t>(s.log_batch, 1, kMaxMutatedLogBatch);
    s.log_window =
        std::clamp<std::uint32_t>(s.log_window, 1, kMaxMutatedLogWindow);
    s.log_lease = std::clamp<std::uint32_t>(s.log_lease, 1, kMaxMutatedLogLease);
  }
  // Mirror generate_scenario's envelope: Theorem 3.3/3.9 algorithms are
  // synchronous-only and crash-free; single-hop algorithms live on the
  // clique; crashes only go where safety (or Ben-Or's f) covers them.
  if (synchronous_only(s.algorithm)) {
    s.scheduler = SchedulerKind::kSynchronous;
    s.crashes.clear();
  }
  if (single_hop_only(s.algorithm)) {
    s.topology = TopologyKind::kClique;
    s.aux = 0;
  }
  switch (s.algorithm) {
    case Algorithm::kFlooding:
    case Algorithm::kWPaxos:
      if (s.crashes.size() > kMaxMutatedCrashes) {
        s.crashes.resize(kMaxMutatedCrashes);
      }
      break;
    case Algorithm::kBenOr:
      break;  // normalize_scenario enforces crashes <= f < n/2
    default:
      s.crashes.clear();  // crash-intolerant deterministic algorithms
  }
  const bool multi_ok = s.algorithm == Algorithm::kFlooding ||
                        s.algorithm == Algorithm::kWPaxos;
  if (!multi_ok && s.inputs == InputPattern::kMultivalued) {
    s.inputs = InputPattern::kSplit;
  }
  s.fack = clamp_time(s.fack, 1, kMaxMutatedFack);
  if (s.n > kMaxMutatedNodes) s.n = kMaxMutatedNodes;
  for (auto& h : s.holds) h.release = clamp_time(h.release, 1, kMaxMutatedRelease);
  for (auto& c : s.crashes) c.when = clamp_time(c.when, 1, kMaxMutatedCrashTime);
  if (s.script.size() > kMaxScriptSlots) s.script.resize(kMaxScriptSlots);
  for (auto& t : s.script) {
    if (t.index > kMaxScriptIndex) t.index = kMaxScriptIndex;
    t.ack = clamp_time(t.ack, 1, kMaxScriptAck);
    t.recv = clamp_time(t.recv, 1, t.ack);
    for (auto& [receiver, delay] : t.delays) {
      delay = clamp_time(delay, 1, t.ack);
    }
  }
  // Link faults stay inside each algorithm's bounded-loss envelope (see
  // faults_allowed and friends above): synchronous-only algorithms get
  // none, two-phase keeps only deferral faults (no permanent loss), wpaxos
  // never sees duplicates, and rates/windows stay inside mutation bounds.
  if (!faults_allowed(s)) {
    s.drop_rate_bp = 0;
    s.dup_rate_bp = 0;
    s.faults.clear();
  }
  if (!permanent_loss_allowed(s)) {
    s.drop_rate_bp = 0;
    for (auto& w : s.faults) {
      if (w.until_tick == mac::kForever) {
        w.until_tick = std::min<mac::Time>(w.from_tick + 64, kMaxFaultTick);
      }
    }
  }
  if (!duplicates_allowed(s)) s.dup_rate_bp = 0;
  s.drop_rate_bp = std::min(s.drop_rate_bp, kMaxFaultRateBp);
  s.dup_rate_bp = std::min(s.dup_rate_bp, kMaxFaultRateBp);
  if (s.faults.size() > kMaxFaultWindows) s.faults.resize(kMaxFaultWindows);
  for (auto& w : s.faults) {
    if (w.from_tick > kMaxFaultTick - 1) w.from_tick = kMaxFaultTick - 1;
    if (w.until_tick != mac::kForever) {
      w.until_tick =
          std::clamp<mac::Time>(w.until_tick, w.from_tick + 1, kMaxFaultTick);
    }
  }
  normalize_scenario(s);
  // Same horizon policy as the generator: liveness runs get room, safety-
  // only runs stop once the interesting prefix has played out.
  s.horizon = termination_expected(s) ? 1'000'000 : 30'000;
}

bool inside_envelope(const Scenario& s) {
  Scenario clamped = s;
  clamp_to_envelope(clamped);
  return format_spec(clamped) == format_spec(s);
}

Scenario mutate_scenario(const Scenario& base, const Scenario* splice,
                         util::Rng& rng) {
  Scenario s = base;
  bool applied = false;
  for (int attempt = 0; attempt < 8 && !applied; ++attempt) {
    const auto op =
        static_cast<MutationOp>(rng.uniform(0, kMutationOpCount - 1));
    applied = apply_mutation(s, op, splice, rng);
  }
  // Every scenario admits a reseed, so a mutant never degenerates into a
  // verbatim copy of its parent.
  if (!applied) apply_mutation(s, MutationOp::kReseed, splice, rng);
  clamp_to_envelope(s);
  return s;
}

Scenario generate_scenario(std::uint64_t seed) {
  util::Rng rng(sub_seed(seed, kGenSalt));
  Scenario s;
  s.seed = seed;
  s.algorithm = static_cast<Algorithm>(rng.uniform(0, 5));

  // Topology: single-hop algorithms get the clique; the rest roam the
  // whole family.
  if (single_hop_only(s.algorithm)) {
    s.topology = TopologyKind::kClique;
  } else {
    s.topology =
        static_cast<TopologyKind>(rng.uniform(0, kTopologyKindCount - 1));
  }
  switch (s.topology) {
    case TopologyKind::kGrid: {
      s.aux = static_cast<std::uint32_t>(rng.uniform(2, 4));
      s.n = s.aux * static_cast<std::uint32_t>(rng.uniform(2, 4));
      break;
    }
    case TopologyKind::kTorus: {
      s.aux = static_cast<std::uint32_t>(rng.uniform(3, 4));
      s.n = s.aux * static_cast<std::uint32_t>(rng.uniform(3, 4));
      break;
    }
    case TopologyKind::kBarbell: {
      s.aux = static_cast<std::uint32_t>(rng.uniform(1, 3));
      s.n = static_cast<std::uint32_t>(rng.uniform(4, 12));
      break;
    }
    default: {
      const std::uint32_t lo = min_nodes(s.topology);
      const std::uint32_t hi = s.algorithm == Algorithm::kBenOr ? 9 : 14;
      s.n = static_cast<std::uint32_t>(rng.uniform(lo, std::max(lo, hi)));
      break;
    }
  }

  // Scheduler: Theorem 3.3/3.9 algorithms are synchronous-only. The draw
  // range is pinned to the GENERATED kinds (kScripted is mutation-only), so
  // adding scripted timelines did not move a single generated scenario —
  // the 504-corpus digest is bit-identical across that change.
  if (synchronous_only(s.algorithm)) {
    s.scheduler = SchedulerKind::kSynchronous;
  } else {
    s.scheduler = static_cast<SchedulerKind>(
        rng.uniform(0, kGeneratedSchedulerKindCount - 1));
  }
  s.fack = s.scheduler == SchedulerKind::kSynchronous
               ? rng.uniform(1, 4)
               : s.scheduler == SchedulerKind::kContention
                     ? rng.uniform(1, 3)  // contention: base delay
                     : rng.uniform(2, 6);

  if (s.scheduler == SchedulerKind::kHoldback) {
    const std::size_t hold_count = rng.uniform(1, 3);
    for (std::size_t i = 0; i < hold_count; ++i) {
      HoldSpec h;
      h.sender = static_cast<NodeId>(rng.uniform(0, s.n - 1));
      h.release = rng.uniform(s.fack + 1, 20 * s.fack + 40);
      s.holds.push_back(h);
    }
    s.late_holds = rng.chance(0.5);
  }

  // Inputs: binary patterns everywhere; multivalued only where the
  // algorithm supports general values.
  const bool multi_ok = s.algorithm == Algorithm::kFlooding ||
                        s.algorithm == Algorithm::kWPaxos;
  s.inputs = static_cast<InputPattern>(
      rng.uniform(0, multi_ok ? kInputPatternCount - 1
                              : kInputPatternCount - 2));
  s.ids = rng.chance(0.5) ? IdAssignment::kPermuted : IdAssignment::kIdentity;

  // Crash schedule, inside each algorithm's envelope. Crash times target
  // the first few ack windows, where broadcasts are mid-flight.
  const std::size_t count = build_graph(s).node_count();
  const auto draw_crashes = [&](std::size_t how_many) {
    for (std::size_t i = 0; i < how_many; ++i) {
      CrashSpec c;
      c.node = static_cast<NodeId>(rng.uniform(0, count - 1));
      c.when = rng.uniform(1, 6 * s.fack + 2 * count);
      s.crashes.push_back(c);
    }
  };
  switch (s.algorithm) {
    case Algorithm::kFlooding:
    case Algorithm::kWPaxos:
      // Safety-only territory: a third of the runs get crashes.
      if (rng.chance(0.33)) draw_crashes(rng.uniform(1, 2));
      break;
    case Algorithm::kBenOr: {
      s.benor_f = rng.uniform(0, (count - 1) / 2);
      if (s.benor_f > 0) draw_crashes(rng.uniform(0, s.benor_f));
      break;
    }
    default:
      break;  // crash-intolerant: generator keeps them crash-free
  }

  normalize_scenario(s);
  // Liveness runs get a generous horizon; safety-only runs are cut short
  // once the interesting (crash-interleaved) prefix has played out.
  s.horizon = termination_expected(s) ? 1'000'000 : 30'000;
  return s;
}

void promote_to_large(Scenario& s, std::uint32_t n) {
  s.n = std::max<std::uint32_t>(n, 16);
  // Clique-locked algorithms cannot scale: single-hop topologies are
  // Theta(n^2) edges, and Ben-Or's coin convergence needs tiny n anyway.
  // Flooding accepts every topology, scheduler, crash set, and fault plan,
  // so it inherits the rest of the scenario unchanged.
  if (single_hop_only(s.algorithm)) s.algorithm = Algorithm::kFlooding;
  // Liveness-checked wPAXOS cannot scale either: n concurrent proposers
  // duel, and convergence time at n >= 1024 has no bound a soak can wait
  // out (a promoted crash-free run would be held against its 1M-tick
  // horizon). Safety-only wPAXOS runs — crashed or faulted, on the short
  // horizon below — are bounded and keep the Lemma 4.2 monitor running at
  // scale, so only the termination-expected ones are remapped.
  if (s.algorithm == Algorithm::kWPaxos && termination_expected(s)) {
    s.algorithm = Algorithm::kFlooding;
  }
  // Only bounded-degree, low-diameter shapes are affordable at n >= 1024:
  // cliques/barbells/randconn materialize ~n^2 edges, geo at the small-n
  // radii is nearly as dense, and a ring/line's n/2 diameter turns
  // D-knowledge runs quadratic. Other draws remap deterministically so
  // promotion stays a pure function of the scenario.
  const bool sparse = s.topology == TopologyKind::kGrid ||
                      s.topology == TopologyKind::kTorus ||
                      s.topology == TopologyKind::kBinaryTree ||
                      s.topology == TopologyKind::kStar;
  if (!sparse) {
    static constexpr TopologyKind kSparseFamily[] = {
        TopologyKind::kGrid, TopologyKind::kTorus, TopologyKind::kBinaryTree,
        TopologyKind::kStar};
    s.topology = kSparseFamily[sub_seed(s.seed, kLargeSalt) % 4];
  }
  if (s.topology == TopologyKind::kGrid ||
      s.topology == TopologyKind::kTorus) {
    // Near-square: width*height lands close to n and diameter ~2*sqrt(n).
    std::uint32_t w = 3;
    while ((w + 1) * (w + 1) <= s.n) ++w;
    s.aux = w;
  } else {
    s.aux = 0;
  }
  normalize_scenario(s);
  // Liveness runs keep the generator's horizon (they stop at decide, in
  // O(diameter) rounds); safety-only runs get a shorter prefix than the
  // small-n policy — the interesting schedule prefix is no longer at 4096
  // nodes than at 14, but each tick costs ~300x more deliveries.
  s.horizon = termination_expected(s) ? 1'000'000 : 4'000;
}

void promote_to_log_service(Scenario& s) {
  util::Rng rng(sub_seed(s.seed, kLogSalt));
  // Ops counts stay soak-sized (every slot is a full consensus instance)
  // and lease draws lean short, so renewals — and re-elections when the
  // base scenario's crashes take the lease holder — happen several times
  // per run. Everything else (seed, transport, crashes, holds) is
  // inherited; clamp_to_envelope applies the family envelope.
  s.log_ops = static_cast<std::uint32_t>(rng.uniform(16, 128));
  s.log_batch = static_cast<std::uint32_t>(rng.uniform(1, 8));
  s.log_window = static_cast<std::uint32_t>(rng.uniform(1, 4));
  s.log_lease = static_cast<std::uint32_t>(rng.uniform(2, 16));
  clamp_to_envelope(s);
}

// ---- spec round-trip ----------------------------------------------------

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// Appends one list entry's fields, joined by `sep`.
void append_fields(std::string& out, std::initializer_list<std::uint64_t> v,
                   char sep = '@') {
  for (const std::uint64_t* f = v.begin(); f != v.end(); ++f) {
    if (f != v.begin()) out += sep;
    append_u64(out, *f);
  }
}

/// Appends `items` separated by `sep`, each written by `entry`.
template <typename T, typename Entry>
void format_list(std::string& out, const std::vector<T>& items, Entry entry,
                 char sep = ',') {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    entry(out, items[i]);
  }
}

/// Parses a decimal value into `out`, inside [lo, hi] and T's range.
template <typename T>
[[nodiscard]] bool parse_num(std::string_view v, T& out, std::uint64_t lo = 0,
                             std::uint64_t hi = UINT64_MAX) {
  const auto u = util::parse_u64(v);
  if (!u || *u < lo || *u > hi ||
      *u > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(*u);
  return true;
}

/// Splits one list entry into exactly N fields separated by `sep`.
template <std::size_t N>
[[nodiscard]] std::optional<std::array<std::string_view, N>> split_fields(
    std::string_view item, char sep = '@') {
  std::array<std::string_view, N> f;
  for (std::size_t i = 0; i + 1 < N; ++i) {
    const std::size_t at = item.find(sep);
    if (at == std::string_view::npos) return std::nullopt;
    f[i] = item.substr(0, at);
    item.remove_prefix(at + 1);
  }
  if (item.find(sep) != std::string_view::npos) return std::nullopt;
  f[N - 1] = item;
  return f;
}

/// The list grammar every list field shares: entries separated by `sep`
/// (`,` for spec fields), each split into N fields by `field_sep` and
/// turned into an element by `make` (false on a malformed entry).
template <std::size_t N, typename T, typename Make>
[[nodiscard]] bool parse_list(std::string_view v, std::vector<T>& out,
                              Make make, char sep = ',',
                              char field_sep = '@') {
  for (;;) {
    const std::size_t comma = v.find(sep);
    const auto f = split_fields<N>(v.substr(0, comma), field_sep);
    T item{};
    if (!f || !make(*f, item)) return false;
    out.push_back(std::move(item));
    if (comma == std::string_view::npos) return true;
    v.remove_prefix(comma + 1);
  }
}

/// One row of the spec grammar. `format` appends the field's value;
/// writing nothing omits an optional field (it is at its default), and
/// parse_spec rejects an empty value, so the round trip stays exact.
struct SpecField {
  std::string_view key;
  bool required;
  void (*format)(std::string& out, const Scenario& s);
  bool (*parse)(std::string_view v, Scenario& s);
};

/// An integer field inside [Lo, Hi]; an optional one is omitted at zero.
template <auto Member, std::uint64_t Lo = 0, std::uint64_t Hi = UINT64_MAX,
          bool kRequired = true>
constexpr SpecField num_field(std::string_view key) {
  return {key, kRequired,
          [](std::string& out, const Scenario& s) {
            if (kRequired || s.*Member != 0) append_u64(out, s.*Member);
          },
          [](std::string_view v, Scenario& s) {
            return parse_num(v, s.*Member, Lo, Hi);
          }};
}

/// An enum field spelled by its name array.
template <auto Member, const auto& Names>
constexpr SpecField name_field(std::string_view key) {
  return {key, true,
          [](std::string& out, const Scenario& s) {
            out += util::enum_name(Names, s.*Member);
          },
          [](std::string_view v, Scenario& s) {
            return util::enum_from_name(Names, v, s.*Member);
          }};
}

/// A `a@b,c@d` list of two-field entries (crashes, holds).
template <auto List, auto First, auto Second>
constexpr SpecField pair_list(std::string_view key) {
  return {key, false,
          [](std::string& out, const Scenario& s) {
            format_list(out, s.*List, [](std::string& o, const auto& e) {
              append_fields(o, {e.*First, e.*Second});
            });
          },
          [](std::string_view v, Scenario& s) {
            return parse_list<2>(v, s.*List, [](const auto& f, auto& e) {
              return parse_num(f[0], e.*First) && parse_num(f[1], e.*Second);
            });
          }};
}

/// `log=ops@batch@window@lease`, all four nonzero; a zero-op service is
/// spelled by omitting the token.
void format_log(std::string& out, const Scenario& s) {
  if (s.log_ops == 0) return;
  append_fields(out, {s.log_ops, s.log_batch, s.log_window, s.log_lease});
}

bool parse_log(std::string_view v, Scenario& s) {
  const auto f = split_fields<kLogKnobs.size()>(v);
  if (!f) return false;
  for (std::size_t i = 0; i < kLogKnobs.size(); ++i) {
    if (!parse_num((*f)[i], s.*kLogKnobs[i], 1, 1'000'000)) return false;
  }
  return true;
}

/// `sender@index@ack@recv,...`. The 4th field is a bare shared delay
/// (uniform slot) or a `r-d+r-d` per-receiver list, in which case `recv`
/// mirrors the largest listed delay (as normalize keeps it).
void format_script(std::string& out, const Scenario& s) {
  format_list(out, s.script, [](std::string& o, const ScriptSlot& t) {
    append_fields(o, {t.sender, t.index, t.ack});
    o += '@';
    if (t.delays.empty()) {
      append_u64(o, t.recv);
      return;
    }
    format_list(
        o, t.delays,
        [](std::string& d, const auto& rd) {
          append_fields(d, {rd.first, rd.second}, '-');
        },
        '+');
  });
}

bool parse_script(std::string_view v, Scenario& s) {
  return parse_list<4>(v, s.script, [](const auto& f, ScriptSlot& t) {
    if (!parse_num(f[0], t.sender) || !parse_num(f[1], t.index) ||
        !parse_num(f[2], t.ack)) {
      return false;
    }
    if (f[3].find('-') == std::string_view::npos) {
      return parse_num(f[3], t.recv);
    }
    const bool ok = parse_list<2>(
        f[3], t.delays,
        [](const auto& rd, std::pair<NodeId, mac::Time>& d) {
          return parse_num(rd[0], d.first) && parse_num(rd[1], d.second);
        },
        '+', '-');
    for (const auto& [receiver, delay] : t.delays) {
      t.recv = std::max(t.recv, delay);
    }
    return ok;
  });
}

/// `from@to@start@until,...`; `until` may be `inf` (kForever).
void format_faults(std::string& out, const Scenario& s) {
  format_list(out, s.faults, [](std::string& o, const FaultSpec& w) {
    append_fields(o, {w.from, w.to, w.from_tick});
    o += '@';
    if (w.until_tick == mac::kForever) {
      o += "inf";
    } else {
      append_u64(o, w.until_tick);
    }
  });
}

bool parse_faults(std::string_view v, Scenario& s) {
  return parse_list<4>(v, s.faults, [](const auto& f, FaultSpec& w) {
    return parse_num(f[0], w.from) && parse_num(f[1], w.to) &&
           parse_num(f[2], w.from_tick) &&
           (f[3] == "inf" || parse_num(f[3], w.until_tick));
  });
}

/// The spec grammar, in format order. Required rows always print; the
/// optional ones print only when set.
constexpr SpecField kSpecFields[] = {
    num_field<&Scenario::seed>("seed"),
    name_field<&Scenario::algorithm, harness::kAlgorithmNames>("alg"),
    name_field<&Scenario::topology, kTopologyNames>("topo"),
    num_field<&Scenario::n, 1, 16384>("n"),
    num_field<&Scenario::aux, 0, 16384>("aux"),
    name_field<&Scenario::scheduler, kSchedulerNames>("sched"),
    num_field<&Scenario::fack, 1>("fack"),
    num_field<&Scenario::late_holds>("late"),
    name_field<&Scenario::inputs, kInputPatternNames>("in"),
    name_field<&Scenario::ids, kIdAssignmentNames>("ids"),
    num_field<&Scenario::benor_f>("f"),
    num_field<&Scenario::horizon, 1>("hz"),
    {"log", false, format_log, parse_log},
    pair_list<&Scenario::crashes, &CrashSpec::node, &CrashSpec::when>(
        "crashes"),
    pair_list<&Scenario::holds, &HoldSpec::sender, &HoldSpec::release>(
        "holds"),
    {"script", false, format_script, parse_script},
    num_field<&Scenario::drop_rate_bp, 1, mac::LinkFaultPlan::kRateScale,
              false>("drop"),
    num_field<&Scenario::dup_rate_bp, 1, mac::LinkFaultPlan::kRateScale,
              false>("dup"),
    {"faults", false, format_faults, parse_faults},
};
static_assert(std::size(kSpecFields) <= 32, "the seen mask is 32 bits");

constexpr std::string_view kSpecMagic = "amacfuzz1";

}  // namespace

std::string format_spec(const Scenario& s) {
  std::string out(kSpecMagic);
  out.reserve(160);
  for (const SpecField& field : kSpecFields) {
    const std::size_t mark = out.size();
    out += ':';
    out += field.key;
    out += '=';
    const std::size_t value_at = out.size();
    field.format(out, s);
    if (out.size() == value_at) out.resize(mark);  // optional, at default
  }
  return out;
}

std::optional<Scenario> parse_spec(std::string_view spec) {
  // Convenience: a bare integer replays generate_scenario(seed).
  if (const auto seed = util::parse_u64(spec)) return generate_scenario(*seed);

  Scenario s;
  bool first = true;
  std::uint32_t seen = 0;  // bit i: kSpecFields[i] was given
  while (!spec.empty()) {
    const std::size_t colon = spec.find(':');
    const std::string_view token = spec.substr(0, colon);
    spec = colon == std::string_view::npos ? std::string_view{}
                                           : spec.substr(colon + 1);
    if (first) {
      if (token != kSpecMagic) return std::nullopt;
      first = false;
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    const auto* row =
        std::find_if(std::begin(kSpecFields), std::end(kSpecFields),
                     [key](const SpecField& f) { return f.key == key; });
    if (row == std::end(kSpecFields)) return std::nullopt;
    const std::uint32_t bit = 1u << (row - std::begin(kSpecFields));
    const std::string_view value = token.substr(eq + 1);
    if ((seen & bit) != 0 || value.empty() || !row->parse(value, s)) {
      return std::nullopt;
    }
    seen |= bit;
  }
  for (std::size_t i = 0; i < std::size(kSpecFields); ++i) {
    if (kSpecFields[i].required && (seen & (1u << i)) == 0) return std::nullopt;
  }
  return s;
}

// ---- materialization ----------------------------------------------------

BuiltScenario build_scenario(const Scenario& s) {
  BuiltScenario b;
  b.graph = build_graph(s);
  const std::size_t count = b.graph.node_count();

  {
    util::Rng in_rng(sub_seed(s.seed, kInputSalt));
    switch (s.inputs) {
      case InputPattern::kAllZero:
        b.inputs = harness::inputs_all(count, 0);
        break;
      case InputPattern::kAllOne:
        b.inputs = harness::inputs_all(count, 1);
        break;
      case InputPattern::kAlternating:
        b.inputs = harness::inputs_alternating(count);
        break;
      case InputPattern::kSplit:
        b.inputs = harness::inputs_split(count);
        break;
      case InputPattern::kRandom:
        b.inputs = harness::inputs_random(count, in_rng);
        break;
      case InputPattern::kMultivalued:
        b.inputs = harness::inputs_multivalued(count, 6, in_rng);
        break;
    }
  }
  {
    util::Rng id_rng(sub_seed(s.seed, kIdSalt));
    b.ids = s.ids == IdAssignment::kPermuted
                ? harness::permuted_ids(count, id_rng)
                : harness::identity_ids(count);
  }

  const std::uint64_t sched_seed = sub_seed(s.seed, kSchedSalt);
  switch (s.scheduler) {
    case SchedulerKind::kSynchronous:
      b.scheduler = std::make_unique<mac::SynchronousScheduler>(s.fack);
      break;
    case SchedulerKind::kMaxDelay:
      b.scheduler = std::make_unique<mac::MaxDelayScheduler>(s.fack);
      break;
    case SchedulerKind::kUniformRandom:
      b.scheduler =
          std::make_unique<mac::UniformRandomScheduler>(s.fack, sched_seed);
      break;
    case SchedulerKind::kSkewed:
      b.scheduler = std::make_unique<mac::SkewedScheduler>(s.fack, sched_seed);
      break;
    case SchedulerKind::kContention: {
      // `fack` is the base delay; the declared bound covers the worst
      // queue a receiver's in-degree can build up, with generous slack
      // (the contract check aborts on a real overrun).
      std::size_t max_deg = 0;
      for (NodeId u = 0; u < count; ++u) {
        max_deg = std::max(max_deg, b.graph.degree(u));
      }
      const mac::Time bound =
          s.fack * static_cast<mac::Time>(max_deg + 2) + 32;
      b.scheduler =
          std::make_unique<mac::ContentionScheduler>(s.fack, bound, sched_seed);
      break;
    }
    case SchedulerKind::kHoldback: {
      auto base =
          std::make_unique<mac::UniformRandomScheduler>(s.fack, sched_seed);
      // Late-hold scenarios must construct the scheduler with a small
      // default release: the engine sizes its calendar wheel from fack()
      // at Network construction, so only a pre-hold bound that does NOT
      // already cover the releases forces the held deliveries onto the
      // overflow-heap path this mode exists to exercise.
      mac::Time release = 1;
      if (!s.late_holds) {
        for (const auto& h : s.holds) release = std::max(release, h.release);
      }
      auto hold =
          std::make_unique<mac::HoldbackScheduler>(std::move(base), release);
      b.holdback = hold.get();
      b.scheduler = std::move(hold);
      if (!s.late_holds) apply_holds(s, b);
      break;
    }
    case SchedulerKind::kScripted: {
      auto sched = std::make_unique<mac::ScriptedScheduler>();
      for (const auto& t : s.script) {
        // Out-of-range or malformed slots (hand-edited specs) are dropped
        // or clamped, mirroring normalize_scenario; duplicate
        // (sender, index) slots resolve later-wins, deterministically.
        if (t.sender >= count) continue;
        const mac::Time ack = std::max<mac::Time>(1, t.ack);
        if (t.delays.empty()) {
          const mac::Time recv = std::clamp<mac::Time>(t.recv, 1, ack);
          sched->script_uniform(t.sender, t.index, ack, recv);
        } else {
          std::vector<std::pair<NodeId, mac::Time>> delays;
          delays.reserve(t.delays.size());
          for (const auto& [receiver, delay] : t.delays) {
            if (receiver >= count) continue;
            delays.emplace_back(receiver,
                                std::clamp<mac::Time>(delay, 1, ack));
          }
          sched->script(t.sender, t.index, ack, std::move(delays));
        }
      }
      b.scheduler = std::move(sched);
      break;
    }
  }

  harness::AlgorithmParams params;
  params.inputs = b.inputs;
  params.ids = b.ids;
  params.benor_f = s.benor_f;
  params.seed = s.seed;
  if (needs_diameter(s.algorithm)) {
    // Only the D-knowledge algorithms pay for this, and Graph::diameter is
    // double-sweep + iFUB (not all-pairs BFS), so a 4096-node build stays
    // sub-second — pinned by the wall-clock regression in test_net_graph.
    params.diameter = b.graph.diameter();
  }
  // The Lemma 4.2 monitor needs response tracking; it does not change the
  // algorithm's messages, so both engines of a differential pair see
  // identical traffic either way.
  params.wpaxos.track_responses = s.algorithm == harness::Algorithm::kWPaxos;
  b.factory = harness::algorithm_factory(s.algorithm, std::move(params));

  for (const auto& c : s.crashes) {
    if (c.node < count) b.crashes.push_back(mac::CrashPlan{c.node, c.when});
  }
  if (s.drop_rate_bp != 0 || s.dup_rate_bp != 0 || !s.faults.empty()) {
    // The plan's hash seed derives from the master seed (own salt), so a
    // reseed redraws the fault pattern with the rest of the run while the
    // spec line stays rate/window-only.
    b.faults.seed = sub_seed(s.seed, kFaultSalt);
    b.faults.drop_rate_bp = s.drop_rate_bp;
    b.faults.dup_rate_bp = s.dup_rate_bp;
    for (const auto& w : s.faults) {
      if (w.from < count && w.to < count) {
        b.faults.windows.push_back(
            mac::DropWindow{w.from, w.to, w.from_tick, w.until_tick});
      }
    }
  }
  return b;
}

void apply_holds(const Scenario& s, BuiltScenario& b) {
  if (b.holdback == nullptr) return;
  const std::size_t count = b.graph.node_count();
  for (const auto& h : s.holds) {
    if (h.sender < count) b.holdback->hold_sender_until(h.sender, h.release);
  }
}

}  // namespace amac::fuzz

// The replicated log (src/log): slotted consensus instances + deterministic
// state machine = one linearized op stream, however the slots were batched,
// leased, pipelined, recovered, or re-elected.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/hash.hpp"

namespace amac::log {
namespace {

constexpr std::uint64_t kSeed = 0xFEED5EED;

/// Nearest-rank percentile over a copy (the bench uses the same rule).
mac::Time percentile(std::vector<mac::Time> v, double p) {
  EXPECT_FALSE(v.empty());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

LogServiceStats drive_service(const net::Graph& graph,
                              const Workload& workload,
                              const LogConfig& config, KvStateMachine* kv,
                              mac::Time horizon = mac::Time{1} << 32) {
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  LogServiceStats stats = service.drive(horizon);
  if (kv != nullptr) *kv = service.state_machine();
  return stats;
}

/// Every LogServiceStats field, per-slot and per-read vectors included:
/// pins the driver's exact observable behaviour, not just its verdicts.
std::uint64_t stats_digest(const LogServiceStats& s) {
  util::Hasher h;
  for (const std::uint64_t v :
       {std::uint64_t{s.slots_total}, std::uint64_t{s.slots_decided},
        std::uint64_t{s.slots_full_paxos}, std::uint64_t{s.slots_leased},
        std::uint64_t{s.slots_recovered}, std::uint64_t{s.relaunches},
        std::uint64_t{s.re_elections}, std::uint64_t{s.ops_applied},
        std::uint64_t{s.oracle_failures}, std::uint64_t{s.reads_issued},
        std::uint64_t{s.reads_served}, s.payload_bytes, s.broadcasts,
        s.end_time, std::uint64_t{s.leader}}) {
    h.mix_u64(v);
  }
  // Fields added after the first pins are mixed only when set, so a run
  // that never takes their path keeps its pin.
  const std::size_t late[] = {s.slots_warm, s.slots_lost};
  for (std::size_t i = 0; i < std::size(late); ++i) {
    if (late[i] == 0) continue;
    h.mix_u64(i);
    h.mix_u64(late[i]);
  }
  h.mix_bool(s.complete);
  h.mix_bool(s.horizon_exhausted);
  h.mix_bool(s.lease_ok);
  for (const std::vector<mac::Time>* v :
       {&s.decide_latency, &s.relaunched_at, &s.read_latency}) {
    h.mix_u64(v->size());
    for (const mac::Time t : *v) h.mix_u64(t);
  }
  return h.digest();
}

TEST(LogWorkload, IsDeterministicAndSeedSensitive) {
  const Workload a(kSeed, 100);
  const Workload b(kSeed, 100);
  const Workload c(kSeed + 1, 100);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.op(i).key, b.op(i).key);
    EXPECT_EQ(a.op(i).value, b.op(i).value);
    any_diff |= a.op(i).key != c.op(i).key || a.op(i).value != c.op(i).value;
    EXPECT_LT(a.op(i).key, 1024u);  // default key space
  }
  EXPECT_TRUE(any_diff);
}

TEST(LogKvStateMachine, DigestPinsOpsAndOrder) {
  const Workload w(kSeed, 4);
  KvStateMachine in_order;
  for (std::size_t i = 0; i < 4; ++i) in_order.apply(i, w.op(i));

  KvStateMachine same;
  for (std::size_t i = 0; i < 4; ++i) same.apply(i, w.op(i));
  EXPECT_EQ(in_order.digest(), same.digest());
  EXPECT_EQ(in_order.applied(), 4u);

  // A different stream (same length) folds to a different digest.
  const Workload other(kSeed + 9, 4);
  KvStateMachine different;
  for (std::size_t i = 0; i < 4; ++i) different.apply(i, other.op(i));
  EXPECT_NE(in_order.digest(), different.digest());

  // Reads hit the table the ops built.
  EXPECT_EQ(in_order.get(w.op(3).key), w.op(3).value);
}

TEST(LogService, BatchedAndNaiveLinearizeIdentically) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 256);

  LogConfig batched;
  batched.batch_size = 8;
  batched.window = 4;
  batched.lease_slots = 8;
  KvStateMachine batched_kv;
  const auto bs = drive_service(graph, workload, batched, &batched_kv);
  EXPECT_TRUE(bs.complete);
  EXPECT_EQ(bs.oracle_failures, 0u);
  EXPECT_EQ(bs.ops_applied, 256u);
  EXPECT_EQ(bs.slots_total, 32u);
  EXPECT_EQ(bs.slots_full_paxos, 4u);   // slots 0, 8, 16, 24
  EXPECT_EQ(bs.slots_leased, 28u);
  EXPECT_EQ(bs.slots_recovered, 0u);

  LogConfig naive;
  naive.batch_size = 1;
  naive.window = 4;
  naive.lease_slots = 1;
  KvStateMachine naive_kv;
  const auto ns = drive_service(graph, workload, naive, &naive_kv);
  EXPECT_TRUE(ns.complete);
  EXPECT_EQ(ns.oracle_failures, 0u);
  EXPECT_EQ(ns.slots_total, 256u);
  EXPECT_EQ(ns.slots_leased, 0u);

  // THE service-level pin: identical client stream => identical state
  // machine, no matter how the log was slotted.
  EXPECT_EQ(batched_kv.digest(), naive_kv.digest());
  EXPECT_EQ(batched_kv.applied(), naive_kv.applied());

  // And the lease amortization is visible in virtual time too, not just
  // wall clock: fewer, cheaper slots must finish the same stream sooner.
  EXPECT_LT(bs.end_time, ns.end_time);
}

TEST(LogService, LeaseAmortizesBroadcastsPerOp) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 256);

  LogConfig leased;
  leased.batch_size = 1;  // isolate the lease: same slot count...
  leased.lease_slots = 64;
  const auto ls = drive_service(graph, workload, leased, nullptr);

  LogConfig unleased;
  unleased.batch_size = 1;  // ...vs full wPAXOS for every slot
  unleased.lease_slots = 1;
  const auto us = drive_service(graph, workload, unleased, nullptr);

  ASSERT_TRUE(ls.complete);
  ASSERT_TRUE(us.complete);
  // CommitFlood is one dissemination wave (n broadcasts per slot);
  // wPAXOS's proposer/acceptor exchange is a multiple of that.
  EXPECT_LT(ls.broadcasts, us.broadcasts / 2);
  EXPECT_LT(ls.payload_bytes, us.payload_bytes);
}

TEST(LogService, PipeliningKeepsWindowSlotsInFlight) {
  const net::Graph graph = net::make_clique(6);
  const Workload workload(kSeed, 64);

  LogConfig wide;
  wide.batch_size = 4;
  wide.window = 4;
  wide.lease_slots = 4;
  const auto ws = drive_service(graph, workload, wide, nullptr);

  LogConfig serial = wide;
  serial.window = 1;
  const auto ss = drive_service(graph, workload, serial, nullptr);

  ASSERT_TRUE(ws.complete);
  ASSERT_TRUE(ss.complete);
  EXPECT_LT(ws.end_time, ss.end_time);  // overlap must buy virtual time
}

TEST(LogService, RecoversWhenLeaseHolderCrashes) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  // Node n-1 holds the lease (max-id Omega winner under identity ids).
  // Crash it early: every leased slot launched after the crash has no
  // originator, stalls the queue, and must be recovered onto the full
  // wPAXOS slow path.
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, config, &crashed_kv);

  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_EQ(cs.ops_applied, 64u);
  EXPECT_GT(cs.slots_recovered, 0u);

  // The crash changes the path every slot takes, not the decided log: a
  // crash-free naive service over the same stream applies the same ops.
  LogConfig clean;
  clean.batch_size = 1;
  clean.lease_slots = 1;
  KvStateMachine clean_kv;
  const auto qs = drive_service(graph, workload, clean, &clean_kv);
  ASSERT_TRUE(qs.complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
  // Exact driver behaviour (recovery ticks, latencies, relaunch count).
  // Re-pinned when full-paxos slots began to start warm: only bytes,
  // broadcasts, end_time, decide latencies and the relaunch tick moved.
  EXPECT_EQ(stats_digest(cs), 0x4581afddb9d4cf84ull);
}

TEST(LogService, ReElectsLeaderAfterCrashAndResumesFastPath) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 2;  // 32 slots, renewals at 0, 8, 16, 24
  config.window = 2;
  config.lease_slots = 8;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, config, &crashed_kv);

  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_GT(cs.slots_recovered, 0u);

  // The renewal slot after the crash elects a LIVE node (the max-id
  // survivor, n-2, under identity ids) and the lease heals.
  EXPECT_GE(cs.re_elections, 1u);
  EXPECT_NE(cs.leader, static_cast<NodeId>(n - 1));
  EXPECT_EQ(cs.leader, static_cast<NodeId>(n - 2));
  EXPECT_TRUE(cs.lease_ok);

  // The fast path RESUMES under the new lease: most of the ~28 non-renewal
  // slots ride CommitFlood again. A terminal lease break would cap
  // slots_leased at the couple of pre-crash window launches.
  EXPECT_GE(cs.slots_leased, 10u);

  // Same decided log as a crash-free run, slot paths notwithstanding.
  LogConfig clean;
  clean.batch_size = 1;
  clean.lease_slots = 1;
  KvStateMachine clean_kv;
  const auto qs = drive_service(graph, workload, clean, &clean_kv);
  ASSERT_TRUE(qs.complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
}

TEST(LogService, RecoveredSlotLatencyIncludesTheStall) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  LogConfig crashed = config;
  crashed.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});

  const auto cs = drive_service(graph, workload, crashed, nullptr);
  const auto ns = drive_service(graph, workload, config, nullptr);
  ASSERT_TRUE(cs.complete);
  ASSERT_TRUE(ns.complete);
  ASSERT_GT(cs.slots_recovered, 0u);

  // Recovered slots carry a relaunch diagnostic, and their decide latency
  // is measured from the FIRST launch — so the crash run's p99 must
  // exceed the clean run's (the old code reset launched_at at relaunch,
  // hiding the entire stall from the latency distribution).
  bool any_relaunched = false;
  for (std::size_t slot = 0; slot < cs.slots_total; ++slot) {
    if (cs.relaunched_at[slot] == 0) continue;
    any_relaunched = true;
    EXPECT_GT(cs.decide_latency[slot],
              ns.decide_latency[slot]);  // stall included, same slot clean
  }
  EXPECT_TRUE(any_relaunched);
  EXPECT_GT(percentile(cs.decide_latency, 0.99),
            percentile(ns.decide_latency, 0.99));
}

TEST(LogService, MultiRoundRecoveryCountsEachSlotOnce) {
  // Crash a MAJORITY so even relaunched wPAXOS slots stall: recovery then
  // revisits the same in-flight slots every round. Each slot must be
  // counted in slots_recovered exactly once, and an already-full-paxos
  // slot is only relaunched when provably stalled (no traffic since the
  // previous round's look) — so relaunches stays well under
  // rounds * inflight.
  const std::size_t n = 4;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 8);

  LogConfig config;
  config.batch_size = 4;  // 2 slots, both in the initial window
  config.window = 2;
  config.lease_slots = 16;
  config.max_recovery_rounds = 4;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 0});
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 2), 0});
  const auto stats = drive_service(graph, workload, config, nullptr);

  EXPECT_FALSE(stats.complete);  // no live majority: nothing can decide
  EXPECT_EQ(stats.slots_recovered, 2u);  // once per slot, NOT once per round
  EXPECT_GT(stats.relaunches, stats.slots_recovered);  // later rounds retried
  EXPECT_LT(stats.relaunches,
            config.max_recovery_rounds * 2u + 2u);  // but skipped live ones
  EXPECT_EQ(stats_digest(stats), 0x00858a5c7c8fb6a0ull);
}

TEST(LogService, SlotNoNodeDecidedIsLostNotApplied) {
  // Every node crashes at tick 0, before slot 0 decides: the slot's
  // instance has no undecided live node, yet no node decided it. It must
  // not count as decided, its batch must not be applied, and the log ends
  // incomplete with the slot counted as lost.
  const net::Graph graph = net::make_clique(2);
  const Workload workload(kSeed, 1);
  LogConfig config;
  config.batch_size = 1;
  config.window = 1;
  config.lease_slots = 1;
  config.crashes.push_back(mac::CrashPlan{1, 0});
  config.crashes.push_back(mac::CrashPlan{0, 0});
  const auto stats = drive_service(graph, workload, config, nullptr);
  EXPECT_FALSE(stats.complete);
  EXPECT_FALSE(stats.horizon_exhausted);
  EXPECT_EQ(stats.slots_lost, 1u);
  EXPECT_EQ(stats.slots_decided, 0u);
  EXPECT_EQ(stats.ops_applied, 0u);
  EXPECT_EQ(stats.oracle_failures, 0u);
  EXPECT_EQ(stats.slots_recovered, 0u);
}

TEST(LogService, QuiescenceExactlyAtHorizonStillRecovers) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;
  config.window = 2;
  config.lease_slots = 16;
  config.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});

  // Probe: with recovery disabled, the crashed-leader run drains its event
  // queue and stops at the stall's quiescence tick.
  LogConfig probe = config;
  probe.max_recovery_rounds = 0;
  const auto ps = drive_service(graph, workload, probe, nullptr);
  ASSERT_FALSE(ps.complete);
  ASSERT_EQ(ps.slots_recovered, 0u);
  const mac::Time stall_tick = ps.end_time;

  // Now set the horizon EXACTLY at that tick: the queue (not the budget)
  // is the binding constraint, so recovery must still fire — the old
  // `now >= horizon` check conflated the two and skipped it.
  const auto bs = drive_service(graph, workload, config, nullptr,
                                /*horizon=*/stall_tick);
  EXPECT_GT(bs.slots_recovered, 0u);
  // The relaunched instances' events then land beyond the budget, which
  // IS horizon exhaustion — reported as such, not as a silent give-up.
  EXPECT_FALSE(bs.complete);
  EXPECT_TRUE(bs.horizon_exhausted);

  // One tick of headroom short of the stall is genuine exhaustion: events
  // were still pending, and recovery must NOT fire.
  const auto es = drive_service(graph, workload, config, nullptr,
                                /*horizon=*/stall_tick - 1);
  EXPECT_EQ(es.slots_recovered, 0u);
  EXPECT_TRUE(es.horizon_exhausted);
}

TEST(LogService, LeaderReadsHonorTheReadIndexBound) {
  const net::Graph graph = net::make_clique(6);
  const Workload workload(kSeed, 64);

  LogConfig config;
  config.batch_size = 4;  // 16 slots
  config.window = 1;      // serial: decide order == slot order, so the
  config.lease_slots = 4;  // read stream below is exactly one per slot
  config.read_every = 1;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  const auto& stats = service.drive(mac::Time{1} << 32);

  ASSERT_TRUE(stats.complete);
  EXPECT_EQ(stats.reads_issued, 16u);
  EXPECT_EQ(stats.reads_served, 16u);
  EXPECT_EQ(stats.read_latency.size(), 16u);

  // Serial decides make the read stream deterministic: read i is issued at
  // slot i's decide, keyed by the slot's last written key, bound to slot
  // i — so its served value must equal the last write to that key within
  // the first (i+1) batches. Replay the prefix to check freshness exactly.
  const auto& reads = service.reads();
  ASSERT_EQ(reads.size(), 16u);
  KvStateMachine replay;
  std::size_t applied = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const auto [first, last] = service.batch_range(i);
    for (std::size_t j = first; j < last; ++j) replay.apply(j, workload.op(j));
    applied = last;
    const ReadRecord& r = reads[i];
    EXPECT_TRUE(r.served);
    EXPECT_EQ(r.bound, i + 1);
    EXPECT_EQ(r.key, workload.op(applied - 1).key);
    EXPECT_EQ(r.value, replay.get(r.key));
    EXPECT_GE(r.served_at, r.issued_at);
  }

  // Post-drive reads serve immediately from the final applied prefix.
  const std::size_t id = service.submit_read(workload.op(0).key);
  EXPECT_TRUE(service.reads()[id].served);
  EXPECT_EQ(service.reads()[id].value,
            service.state_machine().get(workload.op(0).key));
  EXPECT_EQ(service.reads()[id].bound, 16u);
  EXPECT_EQ(stats_digest(service.stats()), 0xc1856889fbeb1dc2ull);
}

TEST(LogService, HorizonExhaustionReportsIncomplete) {
  const net::Graph graph = net::make_clique(8);
  const Workload workload(kSeed, 512);
  LogConfig naive;
  naive.batch_size = 1;
  naive.lease_slots = 1;
  const auto stats =
      drive_service(graph, workload, naive, nullptr, /*horizon=*/20);
  EXPECT_FALSE(stats.complete);
  EXPECT_LT(stats.ops_applied, 512u);
  EXPECT_LE(stats.end_time, 21u);
}

TEST(LogService, RetiredRunDrainDoesNotPerturbTheRun) {
  // With no trace digest and no post-event hook, the engine drops the rest
  // of a retired slot's fan-out run in one step instead of popping its
  // copies one at a time. A no-op hook turns that off, so each config is
  // driven both ways and must agree on every service and engine figure.
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 96);
  LogConfig clean;
  clean.batch_size = 2;
  clean.window = 3;
  clean.lease_slots = 8;
  clean.read_every = 3;
  LogConfig crashed = clean;
  crashed.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 3});
  crashed.crashes.push_back(mac::CrashPlan{2, 40});
  // Duplicates split a fan-out into a kept run plus single copies, so a
  // retired flight outlives its dropped run. (drive() runs to quiescence,
  // so no such flight is left to inspect when it returns; the
  // multi-instance test of the drain checks the tombstones between runs.)
  mac::LinkFaultPlan dups;
  dups.seed = 7;
  dups.dup_rate_bp = 3000;

  struct Case {
    const LogConfig* config;
    const mac::LinkFaultPlan* faults;
  };
  for (const Case& c : {Case{&clean, nullptr}, Case{&crashed, nullptr},
                        Case{&clean, &dups}, Case{&crashed, &dups}}) {
    std::uint64_t service[2] = {0, 0};
    std::uint64_t engine[2] = {0, 0};
    for (const bool hooked : {false, true}) {
      mac::SynchronousScheduler sched(1);
      ReplicatedLog log(graph, sched, workload, *c.config);
      if (c.faults != nullptr) log.network().set_link_faults(*c.faults);
      if (hooked) log.network().set_post_event_hook([](mac::Network&) {});
      const LogServiceStats& stats = log.drive(mac::Time{1} << 32);
      EXPECT_TRUE(stats.complete);
      EXPECT_EQ(stats.oracle_failures, 0u);
      service[hooked] = stats_digest(stats);
      engine[hooked] = testutil::engine_digest(log.network());
    }
    EXPECT_EQ(service[0], service[1]);
    EXPECT_EQ(engine[0], engine[1]);
  }
}

TEST(LogService, FullPaxosSlotsStartWarmOnceASlotDecides) {
  // Batch 1, lease 1: every slot is full wPAXOS. The initial window
  // launches before any slot decides and runs cold; every later slot
  // starts warm from the converged leader and tree of the last decided
  // full-paxos slot, and skips the leader, change and search floods.
  const std::size_t n = 16;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);
  LogConfig config;
  config.batch_size = 1;
  config.window = 4;
  config.lease_slots = 1;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  const LogServiceStats& stats = service.drive(mac::Time{1} << 32);
  ASSERT_TRUE(stats.complete);
  EXPECT_EQ(stats.oracle_failures, 0u);
  EXPECT_EQ(stats.slots_full_paxos, 64u);
  EXPECT_EQ(stats.slots_warm, 64u - config.window);
  EXPECT_EQ(stats.leader, static_cast<NodeId>(n - 1));
  EXPECT_EQ(stats.re_elections, 0u);

  const auto broadcasts = [&](std::size_t slot) {
    return service.network().instance_stats(service.slot_instance(slot))
        .broadcasts;
  };
  // A cold slot on the clique: leader, search, change, proposer and
  // response traffic, 7 broadcasts per node. A warm one: the prepare,
  // propose and decide floods, each node relaying once per flood.
  EXPECT_EQ(broadcasts(0), 7 * n);
  for (std::size_t slot = config.window; slot < stats.slots_total; ++slot) {
    EXPECT_LE(broadcasts(slot), 3 * n) << "slot " << slot;
  }

  // Warm or cold, the same stream commits: the crash-free digest of a
  // batched, leased run over the same ops.
  LogConfig batched;
  batched.batch_size = 8;
  KvStateMachine batched_kv;
  ASSERT_TRUE(drive_service(graph, workload, batched, &batched_kv).complete);
  EXPECT_EQ(service.state_machine().digest(), batched_kv.digest());
}

TEST(LogService, WarmLeaderCrashFallsBackColdAndReElects) {
  // The warm leader (n-1) crashes after the first capture, with warm slots
  // in flight: they stall on a dead proposer and recovery relaunches them
  // cold. Every slot after the crash runs cold until one decides under the
  // new Omega, the max-id survivor n-2, whose tree then warms later slots.
  const std::size_t n = 16;
  const net::Graph graph = net::make_clique(n);
  const Workload workload(kSeed, 64);
  LogConfig config;
  config.batch_size = 1;
  config.window = 4;
  config.lease_slots = 1;
  const auto clean = drive_service(graph, workload, config, nullptr);
  ASSERT_TRUE(clean.complete);
  ASSERT_LT(clean.decide_latency[0], 10u);  // slot 0 captured before tick 10

  LogConfig crashed = config;
  crashed.crashes.push_back(mac::CrashPlan{static_cast<NodeId>(n - 1), 10});
  KvStateMachine crashed_kv;
  const auto cs = drive_service(graph, workload, crashed, &crashed_kv);
  EXPECT_TRUE(cs.complete);
  EXPECT_EQ(cs.oracle_failures, 0u);
  EXPECT_EQ(cs.ops_applied, 64u);
  EXPECT_GT(cs.slots_recovered, 0u);
  EXPECT_GE(cs.re_elections, 1u);
  EXPECT_EQ(cs.leader, static_cast<NodeId>(n - 2));
  EXPECT_TRUE(cs.lease_ok);
  // No slot decides between the crash and the first recovery round, so
  // every first launch after slot 0's decide is still a warm one: the
  // stalled warm slots are the ones recovery relaunched cold, and the
  // launches after them warm up from n-2's tree.
  EXPECT_EQ(cs.slots_warm, clean.slots_warm);
  EXPECT_EQ(cs.slots_recovered, config.window);

  LogConfig batched;
  batched.batch_size = 8;
  KvStateMachine clean_kv;
  ASSERT_TRUE(drive_service(graph, workload, batched, &clean_kv).complete);
  EXPECT_EQ(crashed_kv.digest(), clean_kv.digest());
}

TEST(LogService, InteriorTreeCrashRelaunchesColdOnAMultihopGrid) {
  // 4x4 grid: node 15 (a corner) leads, and its neighbour 11 is the tree
  // parent of 12 of the 16 nodes, so a warm slot that still routes
  // responses through a crashed 11 can never gather a majority. Slots run
  // one at a time; 11 crashes between a capture and the next full-paxos
  // launch, in two ways:
  //   * lease 1: one tick before slot 2 decides, so the capture at its
  //     decide already sees 11 down (the parent-liveness rule must refuse
  //     it);
  //   * lease 2: one tick into leased slot 3, so the capture from slot 2
  //     predates the crash (the crashed-set rule must drop it before slot
  //     4 launches).
  // Either way the next full-paxos slot must run cold, decide without any
  // recovery round, and warm the slots after it.
  const net::Graph graph = net::make_grid(4, 4);
  const Workload workload(kSeed, 12);
  for (const std::size_t lease : {1u, 2u}) {
    LogConfig config;
    config.batch_size = 1;
    config.window = 1;
    config.lease_slots = lease;
    KvStateMachine clean_kv;
    const auto clean = drive_service(graph, workload, config, &clean_kv);
    ASSERT_TRUE(clean.complete);
    // Serial slots: each launches at its predecessor's decide tick.
    std::vector<mac::Time> decided_at;
    mac::Time t = 0;
    for (const mac::Time latency : clean.decide_latency) {
      t += latency;
      decided_at.push_back(t);
    }
    const mac::Time crash_at =
        lease == 1 ? decided_at[2] - 1 : decided_at[2] + 1;

    LogConfig crashed = config;
    crashed.crashes.push_back(mac::CrashPlan{11, crash_at});
    KvStateMachine crashed_kv;
    const auto cs = drive_service(graph, workload, crashed, &crashed_kv);
    EXPECT_TRUE(cs.complete) << "lease " << lease;
    EXPECT_EQ(cs.oracle_failures, 0u) << "lease " << lease;
    EXPECT_EQ(cs.slots_recovered, 0u) << "lease " << lease;
    EXPECT_EQ(cs.slots_warm, clean.slots_warm - 1) << "lease " << lease;
    EXPECT_EQ(crashed_kv.digest(), clean_kv.digest()) << "lease " << lease;
  }
}

TEST(LogService, BatchRangeCoversStreamWithRaggedTail) {
  const net::Graph graph = net::make_clique(4);
  const Workload workload(kSeed, 10);  // 10 ops, batch 4 => 4+4+2
  LogConfig config;
  config.batch_size = 4;
  mac::SynchronousScheduler sched(1);
  ReplicatedLog service(graph, sched, workload, config);
  EXPECT_EQ(service.batch_range(0), (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(service.batch_range(2), (std::pair<std::size_t, std::size_t>{8, 10}));
  const auto stats = service.drive(mac::Time{1} << 32);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.ops_applied, 10u);
  EXPECT_EQ(stats.slots_total, 3u);
}

}  // namespace
}  // namespace amac::log

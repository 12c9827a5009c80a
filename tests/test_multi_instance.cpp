// Instance-multiplexing isolation (design doc: "Instance multiplexing" in
// mac/engine.hpp): instances share one Network — event queue, payload
// pool, sequence numbers — but must not be able to OBSERVE each other.
// Two pins:
//   * interleaved-vs-solo: each instance of a multiplexed run produces
//     bit-identical per-instance observables (decisions, process digests,
//     traffic stats) to the same protocol run alone on an identical
//     network. Deterministic schedulers only — sharing one RNG-driven
//     scheduler interleaves the draws by construction.
//   * engine differential: the calendar-queue engine and the frozen
//     reference-heap engine agree on every per-instance observable of a
//     multi-instance run (the single-instance differential is already
//     pinned by the fuzz soak; this extends it to >= 2 instances).
// Plus the decide notification (StopWhen::kInstanceDecided) a service
// drives instances by: where it stops, and that both engines agree.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/commit_flood.hpp"
#include "helpers.hpp"
#include "core/wpaxos/wpaxos.hpp"
#include "mac/engine.hpp"
#include "mac/reference_engine.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "util/hash.hpp"
#include "verify/checker.hpp"

namespace amac::mac {
namespace {

ProcessFactory wpaxos_factory(std::size_t n, Value value) {
  return [n, value](NodeId u) {
    return std::make_unique<core::wpaxos::WPaxos>(u, n, value, core::wpaxos::WPaxosConfig{});
  };
}

ProcessFactory commit_flood_factory(NodeId leader, Value value) {
  return [leader, value](NodeId u) {
    return std::make_unique<core::CommitFlood>(u == leader, value);
  };
}

/// Decides at start if `decides`, then broadcasts `rounds` times: traffic
/// that outlives the decisions, so a stop is visibly not a drain.
class Pinger final : public Process {
 public:
  Pinger(bool decides, std::size_t rounds)
      : decides_(decides), rounds_(rounds) {}

  void on_start(Context& ctx) override {
    if (decides_) ctx.decide(1);
    on_ack(ctx);
  }
  void on_receive(const Packet&, Context&) override {}
  void on_ack(Context& ctx) override {
    if (sent_ < rounds_) {
      ++sent_;
      ctx.broadcast(util::Buffer{0xAB});
    }
  }
  std::unique_ptr<Process> clone() const override {
    return std::make_unique<Pinger>(*this);
  }
  void digest(util::Hasher& h) const override { h.mix_u64(sent_); }

 private:
  bool decides_;
  std::size_t rounds_;
  std::size_t sent_ = 0;
};

/// Pingers that all decide at start except `holdout` (kNoNode: all do).
ProcessFactory holdout_factory(NodeId holdout, std::size_t rounds) {
  return [holdout, rounds](NodeId u) {
    return std::make_unique<Pinger>(u != holdout, rounds);
  };
}

ProcessFactory silent_factory(std::size_t rounds) {
  return [rounds](NodeId) { return std::make_unique<Pinger>(false, rounds); };
}

std::uint64_t process_digest(const Process& p) {
  util::Hasher h;
  p.digest(h);
  return h.digest();
}

/// The engine-independent traffic fields of an instance's stats (the pool
/// fields are engine-specific bookkeeping: zero on ReferenceNetwork).
struct TrafficStats {
  std::uint64_t broadcasts, dropped_busy, deliveries, acks, payload_bytes;
  std::size_t max_payload_bytes;

  explicit TrafficStats(const InstanceStats& s)
      : broadcasts(s.broadcasts), dropped_busy(s.dropped_busy),
        deliveries(s.deliveries), acks(s.acks),
        payload_bytes(s.payload_bytes),
        max_payload_bytes(s.max_payload_bytes) {}

  bool operator==(const TrafficStats& o) const {
    return broadcasts == o.broadcasts && dropped_busy == o.dropped_busy &&
           deliveries == o.deliveries && acks == o.acks &&
           payload_bytes == o.payload_bytes &&
           max_payload_bytes == o.max_payload_bytes;
  }
};

/// Everything a tenant can observe about its own instance.
template <typename Net>
void expect_instance_equal(const Net& a, InstanceId ia, const Net& b,
                           InstanceId ib, std::size_t n) {
  for (NodeId u = 0; u < n; ++u) {
    const Decision& da = a.decision(u, ia);
    const Decision& db = b.decision(u, ib);
    EXPECT_EQ(da.decided, db.decided) << "node " << u;
    EXPECT_EQ(da.value, db.value) << "node " << u;
    EXPECT_EQ(da.time, db.time) << "node " << u;
    EXPECT_EQ(process_digest(a.process(u, ia)), process_digest(b.process(u, ib)))
        << "node " << u;
  }
  EXPECT_TRUE(TrafficStats(a.instance_stats(ia)) ==
              TrafficStats(b.instance_stats(ib)));
}

TEST(MultiInstance, InterleavedInstancesMatchSoloRuns) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);

  // Three tenants with deliberately different traffic shapes: two wPAXOS
  // instances with different values and a CommitFlood burst.
  const std::vector<ProcessFactory> tenants = {
      wpaxos_factory(n, 3), wpaxos_factory(n, 7),
      commit_flood_factory(/*leader=*/2, 42)};

  SynchronousScheduler interleaved_sched(1);
  Network interleaved(graph, tenants[0], interleaved_sched);
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    interleaved.add_instance(tenants[i]);
  }
  ASSERT_EQ(interleaved.instance_count(), tenants.size());
  // Run to quiescence, not kAllDecided: the multiplexed run keeps serving
  // a fast tenant's in-flight events while slower tenants finish, so only
  // the drained totals are comparable to a solo run's.
  const auto r = interleaved.run(StopWhen::kQuiescent, 10000);
  ASSERT_TRUE(r.condition_met);

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    SynchronousScheduler solo_sched(1);
    Network solo(graph, tenants[i], solo_sched);
    ASSERT_TRUE(solo.run(StopWhen::kQuiescent, 10000).condition_met);
    expect_instance_equal(interleaved, static_cast<InstanceId>(i), solo, 0,
                          n);
  }
}

TEST(MultiInstance, EngineMatchesReferenceAcrossInstances) {
  const std::size_t n = 6;
  const net::Graph graph = net::make_ring(n);
  const std::vector<ProcessFactory> tenants = {
      wpaxos_factory(n, 11), commit_flood_factory(/*leader=*/0, 5),
      wpaxos_factory(n, 2)};

  SynchronousScheduler sched_a(2);
  Network engine(graph, tenants[0], sched_a);
  SynchronousScheduler sched_b(2);
  ReferenceNetwork reference(graph, tenants[0], sched_b);
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    EXPECT_EQ(engine.add_instance(tenants[i]),
              reference.add_instance(tenants[i]));
  }
  ASSERT_TRUE(engine.run(StopWhen::kAllDecided, 10000).condition_met);
  ASSERT_TRUE(reference.run(StopWhen::kAllDecided, 10000).condition_met);

  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const auto instance = static_cast<InstanceId>(i);
    for (NodeId u = 0; u < n; ++u) {
      const Decision& de = engine.decision(u, instance);
      const Decision& dr = reference.decision(u, instance);
      EXPECT_EQ(de.decided, dr.decided);
      EXPECT_EQ(de.value, dr.value);
      EXPECT_EQ(de.time, dr.time);
      EXPECT_EQ(process_digest(engine.process(u, instance)),
                process_digest(reference.process(u, instance)));
    }
    EXPECT_TRUE(TrafficStats(engine.instance_stats(instance)) ==
                TrafficStats(reference.instance_stats(instance)));
  }
}

TEST(MultiInstance, PerInstanceOracleJudgesEachSlotIndependently) {
  const std::size_t n = 5;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 9), sched);
  net.add_instance(wpaxos_factory(n, 4));
  ASSERT_TRUE(net.run(StopWhen::kAllDecided, 10000).condition_met);

  const auto v0 = verify::check_consensus(net, 0, std::vector<Value>(n, 9));
  const auto v1 = verify::check_consensus(net, 1, std::vector<Value>(n, 4));
  EXPECT_TRUE(v0.ok());
  EXPECT_TRUE(v1.ok());
  EXPECT_EQ(v0.decision, std::optional<Value>(9));
  EXPECT_EQ(v1.decision, std::optional<Value>(4));
}

TEST(MultiInstance, PoolAccountingDrainsPerInstance) {
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 1), sched);
  const InstanceId second = net.add_instance(commit_flood_factory(3, 2));
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 10000).condition_met);

  for (InstanceId i = 0; i <= second; ++i) {
    const InstanceStats& s = net.instance_stats(i);
    EXPECT_GT(s.broadcasts, 0u) << "instance " << i;
    EXPECT_GT(s.peak_pool_slots, 0u) << "instance " << i;
    // Quiescent: every flight landed, so each instance's pool share is
    // fully returned — leak detection per tenant, not just globally.
    EXPECT_EQ(s.live_pool_slots, 0u) << "instance " << i;
    EXPECT_EQ(s.live_pool_bytes, 0u) << "instance " << i;
  }
}

TEST(MultiInstance, RetiredInstanceKeepsDecisionsAndStatsReadable) {
  const std::size_t n = 4;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, commit_flood_factory(1, 77), sched);
  const InstanceId live = net.add_instance(wpaxos_factory(n, 8));
  ASSERT_TRUE(net.run(StopWhen::kAllDecided, 10000).condition_met);

  const std::uint64_t broadcasts_before = net.instance_stats(0).broadcasts;
  net.retire_instance(0);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(net.decision(u, 0).decided);
    EXPECT_EQ(net.decision(u, 0).value, 77);
  }
  EXPECT_EQ(net.instance_stats(0).broadcasts, broadcasts_before);
  // The surviving tenant is untouched.
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(net.decision(u, live).value, 8);
  }
}

TEST(MultiInstance, MidRunInstanceLaunchesAtCurrentTickAndDecides) {
  const std::size_t n = 6;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 5), sched);

  // Launch a second tenant from inside the run, the moment the first one
  // fully decides (the ReplicatedLog pipelining primitive).
  InstanceId second = 0;
  bool launched = false;
  net.set_post_event_hook([&](Network& inner) {
    if (!launched && inner.instance_all_decided(0)) {
      launched = true;
      second = inner.add_instance(commit_flood_factory(0, 123));
    }
  });
  ASSERT_TRUE(net.run(StopWhen::kAllDecided, 10000).condition_met);
  ASSERT_TRUE(launched);

  const Time first_decided = net.decision(0, 0).time;
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_TRUE(net.decision(u, second).decided);
    EXPECT_EQ(net.decision(u, second).value, 123);
    // The late tenant's timeline starts where the run already was.
    EXPECT_GE(net.decision(u, second).time, first_decided);
  }
}

TEST(MultiInstance, DecideStopLaunchesTheNextTenantBetweenRuns) {
  // The same launch as above, driven by decide notifications instead of a
  // per-event hook: the run stops at the event that finishes tenant 0, and
  // the caller launches tenant 1 before resuming. Both drivers must see
  // the identical event sequence.
  const std::size_t n = 6;
  const net::Graph graph = net::make_clique(n);
  const auto launch = [&](Network& net) {
    return net.add_instance(commit_flood_factory(0, 123));
  };

  SynchronousScheduler hook_sched(1);
  Network hooked(graph, wpaxos_factory(n, 5), hook_sched);
  hooked.enable_trace_digest();
  bool launched = false;
  hooked.set_post_event_hook([&](Network& inner) {
    if (!launched && inner.instance_all_decided(0)) {
      launched = true;
      launch(inner);
    }
  });
  ASSERT_TRUE(hooked.run(StopWhen::kQuiescent, 10000).condition_met);
  ASSERT_TRUE(launched);

  SynchronousScheduler sched(1);
  Network net(graph, wpaxos_factory(n, 5), sched);
  net.enable_trace_digest();
  const RunResult first = net.run(StopWhen::kInstanceDecided, 10000);
  ASSERT_TRUE(first.condition_met);
  ASSERT_TRUE(net.instance_all_decided(0));
  Time last_decide = 0;
  for (NodeId u = 0; u < n; ++u) {
    last_decide = std::max(last_decide, net.decision(u, 0).time);
  }
  EXPECT_EQ(first.end_time, last_decide);  // stopped at the deciding event
  const InstanceId second = launch(net);
  const RunResult next = net.run(StopWhen::kInstanceDecided, 10000);
  ASSERT_TRUE(next.condition_met);
  ASSERT_TRUE(net.instance_all_decided(second));
  ASSERT_TRUE(net.run(StopWhen::kQuiescent, 10000).condition_met);

  EXPECT_EQ(net.trace_digest(), hooked.trace_digest());
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(net.decision(u, second).value, 123);
    EXPECT_EQ(net.decision(u, second).time, hooked.decision(u, 1).time);
  }
}

TEST(MultiInstance, CrashThatFinishesInstancesStopsTheRun) {
  // Every node but 3 decides at start; crashing node 3 at tick 5 is what
  // finishes both tenants, in one event. The run stops right there, with
  // the pingers' traffic still queued.
  const std::size_t n = 4;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(2);
  Network net(graph, holdout_factory(3, 20), sched);
  const InstanceId other = net.add_instance(holdout_factory(3, 20));
  net.schedule_crash(CrashPlan{3, 5});

  const RunResult r = net.run(StopWhen::kInstanceDecided, 10000);
  EXPECT_TRUE(r.condition_met);
  EXPECT_EQ(r.end_time, 5u);
  EXPECT_TRUE(net.crashed(3));
  EXPECT_TRUE(net.instance_all_decided(0));
  EXPECT_TRUE(net.instance_all_decided(other));
  // Nothing else decides: the next stop is the drain, far past the crash.
  const RunResult drained = net.run(StopWhen::kInstanceDecided, 10000);
  EXPECT_TRUE(drained.condition_met);
  EXPECT_GT(drained.end_time, 5u);
}

TEST(MultiInstance, VacuousInstanceStopsAfterTheNextEventNotBefore) {
  // Crash every node: instance 0 finishes with the last crash. An instance
  // added after that has no live node, so it is decided the moment it
  // exists — between runs. The next run still processes exactly one event
  // before reporting it, as a per-event poll would have noticed it.
  const std::size_t n = 3;
  const net::Graph graph = net::make_clique(n);
  SynchronousScheduler sched(3);
  Network net(graph, silent_factory(5), sched);
  for (NodeId u = 0; u < n; ++u) net.schedule_crash(CrashPlan{u, 1});
  std::size_t events = 0;
  net.set_post_event_hook([&](Network&) { ++events; });

  const RunResult crashed = net.run(StopWhen::kInstanceDecided, 10000);
  ASSERT_TRUE(crashed.condition_met);
  ASSERT_EQ(crashed.end_time, 1u);
  ASSERT_EQ(events, n);  // the three crash events; the broadcasts' remain

  const InstanceId vacuous = net.add_instance(silent_factory(5));
  EXPECT_TRUE(net.instance_all_decided(vacuous));
  const RunResult r = net.run(StopWhen::kInstanceDecided, 10000);
  EXPECT_TRUE(r.condition_met);
  EXPECT_EQ(events, n + 1);
  EXPECT_EQ(r.end_time, 3u);  // the first pending delivery, not tick 1
}

TEST(MultiInstance, RetiredRunDrainIsInvisibleBetweenRuns) {
  // A service-style loop: every decided tenant is retired at the stop and
  // a new one launched, so the queue keeps filling with retired fan-out
  // runs, which the engine drops in one step. A no-op hook turns the drop
  // off; every stop must look the same both ways. Duplicates keep some
  // retired flights live past their dropped run (their tombstones show in
  // for_each_flight), and tenants that decide at start make some runs
  // stop right after a retired copy pops: the rest of its run must still
  // be queued when the next launch pushes (peak_events sees it).
  const std::size_t n = 8;
  const net::Graph graph = net::make_clique(n);
  LinkFaultPlan dups;
  dups.seed = 3;
  dups.dup_rate_bp = 2500;
  const auto drive = [&](bool hooked) {
    SynchronousScheduler sched(1);
    Network net(graph, commit_flood_factory(0, 1), sched);
    net.set_link_faults(dups);
    if (hooked) net.set_post_event_hook([](Network&) {});
    std::vector<std::uint64_t> stops;
    for (std::size_t round = 0; round < 40; ++round) {
      const RunResult r = net.run(StopWhen::kInstanceDecided, 100000);
      EXPECT_TRUE(r.condition_met);
      stops.push_back(testutil::engine_digest(net) ^ r.end_time);
      for (InstanceId i = 0; i < net.instance_count(); ++i) {
        if (net.instance_all_decided(i)) net.retire_instance(i);
      }
      // Two start-deciding tenants in a row: the second one's notice
      // stops the next run on the first copy of the first one's run.
      net.add_instance(round % 4 < 2
                           ? holdout_factory(kNoNode, 2)
                           : commit_flood_factory(round % n,
                                                  static_cast<Value>(round)));
    }
    EXPECT_TRUE(net.run(StopWhen::kQuiescent, 100000).condition_met);
    stops.push_back(testutil::engine_digest(net));
    return stops;
  };
  EXPECT_EQ(drive(false), drive(true));
}

TEST(MultiInstance, EnginesAgreeOnInstanceDecidedStops) {
  // Three pre-run tenants under random delays and a crash: both engines,
  // driven by the same kInstanceDecided loop, stop at the same ticks and
  // fold the same trace.
  const std::size_t n = 6;
  const net::Graph graph = net::make_ring(n);
  const std::vector<ProcessFactory> tenants = {
      wpaxos_factory(n, 11), commit_flood_factory(/*leader=*/0, 5),
      wpaxos_factory(n, 2)};
  const auto drive = [&](auto& net) {
    for (std::size_t i = 1; i < tenants.size(); ++i) {
      net.add_instance(tenants[i]);
    }
    net.schedule_crash(CrashPlan{4, 7});
    net.enable_trace_digest();
    std::vector<Time> stops;
    while (!net.all_alive_decided() && stops.size() < 16) {
      const RunResult r = net.run(StopWhen::kInstanceDecided, 100000);
      EXPECT_TRUE(r.condition_met);
      stops.push_back(r.end_time);
    }
    EXPECT_TRUE(net.all_alive_decided());
    EXPECT_TRUE(net.run(StopWhen::kQuiescent, 100000).condition_met);
    return std::make_pair(stops, net.trace_digest());
  };

  UniformRandomScheduler sched_a(4, 99);
  Network engine(graph, tenants[0], sched_a);
  UniformRandomScheduler sched_b(4, 99);
  ReferenceNetwork reference(graph, tenants[0], sched_b);
  const auto a = drive(engine);
  const auto b = drive(reference);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GE(a.first.size(), 2u);  // more than one distinct decide stop
}

}  // namespace
}  // namespace amac::mac

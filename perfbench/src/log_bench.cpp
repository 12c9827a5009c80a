#include "log_bench.hpp"

#include <algorithm>
#include <array>
#include <memory>

#include "core/commit_flood.hpp"
#include "core/wpaxos/wpaxos.hpp"
#include "log/replicated_log.hpp"
#include "mac/schedulers.hpp"
#include "net/topologies.hpp"
#include "tracing.hpp"
#include "util/hash.hpp"
#include "verify/checker.hpp"

namespace amac::perfbench {
namespace {

/// One log workload's fixed shape. Only the client stream and (for the
/// random scheduler) the message delays come from --seed.
struct LogShape {
  const char* name;
  bool grid;              ///< 6x6 grid (multihop) instead of a 16-clique
  bool random_scheduler;  ///< UniformRandomScheduler instead of sync(1)
  mac::Time fack;
  std::size_t ops;
  std::size_t batch;
  std::size_t lease;
  std::size_t read_every;
  bool crashes;  ///< the two lease-holder crashes of log-failover
};

constexpr std::size_t kWindow = 4;
constexpr mac::Time kHorizon = mac::Time{1} << 40;

// log-failover: node 35 (the first lease holder, max id) crashes at tick
// 400, inside renewal slot 48; node 34, the holder the next renewal would
// elect, crashes at tick 3000. A scheduled crash is a queue event, so the
// queue cannot go quiet before it fires: the first recovery runs right
// after the second crash and re-elects node 33 (see NOTES.md).
constexpr NodeId kFirstHolder = 35;
constexpr NodeId kSecondHolder = 34;
constexpr mac::Time kFirstCrash = 400;
constexpr mac::Time kSecondCrash = 3000;

constexpr std::array<LogShape, 3> kShapes = {{
    {"log-leased", false, false, 1, 16384, 8, 64, 2, false},
    {"log-paxos", false, false, 1, 256, 1, 1, 0, false},
    {"log-failover", true, true, 8, 8000, 8, 16, 2, true},
}};

const LogShape& shape_of(const std::string& name) {
  for (const LogShape& s : kShapes) {
    if (name == s.name) return s;
  }
  AMAC_EXPECTS(false);
  return kShapes[0];
}

net::Graph make_graph(const LogShape& shape) {
  return shape.grid ? net::make_grid(6, 6) : net::make_clique(16);
}

std::vector<mac::CrashPlan> crash_plans(const LogShape& shape) {
  if (!shape.crashes) return {};
  return {{kFirstHolder, kFirstCrash}, {kSecondHolder, kSecondCrash}};
}

std::unique_ptr<mac::Scheduler> make_scheduler(const LogShape& shape,
                                               std::uint64_t seed) {
  if (shape.random_scheduler) {
    return std::make_unique<mac::UniformRandomScheduler>(shape.fack, seed);
  }
  return std::make_unique<mac::SynchronousScheduler>(shape.fack);
}

log::LogConfig config_of(const LogShape& shape) {
  log::LogConfig config;
  config.batch_size = shape.batch;
  config.window = kWindow;
  config.lease_slots = shape.lease;
  config.read_every = shape.read_every;
  config.crashes = crash_plans(shape);
  return config;
}

/// Everything one service run needs, kept at stable addresses (the
/// service borrows the graph, scheduler and workload).
struct LogBundle {
  LogBundle(const LogShape& shape, std::uint64_t seed)
      : graph(make_graph(shape)),
        scheduler(make_scheduler(shape, derive_seed(seed, kSchedulerSalt))),
        workload(derive_seed(seed, kStreamSalt), shape.ops) {
    // The client stream is generated up front; the benchmark feeds it to
    // its own KvStateMachine to check the service's digest.
    stream.reserve(shape.ops);
    for (std::size_t i = 0; i < shape.ops; ++i) {
      stream.push_back(workload.op(i));
    }
    service = std::make_unique<log::ReplicatedLog>(graph, *scheduler,
                                                   workload,
                                                   config_of(shape));
  }
  LogBundle(const LogBundle&) = delete;
  LogBundle& operator=(const LogBundle&) = delete;

  net::Graph graph;
  std::unique_ptr<mac::Scheduler> scheduler;
  log::Workload workload;
  std::vector<log::ClientOp> stream;
  std::unique_ptr<log::ReplicatedLog> service;
};

/// Tick at which each slot's instance was decided by its last decider
/// (the tick ReplicatedLog saw the slot decide).
std::vector<mac::Time> slot_decided_at(const log::ReplicatedLog& service) {
  const mac::Network& net = service.network();
  const std::size_t slots = service.stats().slots_total;
  std::vector<mac::Time> out(slots, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const mac::InstanceId inst = service.slot_instance(slot);
    for (NodeId u = 0; u < net.node_count(); ++u) {
      const mac::Decision& d = net.decision(u, inst);
      if (d.decided) out[slot] = std::max(out[slot], d.time);
    }
  }
  return out;
}

/// Longest stretch of ticks in which the applied prefix did not grow,
/// from tick 0 to the end of the run.
mac::Time outage_ticks(const log::ReplicatedLog& service,
                       const std::vector<mac::Time>& decided_at) {
  const log::LogServiceStats& st = service.stats();
  mac::Time last_growth = 0;
  mac::Time applied_at = 0;
  mac::Time longest = 0;
  for (std::size_t slot = 0; slot < st.slots_total; ++slot) {
    if (decided_at[slot] == 0) break;  // undecided: the prefix stops here
    applied_at = std::max(applied_at, decided_at[slot]);
    longest = std::max(longest, applied_at - last_growth);
    last_growth = applied_at;
  }
  return std::max(longest, st.end_time - last_growth);
}

/// One untraced repetition: set up, drive, check.
struct LogRep {
  double setup_s = 0;
  double drive_s = 0;
  std::unique_ptr<LogBundle> bundle;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  Pins pins;
  // Deterministic end-to-end figures.
  mac::Time decide_p50 = 0;
  mac::Time decide_p99 = 0;
  mac::Time read_p99 = 0;
  mac::Time outage = 0;
  double bytes_per_op = 0;
};

/// The benchmark's correctness checks on a finished run. Every failure is
/// counted against the attempted ops; none stops the workload.
void judge(const LogShape& shape, LogRep& rep) {
  const log::ReplicatedLog& service = *rep.bundle->service;
  const log::LogServiceStats& st = service.stats();
  rep.attempted = shape.ops + st.reads_issued;
  rep.failed = (shape.ops - st.ops_applied) +
               (st.reads_issued - st.reads_served) + st.oracle_failures;
  const auto problem = [&](const std::string& what) {
    rep.problems.push_back(std::string(shape.name) + ": " + what);
  };
  if (!st.complete) problem("service did not complete");
  if (st.oracle_failures != 0) {
    problem(std::to_string(st.oracle_failures) + " slots failed the oracle");
  }
  if (st.reads_served != st.reads_issued) {
    problem(std::to_string(st.reads_issued - st.reads_served) +
            " reads never served");
  }
  if (shape.read_every != 0 && st.reads_issued == 0) {
    problem("no reads issued");
  }

  std::vector<mac::InstanceId> slots(st.slots_total);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    slots[s] = service.slot_instance(s);
  }
  const verify::LogPrefixVerdict prefix =
      verify::check_log_prefix(service.network(), slots);
  if (!prefix.consistent) {
    ++rep.failed;
    problem("replica prefixes differ: " + prefix.detail);
  }

  log::KvStateMachine fresh;
  for (std::size_t i = 0; i < st.ops_applied; ++i) {
    fresh.apply(i, rep.bundle->stream[i]);
  }
  if (fresh.digest() != service.state_machine().digest()) {
    ++rep.failed;
    problem("kv digest differs from a fresh replay of the stream");
  }

  const std::vector<mac::Time> decided_at = slot_decided_at(service);
  rep.decide_p50 = percentile(st.decide_latency, 0.50);
  rep.decide_p99 = percentile(st.decide_latency, 0.99);
  rep.read_p99 = percentile(st.read_latency, 0.99);
  rep.outage = outage_ticks(service, decided_at);
  rep.bytes_per_op = st.ops_applied == 0
                         ? 0
                         : static_cast<double>(st.payload_bytes) /
                               static_cast<double>(st.ops_applied);

  const mac::EngineStats& es = service.network().stats();
  util::Hasher latencies;
  for (const mac::Time t : st.decide_latency) latencies.mix_u64(t);
  for (const mac::Time t : st.read_latency) latencies.mix_u64(t);
  for (const mac::Time t : decided_at) latencies.mix_u64(t);
  Pins& p = rep.pins;
  p["decide_p50_ticks"] = std::to_string(rep.decide_p50);
  p["decide_p99_ticks"] = std::to_string(rep.decide_p99);
  p["read_p99_ticks"] = std::to_string(rep.read_p99);
  p["outage_ticks"] = std::to_string(rep.outage);
  p["bytes_per_op"] = fmt_double(rep.bytes_per_op);
  p["ops_applied"] = std::to_string(st.ops_applied);
  p["slots"] = std::to_string(st.slots_total);
  p["slots_full_paxos"] = std::to_string(st.slots_full_paxos);
  p["slots_leased"] = std::to_string(st.slots_leased);
  p["slots_recovered"] = std::to_string(st.slots_recovered);
  p["relaunches"] = std::to_string(st.relaunches);
  p["re_elections"] = std::to_string(st.re_elections);
  p["reads_served"] = std::to_string(st.reads_served);
  p["end_time"] = std::to_string(st.end_time);
  p["kv_digest"] = std::to_string(service.state_machine().digest());
  p["prefix_digest"] = std::to_string(prefix.digest);
  p["latency_digest"] = std::to_string(latencies.digest());
  p["mac.events"] = std::to_string(events_pushed(es));
  p["mac.broadcasts"] = std::to_string(es.broadcasts);
  p["mac.deliveries"] = std::to_string(es.deliveries);
  p["mac.acks"] = std::to_string(es.acks);
  p["mac.batch_pushes"] = std::to_string(es.batch_pushes);
  p["mac.overflow_pushes"] = std::to_string(es.overflow_pushes);
  p["mac.peak_events"] = std::to_string(es.peak_events);
  p["mac.pool_slots"] = std::to_string(service.network().payload_pool().slot_count());
  p["mac.instances"] = std::to_string(service.network().instance_count());
}

/// `host`, when given, is sampled on the repetition's CPU first.
LogRep run_rep(const LogShape& shape, std::uint64_t seed, HostSpeed* host) {
  pin_to_next_cpu();
  if (host != nullptr) host->sample();
  LogRep rep;
  const auto t0 = Clock::now();
  rep.bundle = std::make_unique<LogBundle>(shape, seed);
  const auto t1 = Clock::now();
  (void)rep.bundle->service->drive(kHorizon);
  const auto t2 = Clock::now();
  rep.setup_s = seconds_between(t0, t1);
  rep.drive_s = seconds_between(t1, t2);
  judge(shape, rep);
  return rep;
}

// ---- traced run: the layer split of drive() ------------------------------

enum SlotClass : std::size_t { kWPaxosSlot = 0, kFloodSlot = 1 };

struct ClassTotals {
  std::size_t slots = 0;
  std::uint64_t callbacks = 0;  ///< in the real run (InstanceStats)
  std::uint64_t payload_bytes = 0;
  std::vector<std::size_t> members;
  // From the solo replays of the sampled members.
  std::size_t replayed = 0;
  std::uint64_t plain_run_ns = 0;
  std::uint64_t traced_run_ns = 0;
  std::uint64_t replay_events = 0;
  CallbackTally tally;
};

/// Sampled slot indices, evenly spread over `members`.
std::vector<std::size_t> sample(const std::vector<std::size_t>& members,
                                std::size_t cap) {
  if (members.size() <= cap) return members;
  std::vector<std::size_t> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(members[i * members.size() / cap]);
  }
  return out;
}

/// The process factory that reproduces slot `slot`'s instance solo.
mac::ProcessFactory slot_factory(const LogShape& shape, std::size_t n,
                                 std::size_t slot, bool flood,
                                 const mac::Network& net,
                                 mac::InstanceId inst) {
  if (flood) {
    // The leader decided first, at launch.
    NodeId leader = 0;
    mac::Time first = mac::kForever;
    for (NodeId u = 0; u < n; ++u) {
      const mac::Decision& d = net.decision(u, inst);
      if (d.decided && d.time < first) {
        first = d.time;
        leader = u;
      }
    }
    const auto value = static_cast<mac::Value>(slot);
    return [leader, value](NodeId u) -> std::unique_ptr<mac::Process> {
      return std::make_unique<core::CommitFlood>(u == leader, value);
    };
  }
  const core::wpaxos::WPaxosConfig config;
  if (slot % shape.lease == 0) {
    return [slot, n, config](NodeId u) -> std::unique_ptr<mac::Process> {
      return std::make_unique<core::wpaxos::WPaxos>(
          u, n, log::ReplicatedLog::encode_renewal(slot, u), config);
    };
  }
  const auto value = static_cast<mac::Value>(slot);
  return [n, value, config](NodeId u) -> std::unique_ptr<mac::Process> {
    return std::make_unique<core::wpaxos::WPaxos>(u, n, value, config);
  };
}

void traced_layers(const LogShape& shape, std::uint64_t seed,
                   const LogRep& rep, double drive_s, Report& report) {
  const LogBundle& bundle = *rep.bundle;
  const log::ReplicatedLog& service = *bundle.service;
  const mac::Network& net = service.network();
  const log::LogServiceStats& st = service.stats();
  const std::size_t n = bundle.graph.node_count();
  const std::vector<mac::Time> decided_at = slot_decided_at(service);
  const std::vector<mac::CrashPlan> crashes = crash_plans(shape);
  const auto crashed_before = [&](mac::Time t) {
    std::vector<NodeId> out;
    for (const mac::CrashPlan& c : crashes) {
      if (c.when < t) out.push_back(c.node);
    }
    return out;
  };

  // Classify every slot by the protocol that decided it. A CommitFlood
  // instance broadcasts at most once per node; wPAXOS far more often.
  std::array<ClassTotals, 2> cls;
  for (std::size_t slot = 0; slot < st.slots_total; ++slot) {
    const mac::InstanceStats& is =
        net.instance_stats(service.slot_instance(slot));
    const bool flood = slot % shape.lease != 0 && is.broadcasts <= n;
    ClassTotals& c = cls[flood ? kFloodSlot : kWPaxosSlot];
    ++c.slots;
    c.callbacks += is.deliveries + is.acks +
                   (n - crashed_before(decided_at[slot]).size());
    c.payload_bytes += is.payload_bytes;
    c.members.push_back(slot);
  }

  // Solo replays of sampled slots, untraced then traced, on fresh networks
  // with the workload's scheduler. Each replay retires its instance once
  // decided and drains the queue, as the service does. The replay set runs
  // kPasses times; every figure below is the lower decile over the passes.
  std::vector<util::Buffer> payloads;
  constexpr std::size_t kSlotsPerClass = 256;
  constexpr int kPasses = 5;
  const double span_ns = empty_span_ns();
  std::array<std::vector<double>, 2> mac_ns_per_slot;
  std::array<std::vector<double>, 2> callback_ns_per_call;
  std::vector<double> overhead;
  for (int pass = 0; pass < kPasses; ++pass) {
    pin_to_next_cpu();
    std::uint64_t plain_total = 0;
    std::uint64_t traced_total = 0;
    for (std::size_t k = 0; k < cls.size(); ++k) {
      ClassTotals& c = cls[k];
      c.replayed = 0;
      c.plain_run_ns = 0;
      c.traced_run_ns = 0;
      c.replay_events = 0;
      c.tally = CallbackTally{};
      if (k == kWPaxosSlot && pass == 0) {
        c.tally.payloads = &payloads;
        c.tally.payload_cap = 50000;
      }
      for (const std::size_t slot : sample(c.members, kSlotsPerClass)) {
        const mac::ProcessFactory factory =
            slot_factory(shape, n, slot, k == kFloodSlot, net,
                         service.slot_instance(slot));
        const std::vector<NodeId> down = crashed_before(decided_at[slot]);
        const auto prepare = [&down](mac::Network& solo) {
          for (const NodeId u : down) solo.schedule_crash({u, 0});
        };
        const std::uint64_t sched_seed =
            derive_seed(derive_seed(seed, kSchedulerSalt), slot);
        auto plain_sched = make_scheduler(shape, sched_seed);
        const SoloRun plain =
            run_solo(bundle.graph, factory, *plain_sched, prepare,
                     SoloEnd::kRetireAndDrain, kHorizon);
        auto traced_sched = make_scheduler(shape, sched_seed);
        const SoloRun traced = run_solo(
            bundle.graph, timed_factory(factory, c.tally), *traced_sched,
            prepare, SoloEnd::kRetireAndDrain, kHorizon);
        ++c.replayed;
        c.plain_run_ns += plain.run_ns;
        c.traced_run_ns += traced.run_ns;
        c.replay_events += plain.events;
      }
      if (c.replayed == 0) continue;
      // Engine self time: the untraced replay minus the (span-cost
      // corrected) callback time of the traced one.
      const double cb_ns = corrected_callback_ns(c.tally, span_ns);
      callback_ns_per_call[k].push_back(
          c.tally.callbacks == 0
              ? 0
              : cb_ns / static_cast<double>(c.tally.callbacks));
      mac_ns_per_slot[k].push_back(
          (static_cast<double>(c.plain_run_ns) - cb_ns) /
          static_cast<double>(c.replayed));
      plain_total += c.plain_run_ns;
      traced_total += c.traced_run_ns;
    }
    overhead.push_back(static_cast<double>(traced_total) /
                           static_cast<double>(plain_total) -
                       1.0);
  }

  // Layer estimates for the whole run: per-slot engine self time and
  // per-callback protocol time from the replays, scaled by the real run's
  // slot and callback counts.
  double mac_est_ns = 0;
  double core_est_ns = 0;
  std::array<double, 2> callback_ns{};
  for (std::size_t k = 0; k < cls.size(); ++k) {
    if (cls[k].replayed == 0) continue;
    callback_ns[k] = low_decile(callback_ns_per_call[k]);
    mac_est_ns +=
        low_decile(mac_ns_per_slot[k]) * static_cast<double>(cls[k].slots);
    core_est_ns += callback_ns[k] * static_cast<double>(cls[k].callbacks);
  }

  // KvStateMachine replayed outside over the same ops and read keys.
  std::vector<double> kv_apply_passes;
  std::vector<double> kv_get_passes;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    pin_to_next_cpu();
    log::KvStateMachine kv;
    const auto k0 = Clock::now();
    for (std::size_t i = 0; i < st.ops_applied; ++i) {
      kv.apply(i, bundle.stream[i]);
    }
    const auto k1 = Clock::now();
    for (const log::ReadRecord& r : service.reads()) sink += kv.get(r.key);
    const auto k2 = Clock::now();
    if (kv.digest() != service.state_machine().digest()) {
      report.problems.push_back("kv replay digest differs");
    }
    kv_apply_passes.push_back(static_cast<double>(ns_between(k0, k1)));
    kv_get_passes.push_back(static_cast<double>(ns_between(k1, k2)));
  }
  const double kv_apply_ns = low_decile(kv_apply_passes);
  const double kv_get_ns = low_decile(kv_get_passes);

  // The per-slot oracle and the log-prefix check, re-run after the fact
  // with the inputs the service judged each slot against.
  std::vector<mac::InstanceId> slots(st.slots_total);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    slots[s] = service.slot_instance(s);
  }
  std::vector<double> oracle_passes;
  std::vector<double> prefix_passes;
  std::size_t oracle_bad = 0;
  bool prefix_ok = true;
  std::vector<mac::Value> inputs(n);
  for (int pass = 0; pass < kPasses; ++pass) {
    pin_to_next_cpu();
    const auto o0 = Clock::now();
    for (std::size_t slot = 0; slot < st.slots_total; ++slot) {
      for (NodeId u = 0; u < n; ++u) {
        inputs[u] = slot % shape.lease == 0
                        ? log::ReplicatedLog::encode_renewal(slot, u)
                        : static_cast<mac::Value>(slot);
      }
      const auto verdict = verify::check_consensus(net, slots[slot], inputs);
      if (pass == 0 && (!verdict.agreement || !verdict.validity)) ++oracle_bad;
    }
    const auto o1 = Clock::now();
    const verify::LogPrefixVerdict prefix =
        verify::check_log_prefix(net, slots);
    const auto o2 = Clock::now();
    prefix_ok = prefix_ok && prefix.consistent;
    oracle_passes.push_back(static_cast<double>(ns_between(o0, o1)));
    prefix_passes.push_back(static_cast<double>(ns_between(o1, o2)));
  }
  const double oracle_ns = low_decile(oracle_passes);
  const double prefix_ns = low_decile(prefix_passes);
  if (oracle_bad != 0) {
    report.problems.push_back(std::to_string(oracle_bad) +
                              " slots fail the re-run oracle");
  }
  if (!prefix_ok) {
    report.problems.push_back("re-run prefix check inconsistent");
  }

  std::vector<double> graph_builds;
  for (int i = 0; i < 11; ++i) {
    const auto g0 = Clock::now();
    const net::Graph g = make_graph(shape);
    graph_builds.push_back(seconds_between(g0, Clock::now()));
    sink += g.node_count();
  }
  keep(sink);

  const double serde_ns = wpaxos_roundtrip_ns(payloads);
  if (serde_ns < 0) {
    report.problems.push_back("wPAXOS codec round trip changed bytes");
  }

  const mac::EngineStats& es = net.stats();
  const double ops = static_cast<double>(st.ops_applied);
  const double events = static_cast<double>(events_pushed(es));
  const double layer_sum_s =
      (mac_est_ns + core_est_ns + kv_apply_ns + kv_get_ns + oracle_ns) * 1e-9;
  const double residual_s = drive_s - layer_sum_s;

  const auto per = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const ClassTotals& wp = cls[kWPaxosSlot];
  const ClassTotals& cf = cls[kFloodSlot];
  auto& v = report.values;
  v["mac.self_ns_per_event"] = per(mac_est_ns, events);
  v["mac.events_per_op"] = per(events, ops);
  v["mac.broadcasts_per_op"] = per(static_cast<double>(es.broadcasts), ops);
  v["mac.deliveries_per_op"] = per(static_cast<double>(es.deliveries), ops);
  v["mac.live_event_share"] =
      per(static_cast<double>(es.deliveries + es.acks), events);
  v["mac.batch_push_share"] = per(static_cast<double>(es.batch_pushes),
                                  static_cast<double>(es.broadcasts));
  v["mac.overflow_share"] = per(static_cast<double>(es.overflow_pushes), events);
  v["mac.peak_events"] = static_cast<double>(es.peak_events);
  v["mac.pool_slots"] = static_cast<double>(net.payload_pool().slot_count());
  v["mac.instances"] = static_cast<double>(net.instance_count());
  v["core.wpaxos.callback_ns"] = callback_ns[kWPaxosSlot];
  v["core.wpaxos.callbacks_per_slot"] =
      per(static_cast<double>(wp.callbacks), static_cast<double>(wp.slots));
  v["core.wpaxos.bytes_per_slot"] =
      per(static_cast<double>(wp.payload_bytes), static_cast<double>(wp.slots));
  v["core.commit_flood.callback_ns"] = callback_ns[kFloodSlot];
  v["core.commit_flood.callbacks_per_slot"] =
      per(static_cast<double>(cf.callbacks), static_cast<double>(cf.slots));
  v["serde.wpaxos_roundtrip_ns"] = std::max(serde_ns, 0.0);
  v["log.drive_s"] = drive_s;
  v["log.layer_sum_s"] = layer_sum_s;
  v["log.service_self_ns_per_op"] = per(residual_s * 1e9, ops);
  v["log.residual_share"] = per(residual_s, drive_s);
  v["log.kv.apply_ns"] = per(kv_apply_ns, ops);
  v["log.kv.get_ns"] = per(kv_get_ns, static_cast<double>(service.reads().size()));
  v["log.ops_per_slot"] = per(ops, static_cast<double>(st.slots_total));
  v["log.leased_share"] = per(static_cast<double>(st.slots_leased),
                              static_cast<double>(st.slots_total));
  v["log.full_paxos_slots"] = static_cast<double>(st.slots_full_paxos);
  v["log.recovered_slots"] = static_cast<double>(st.slots_recovered);
  v["log.relaunches"] = static_cast<double>(st.relaunches);
  v["log.re_elections"] = static_cast<double>(st.re_elections);
  v["log.read_p99_ticks"] = static_cast<double>(rep.read_p99);
  v["log.outage_ticks"] = static_cast<double>(rep.outage);
  v["verify.slot_oracle_ns"] = per(oracle_ns, static_cast<double>(st.slots_total));
  v["verify.log_prefix_ns_per_slot"] =
      per(prefix_ns, static_cast<double>(st.slots_total));
  v["net.graph_build_s"] = low_decile(graph_builds);
  v["trace.overhead_share"] = median(overhead);

  // The reconciliation: each layer's share of drive(), next to it.
  auto& t = report.text_metrics;
  t.push_back({"reconcile.log.drive_s", drive_s, "s"});
  t.push_back({"reconcile.layer_sum_s", layer_sum_s, "s"});
  t.push_back({"reconcile.mac_s", mac_est_ns * 1e-9, "s"});
  t.push_back({"reconcile.core_s", core_est_ns * 1e-9, "s"});
  t.push_back({"reconcile.kv_s", (kv_apply_ns + kv_get_ns) * 1e-9, "s"});
  t.push_back({"reconcile.oracle_s", oracle_ns * 1e-9, "s"});
  t.push_back({"reconcile.residual_s", residual_s, "s"});
  t.push_back({"reconcile.replayed_slots",
               static_cast<double>(wp.replayed + cf.replayed), "count"});
  t.push_back({"reconcile.replay_events_per_slot",
               per(static_cast<double>(wp.replay_events + cf.replay_events),
                   static_cast<double>(wp.replayed + cf.replayed)),
               "count"});
  t.push_back({"reconcile.empty_span_ns", span_ns, "ns"});
}
}  // namespace

bool is_log_workload(const std::string& name) {
  for (const LogShape& s : kShapes) {
    if (name == s.name) return true;
  }
  return false;
}

void run_log_workload(const Options& options, Report& report) {
  const LogShape& shape = shape_of(options.workload);
  // The traced run spends half its budget on untraced repetitions (for
  // drive_s and the pins) and the rest on the layer replays.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  constexpr std::size_t kMinReps = 5;
  constexpr std::size_t kMinSetups = 31;

  std::vector<double> setups;
  std::vector<double> drives;
  std::vector<double> rates;
  HostSpeed host;
  // Decide and read latencies of every slot and read the run decided.
  TickHistogram decide_ticks;
  TickHistogram read_ticks;
  LogRep last;
  const auto start = Clock::now();
  while (drives.size() < kMinReps ||
         seconds_between(start, Clock::now()) < budget) {
    last = LogRep{};
    last = run_rep(shape, options.seed, &host);
    setups.push_back(last.setup_s);
    drives.push_back(last.drive_s);
    const log::LogServiceStats& rep_stats = last.bundle->service->stats();
    rates.push_back(static_cast<double>(rep_stats.ops_applied) / last.drive_s);
    decide_ticks.add(rep_stats.decide_latency);
    read_ticks.add(rep_stats.read_latency);
    if (report.pins.empty()) {
      // Every repetition drives the same inputs to the same pins, so its
      // ops, reads and failures count once, whatever the repetition count.
      report.attempted += last.attempted;
      report.failed += last.failed;
      for (const std::string& p : last.problems) report.problems.push_back(p);
      report.pins = last.pins;
    } else {
      check_same_pins(report.pins, last.pins, "repetition", report);
    }
  }
  const double rss = peak_rss_mb();
  // Set-up alone, until there are enough samples for a steady figure.
  while (setups.size() < kMinSetups) {
    pin_to_next_cpu();
    host.sample();
    const auto t0 = Clock::now();
    const LogBundle extra(shape, options.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  const log::LogServiceStats& st = last.bundle->service->stats();
  if (options.trace) {
    traced_layers(shape, options.seed, last, low_decile(drives), report);
    report.values["failed_share"] =
        static_cast<double>(report.failed) /
        static_cast<double>(std::max<std::uint64_t>(report.attempted, 1));
  } else {
    auto& v = report.values;
    v["setup_s"] = low_decile(setups) / host.slowdown();
    v["ops_per_s"] = static_cast<double>(st.ops_applied) /
                     low_decile(drives) * host.slowdown();
    v["decide_p50_ticks"] =
        static_cast<double>(decide_ticks.percentile(0.50));
    v["decide_p99_ticks"] =
        static_cast<double>(decide_ticks.percentile(0.99));
    v["bytes_per_op"] = last.bytes_per_op;
    v["peak_rss_mb"] = rss;
  }
  if (shape.read_every != 0) {
    report.text_metrics.push_back(
        {"read_p99_ticks", static_cast<double>(read_ticks.percentile(0.99)),
         "ticks"});
  }
  report.text_metrics.push_back({"outage_ticks",
                                 static_cast<double>(last.outage), "ticks"});
  report.text_metrics.push_back(
      {"ops_per_s.measured",
       static_cast<double>(st.ops_applied) / low_decile(drives), "1/s"});
  report.text_metrics.push_back(
      {"setup_s.measured", low_decile(setups), "s"});
  report.text_metrics.push_back({"host.slowdown", host.slowdown(), "ratio"});
  report.text_metrics.push_back(
      {"scenarios_per_s", 1.0 / low_decile(drives), "1/s"});
  report.text_metrics.push_back(
      {"decide_samples", static_cast<double>(decide_ticks.size()), "count"});
  report.text_metrics.push_back(
      {"read_samples", static_cast<double>(read_ticks.size()), "count"});
  report.text_metrics.push_back(
      {"repetitions", static_cast<double>(drives.size()), "count"});
  const std::vector<double> q = quartiles(rates);
  report.text_metrics.push_back({"ops_per_s.median", q[1], "1/s"});
  report.text_metrics.push_back({"ops_per_s.q1", q[0], "1/s"});
  report.text_metrics.push_back({"ops_per_s.q3", q[2], "1/s"});
  last.bundle.reset();

  // One more run on the held-out seed: checked and pinned, never timed.
  LogRep held =
      run_rep(shape, derive_seed(options.seed, kHeldOutSalt), nullptr);
  report.attempted += held.attempted;
  report.failed += held.failed;
  for (const std::string& p : held.problems) {
    report.problems.push_back("held-out " + p);
  }
  report.heldout_pins = held.pins;
}

}  // namespace amac::perfbench

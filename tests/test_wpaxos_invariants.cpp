// Lemma-level invariants of wPAXOS, monitored at every simulation event.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hpp"
#include "net/topologies.hpp"
#include "verify/invariants.hpp"

namespace amac::verify {
namespace {

using core::wpaxos::AcceptorResponse;
using core::wpaxos::WireEnvelope;
using core::wpaxos::WPaxos;

using Tally = ResponseConservationMonitor::Tally;

/// The monitor's original per-proposer check, kept here as the reference
/// the one-pass ResponseConservationMonitor must agree with: for each
/// active proposer in index order it rescans every queue and decodes every
/// in-flight copy again. It tallies every active proposer before reporting
/// the first violator, so its terms can be compared with the monitor's.
class PerProposerMonitor {
 public:
  explicit PerProposerMonitor(std::vector<std::uint64_t> index_to_id)
      : index_to_id_(std::move(index_to_id)) {}

  void check(mac::Network& net) {
    if (violated_) return;
    ++checks_;
    tallies_.clear();
    const std::size_t n = net.node_count();
    for (NodeId pu = 0; pu < n; ++pu) {
      const auto* proposer = dynamic_cast<const WPaxos*>(&net.process(pu));
      const auto snap = proposer->proposer_snapshot();
      if (!snap.active) continue;
      Tally t{.proposer = pu, .pn = snap.pn, .stage = snap.stage,
              .yes = snap.yes};
      for (NodeId u = 0; u < n; ++u) {
        const auto* node = dynamic_cast<const WPaxos*>(&net.process(u));
        for (const auto& r : node->response_queue()) {
          if (t.matches(r)) t.queued += r.count;
        }
        if (node->responded_positive(snap.pn, snap.stage)) ++t.responded;
      }
      net.for_each_flight([&](const mac::Network::FlightView& flight) {
        for (const NodeId receiver : flight.pending) {
          if (receiver == kNoNode) continue;
          const WireEnvelope env = WireEnvelope::decode(flight.payload);
          if (!env.body.response) continue;
          const AcceptorResponse& r = *env.body.response;
          if (t.matches(r) && index_to_id_[receiver] == r.dest) {
            t.in_flight += r.count;
          }
        }
      });
      tallies_.push_back(t);
    }
    for (const Tally& t : tallies_) {
      if (t.yes + t.queued + t.in_flight > t.responded) {
        violated_ = true;
        std::ostringstream os;
        os << "Lemma 4.2 violation at t=" << net.now() << ": proposer id "
           << index_to_id_[t.proposer] << " pn=(" << t.pn.tag << ","
           << t.pn.id << ") stage=" << static_cast<int>(t.stage)
           << ": c=" << t.yes << " + queued=" << t.queued
           << " + in_flight=" << t.in_flight << " > responded=" << t.responded;
        report_ = os.str();
        return;
      }
    }
  }

  [[nodiscard]] bool violated() const { return violated_; }
  [[nodiscard]] const std::string& report() const { return report_; }
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }
  [[nodiscard]] const std::vector<Tally>& tallies() const { return tallies_; }

 private:
  std::vector<std::uint64_t> index_to_id_;
  std::vector<Tally> tallies_;
  bool violated_ = false;
  std::string report_;
  std::uint64_t checks_ = 0;
};

struct MonitoredRun {
  ResponseConservationMonitor monitor;
  bool condition_met = false;
  ConsensusVerdict verdict;
  std::uint64_t broadcasts = 0;
};

/// Runs wPAXOS on `g` with the monitor and the per-proposer reference both
/// checking after every event. Expects the two to agree on violated(),
/// report(), checks_performed() and every term of every active proposition
/// after every event: a stale in-flight count only hides violations, so
/// comparing verdicts alone would miss it.
MonitoredRun run_both_monitors(const net::Graph& g, std::uint64_t seed,
                               core::wpaxos::WPaxosConfig cfg,
                               const mac::LinkFaultPlan& faults = {}) {
  const std::size_t n = g.node_count();
  util::Rng rng(seed);
  const auto inputs = harness::inputs_random(n, rng);
  const auto ids = harness::permuted_ids(n, rng);
  cfg.track_responses = true;

  mac::UniformRandomScheduler sched(3, rng());
  mac::Network net(g, harness::wpaxos_factory(inputs, ids, cfg), sched);
  net.set_link_faults(faults);
  ResponseConservationMonitor monitor(ids);
  PerProposerMonitor reference(ids);
  std::uint64_t events = 0;
  std::uint64_t disagreements = 0;
  std::uint64_t tallied = 0;
  net.set_post_event_hook([&](mac::Network& network) {
    monitor.check(network);
    reference.check(network);
    ++events;
    tallied += monitor.tallies().size();
    if (monitor.violated() != reference.violated() ||
        monitor.report() != reference.report() ||
        monitor.checks_performed() != reference.checks_performed() ||
        monitor.tallies() != reference.tallies()) {
      ++disagreements;
    }
  });
  const auto result = net.run(mac::StopWhen::kAllDecided, 1'000'000);
  EXPECT_EQ(disagreements, 0u) << "over " << events << " events";
  EXPECT_GT(tallied, 0u);
  // A violated monitor stops checking; until then it checks every event.
  if (!monitor.violated()) {
    EXPECT_EQ(monitor.checks_performed(), events);
  }
  return {monitor, result.condition_met, check_consensus(net, inputs),
          net.stats().broadcasts};
}

void run_with_monitor(const net::Graph& g, std::uint64_t seed,
                      core::wpaxos::WPaxosConfig cfg = {}) {
  const auto run = run_both_monitors(g, seed, cfg);
  ASSERT_TRUE(run.condition_met);
  EXPECT_FALSE(run.monitor.violated()) << run.monitor.report();
  EXPECT_GT(run.monitor.checks_performed(), 0u);
  EXPECT_TRUE(run.verdict.ok()) << run.verdict.summary();
}

TEST(Lemma42, HoldsOnLine) { run_with_monitor(net::make_line(8), 1); }
TEST(Lemma42, HoldsOnRing) { run_with_monitor(net::make_ring(9), 2); }
TEST(Lemma42, HoldsOnGrid) { run_with_monitor(net::make_grid(3, 3), 3); }
TEST(Lemma42, HoldsOnClique) { run_with_monitor(net::make_clique(7), 4); }
TEST(Lemma42, HoldsOnStar) { run_with_monitor(net::make_star(8), 5); }

TEST(Lemma42, HoldsWithoutAggregation) {
  core::wpaxos::WPaxosConfig cfg;
  cfg.aggregate_responses = false;
  run_with_monitor(net::make_grid(3, 3), 6, cfg);
}

TEST(Lemma42, HoldsWithoutTreePriority) {
  core::wpaxos::WPaxosConfig cfg;
  cfg.tree_priority = false;
  run_with_monitor(net::make_ring(8), 7, cfg);
}

TEST(Lemma42, HoldsUnderProposalStorm) {
  core::wpaxos::WPaxosConfig cfg;
  cfg.change_gating = false;
  run_with_monitor(net::make_line(6), 8, cfg);
}

TEST(Lemma42, DecodesEachBroadcastAtMostOnce) {
  // The monitor caches one decoded response per sender, keyed on the
  // broadcast id, so a payload is decoded at most once however many checks
  // see its flight. The per-proposer reference decodes every copy at every
  // check.
  for (const auto& [g, seed] : {std::pair{net::make_grid(3, 3), 3},
                                std::pair{net::make_clique(7), 4}}) {
    const auto run = run_both_monitors(g, seed, {});
    ASSERT_TRUE(run.condition_met);
    EXPECT_FALSE(run.monitor.violated()) << run.monitor.report();
    EXPECT_GT(run.monitor.decodes_performed(), 0u);
    EXPECT_LE(run.monitor.decodes_performed(), run.broadcasts);
  }
}

TEST(Lemma42, FiresWhenDuplicatedResponsesAreCounted) {
  // wPAXOS assumes the abstract MAC layer's exactly-once delivery, so a
  // duplicate-only link-fault plan puts it outside its envelope: a
  // duplicated response frame is in flight (and consumed) twice, and the
  // step-wise inequality breaks. The report string was captured with the
  // per-proposer monitor this one replaced.
  mac::LinkFaultPlan faults;
  faults.seed = 4;
  faults.dup_rate_bp = 3000;
  const auto monitor =
      run_both_monitors(net::make_line(6), 4, {}, faults).monitor;
  ASSERT_TRUE(monitor.violated());
  EXPECT_EQ(monitor.report(),
            "Lemma 4.2 violation at t=25: proposer id 5 pn=(4,5) stage=0: "
            "c=2 + queued=1 + in_flight=2 > responded=4");
  EXPECT_EQ(monitor.checks_performed(), 110u);
}

TEST(Lemma44, TagsBoundedByChangeEvents) {
  // Lemma 4.4's mechanism: each change event spawns at most
  // proposals_per_change proposals, and tags only ever step to (max seen)+1,
  // so the largest tag is bounded by total proposals started.
  const auto g = net::make_grid(4, 4);
  const std::size_t n = g.node_count();
  util::Rng rng(9);
  const auto inputs = harness::inputs_random(n, rng);
  const auto ids = harness::permuted_ids(n, rng);
  mac::UniformRandomScheduler sched(4, rng());
  mac::Network net(g, harness::wpaxos_factory(inputs, ids), sched);
  net.run(mac::StopWhen::kAllDecided, 1'000'000);

  const auto tag = max_proposal_tag(net);
  const auto changes = total_change_events(net);
  EXPECT_LE(tag, 2 * changes + n);
  // The polynomial bound itself (very loose form of O(n^k)).
  EXPECT_LE(tag, 4 * n * n);
}

TEST(Lemma44, TagsStaySmallAfterStabilization) {
  // With the synchronous scheduler there is little churn: tags stay tiny.
  const auto g = net::make_line(10);
  const std::size_t n = 10;
  const auto inputs = harness::inputs_alternating(n);
  const auto ids = harness::identity_ids(n);
  mac::SynchronousScheduler sched(1);
  mac::Network net(g, harness::wpaxos_factory(inputs, ids), sched);
  net.run(mac::StopWhen::kAllDecided, 1'000'000);
  EXPECT_LE(max_proposal_tag(net), 12u);
}

}  // namespace
}  // namespace amac::verify

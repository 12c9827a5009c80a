// Runtime invariant monitors for wPAXOS.
//
// Lemma 4.2 (response-count conservation): for any proposition p, the count
// of affirmative responses the proposer has consumed, c(p), can never exceed
// a(p), the number of acceptors that affirmed p. We monitor the sharper
// step-wise form from the paper's proof: at every step,
//     c(p) + queued(p) + in_flight(p) <= responded(p),
// where queued sums matching counts in acceptor response queues, in_flight
// sums matching counts in messages currently addressed to their next hop,
// and responded counts acceptors whose log shows an affirmative response to
// p. (responded(p) <= a(p), so this implies the lemma's invariant.)
//
// Lemma 4.4 (bounded tags): proposal-number tags stay polynomial in n; the
// monitor tracks the largest tag and the per-node change-event counts that
// bound it.
//
// Reliable-delivery caveat: Lemma 4.2's accounting assumes the abstract
// MAC layer's delivery guarantee. Under a non-empty LinkFaultPlan a
// dropped frame can carry a queued response count out of existence (the
// lemma's "in flight" term silently shrinks), and a duplicated proposition
// can legitimately raise responded(p) between two checks — either way the
// step-wise inequality is no longer a theorem of the paper's model. The
// fuzz harness therefore stands the monitor down whenever a fault plan is
// installed (see run_on_engine in fuzz/fuzzer.cpp); the agreement/validity
// oracles still run unconditionally.
#pragma once

#include <string>
#include <vector>

#include "core/wpaxos/wpaxos.hpp"
#include "mac/engine.hpp"

namespace amac::verify {

class ResponseConservationMonitor {
 public:
  /// `index_to_id` maps engine node index -> wPAXOS algorithm id. Every
  /// process in the network must be a WPaxos built with
  /// config.track_responses = true.
  explicit ResponseConservationMonitor(std::vector<std::uint64_t> index_to_id);

  /// Checks the invariant for every currently active proposition. Call from
  /// Network::set_post_event_hook. On a violation, reports the first
  /// violating proposer in node-index order.
  ///
  /// Cost per check, with P active propositions: one pass over the nodes
  /// (P response-log lookups and a P-way match per queued response at each
  /// node) and one for_each_in_flight pass that decodes each in-flight
  /// payload once — the engines visit one flight's copies consecutively —
  /// and matches each addressed copy against the P propositions.
  void check(mac::Network& net);

  [[nodiscard]] bool violated() const { return violated_; }
  [[nodiscard]] const std::string& report() const { return report_; }
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }

 private:
  /// One active proposition and its Lemma 4.2 terms in the current check.
  struct Tally {
    NodeId proposer = 0;
    core::wpaxos::WPaxos::ProposerSnapshot snap;
    std::uint64_t queued = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t responded = 0;

    [[nodiscard]] bool matches(const core::wpaxos::AcceptorResponse& r) const {
      return r.positive && r.pn == snap.pn && r.stage == snap.stage;
    }
  };

  std::vector<std::uint64_t> index_to_id_;
  std::vector<Tally> active_;  ///< per-check scratch, capacity reused
  bool violated_ = false;
  std::string report_;
  std::uint64_t checks_ = 0;
};

/// Lemma 4.4: the largest proposal tag any node has used or seen.
[[nodiscard]] std::uint64_t max_proposal_tag(const mac::Network& net);

/// Total change events observed across all nodes (the quantity that bounds
/// tags: each change event spawns at most proposals_per_change proposals).
[[nodiscard]] std::uint64_t total_change_events(const mac::Network& net);

}  // namespace amac::verify

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

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/wpaxos/wpaxos.hpp"
#include "mac/engine.hpp"

namespace amac::verify {

class ResponseConservationMonitor {
 public:
  /// One active proposition and its Lemma 4.2 terms in one check.
  struct Tally {
    NodeId proposer = 0;  ///< engine index
    core::wpaxos::ProposalNumber pn;
    core::wpaxos::AcceptorResponse::Stage stage =
        core::wpaxos::AcceptorResponse::Stage::kPrepare;
    std::uint64_t yes = 0;  ///< c(p): responses the proposer consumed
    std::uint64_t queued = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t responded = 0;

    [[nodiscard]] bool matches(const core::wpaxos::AcceptorResponse& r) const {
      return r.positive && r.pn == pn && r.stage == stage;
    }
    bool operator==(const Tally&) const = default;
  };

  /// `index_to_id` maps engine node index -> wPAXOS algorithm id (ids are
  /// distinct). Every process in the network must be a WPaxos built with
  /// config.track_responses = true.
  explicit ResponseConservationMonitor(std::vector<std::uint64_t> index_to_id);

  /// Checks the invariant for every currently active proposition. Call from
  /// Network::set_post_event_hook. On a violation, reports the first
  /// violating proposer in node-index order.
  ///
  /// Cost per check, with P active propositions: one pass over the nodes
  /// (P response-log lookups and a P-way match per queued response at each
  /// node; the WPaxos type check runs only when a node's process changes)
  /// and one for_each_flight pass over the live flights. A flight's
  /// payload is decoded only when its sender's broadcast id differs from
  /// the one cached for that sender, so each broadcast is decoded once over
  /// the whole run, not once per check. A flight that carries a response
  /// then counts the copies addressed to the response's next hop in its
  /// pending list and adds them to each of the P propositions it matches.
  void check(mac::Network& net);

  [[nodiscard]] bool violated() const { return violated_; }
  [[nodiscard]] const std::string& report() const { return report_; }
  [[nodiscard]] std::uint64_t checks_performed() const { return checks_; }
  /// Payload decodes over the monitor's lifetime.
  [[nodiscard]] std::uint64_t decodes_performed() const { return decodes_; }
  /// The terms of every active proposition in the last check, in proposer
  /// index order.
  [[nodiscard]] const std::vector<Tally>& tallies() const { return active_; }

 private:
  /// The last broadcast decoded for one sender.
  struct DecodedFlight {
    std::uint64_t broadcast_id = 0;  ///< 0: none yet (ids start at 1)
    std::optional<core::wpaxos::AcceptorResponse> response;
    NodeId dest = kNoNode;  ///< engine index of response->dest, if any
  };

  std::vector<std::uint64_t> index_to_id_;
  std::unordered_map<std::uint64_t, NodeId> id_to_index_;
  std::vector<const mac::Process*> checked_;  ///< last type-checked process
  std::vector<DecodedFlight> decoded_;        ///< per sender
  std::vector<Tally> active_;  ///< per-check scratch, capacity reused
  bool violated_ = false;
  std::string report_;
  std::uint64_t checks_ = 0;
  std::uint64_t decodes_ = 0;
};

/// Lemma 4.4: the largest proposal tag any node has used or seen.
[[nodiscard]] std::uint64_t max_proposal_tag(const mac::Network& net);

/// Total change events observed across all nodes (the quantity that bounds
/// tags: each change event spawns at most proposals_per_change proposals).
[[nodiscard]] std::uint64_t total_change_events(const mac::Network& net);

}  // namespace amac::verify

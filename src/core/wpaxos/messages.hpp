// Wire formats for wPAXOS (paper §4.2.1, Figure 3).
//
// Every broadcast of a wPAXOS node is one Envelope multiplexing at most one
// message of each service (Algorithm 5: "dequeue a message from each
// non-empty queue and combine into one message"). Each component holds a
// constant number of ids/integers, so envelopes respect the model's
// bounded-message-size rule (O(1) ids of O(log n) bits; asserted in tests).
#pragma once

#include <compare>
#include <cstdint>
#include <optional>

#include "mac/types.hpp"
#include "util/hash.hpp"
#include "util/serde.hpp"

namespace amac::core::wpaxos {

/// A PAXOS proposal number: (tag, proposer id), compared lexicographically
/// (paper: "a proposal number is a tag and the node's id; pairs are compared
/// lexicographically").
struct ProposalNumber {
  std::uint64_t tag = 0;
  std::uint64_t id = 0;

  auto operator<=>(const ProposalNumber&) const = default;

  [[nodiscard]] static ProposalNumber zero() { return {0, 0}; }

  void encode(util::Writer& w) const;
  [[nodiscard]] static ProposalNumber decode(util::Reader& r);
  void digest(util::Hasher& h) const;
};

/// A (proposal number, value) pair: an accepted proposal carried in
/// prepare-phase responses.
struct Proposal {
  ProposalNumber pn;
  mac::Value value = 0;

  auto operator<=>(const Proposal&) const = default;

  void encode(util::Writer& w) const;
  [[nodiscard]] static Proposal decode(util::Reader& r);
  void digest(util::Hasher& h) const;
};

/// Leader election service message (Algorithm 2): max-id flood.
struct LeaderMsg {
  std::uint64_t leader_id = 0;
};

/// Change service message (Algorithm 3): freshest-change flood. Timestamps
/// are (tick, origin id) pairs compared lexicographically so concurrent
/// changes at the same tick still have a unique maximum.
struct ChangeMsg {
  mac::Time timestamp = 0;
  std::uint64_t origin = 0;

  [[nodiscard]] auto key() const { return std::pair(timestamp, origin); }
};

/// Tree building service message (Algorithm 4): Bellman-Ford search.
struct SearchMsg {
  std::uint64_t root = 0;
  std::uint32_t hops = 0;
};

/// Proposer-side flooded messages: PAXOS prepare/propose plus the flooded
/// decision. Ordered by (pn, kind) for at-most-once processing.
struct ProposerMsg {
  enum class Kind : std::uint8_t { kPrepare = 0, kPropose = 1, kDecide = 2 };

  Kind kind = Kind::kPrepare;
  ProposalNumber pn;       ///< unused for kDecide
  mac::Value value = 0;    ///< kPropose: proposed value; kDecide: decision
};

/// Acceptor response, routed hop-by-hop toward the proposer along the
/// proposer's tree and aggregated en route (§4.2.1 "Acceptors").
struct AcceptorResponse {
  enum class Stage : std::uint8_t { kPrepare = 0, kPropose = 1 };

  Stage stage = Stage::kPrepare;
  ProposalNumber pn;          ///< the proposition responded to (pn.id = proposer)
  bool positive = true;
  std::uint64_t count = 1;    ///< aggregated response count
  /// Positive prepare responses: the max-pn prior accepted proposal among
  /// all aggregated responders (max-merged on aggregation).
  std::optional<Proposal> prev;
  /// Negative responses: the largest committed proposal number among the
  /// aggregated rejecters (the paper's standard rejection optimization).
  ProposalNumber max_committed;
  /// Next-hop destination (parent[pn.id] of the last relayer). Broadcast,
  /// but ignored by everyone except `dest` — the paper's unicast emulation.
  std::uint64_t dest = 0;

  /// True when `other` aggregates with this entry (same proposition, same
  /// stage, same polarity).
  [[nodiscard]] bool can_merge(const AcceptorResponse& other) const;
  /// Merges counts and max-merges prev / max_committed. Requires can_merge.
  void merge(const AcceptorResponse& other);
};

/// One wPAXOS broadcast: the multiplexed heads of the service queues.
struct Envelope {
  std::optional<LeaderMsg> leader;
  std::optional<ChangeMsg> change;
  std::optional<SearchMsg> search;
  std::optional<ProposerMsg> proposer;
  std::optional<AcceptorResponse> response;

  [[nodiscard]] bool empty() const {
    return !leader && !change && !search && !proposer && !response;
  }

  [[nodiscard]] util::Buffer encode() const;
  [[nodiscard]] static Envelope decode(const util::Buffer& buf);

  /// Appends the encoding to `w`: the bytes encode() returns, without a
  /// fresh Buffer, so a reused scratch Writer encodes allocation-free.
  void encode(util::Writer& w) const;
  /// Decodes one envelope from `r` and asserts that `r` is then exhausted
  /// (an envelope is always a whole payload or a whole length-prefixed
  /// view). Allocates nothing.
  [[nodiscard]] static Envelope decode(util::Reader& r);
};

}  // namespace amac::core::wpaxos

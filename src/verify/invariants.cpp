#include "verify/invariants.hpp"

#include <algorithm>
#include <sstream>

namespace amac::verify {

using core::wpaxos::WireEnvelope;
using core::wpaxos::WPaxos;

ResponseConservationMonitor::ResponseConservationMonitor(
    std::vector<std::uint64_t> index_to_id)
    : index_to_id_(std::move(index_to_id)),
      checked_(index_to_id_.size(), nullptr),
      decoded_(index_to_id_.size()) {
  for (NodeId u = 0; u < index_to_id_.size(); ++u) {
    const bool distinct = id_to_index_.emplace(index_to_id_[u], u).second;
    AMAC_EXPECTS(distinct);
  }
}

void ResponseConservationMonitor::check(mac::Network& net) {
  if (violated_) return;
  ++checks_;
  const std::size_t n = net.node_count();
  AMAC_EXPECTS(index_to_id_.size() == n);

  // Every node with an active proposition, in node-index order.
  active_.clear();
  for (NodeId u = 0; u < n; ++u) {
    const mac::Process* process = &net.process(u);
    if (process != checked_[u]) {
      AMAC_EXPECTS(dynamic_cast<const WPaxos*>(process) != nullptr);
      checked_[u] = process;
    }
    const auto snap = static_cast<const WPaxos*>(process)->proposer_snapshot();
    if (snap.active) {
      active_.push_back(Tally{.proposer = u,
                              .pn = snap.pn,
                              .stage = snap.stage,
                              .yes = snap.yes});
    }
  }
  if (active_.empty()) return;

  for (NodeId u = 0; u < n; ++u) {
    const auto& node = static_cast<const WPaxos&>(net.process(u));
    for (Tally& t : active_) {
      for (const auto& r : node.response_queue()) {
        if (t.matches(r)) t.queued += r.count;
      }
      if (node.responded_positive(t.pn, t.stage)) ++t.responded;
    }
  }

  net.for_each_flight([&](const mac::Network::FlightView& flight) {
    DecodedFlight& d = decoded_[flight.sender];
    if (d.broadcast_id != flight.broadcast_id) {
      d = {.broadcast_id = flight.broadcast_id,
           .response = WireEnvelope::decode(flight.payload).body.response};
      if (d.response) {
        const auto it = id_to_index_.find(d.response->dest);
        if (it != id_to_index_.end()) d.dest = it->second;
      }
      ++decodes_;
    }
    // Only the addressed next hop will consume the response; copies to
    // other neighbors are ignored on receipt.
    if (d.dest == kNoNode) return;
    const auto copies = static_cast<std::uint64_t>(
        std::count(flight.pending.begin(), flight.pending.end(), d.dest));
    for (Tally& t : active_) {
      if (t.matches(*d.response)) t.in_flight += copies * d.response->count;
    }
  });

  for (const Tally& t : active_) {
    if (t.yes + t.queued + t.in_flight > t.responded) {
      violated_ = true;
      std::ostringstream os;
      os << "Lemma 4.2 violation at t=" << net.now() << ": proposer id "
         << index_to_id_[t.proposer] << " pn=(" << t.pn.tag << "," << t.pn.id
         << ") stage=" << static_cast<int>(t.stage) << ": c=" << t.yes
         << " + queued=" << t.queued << " + in_flight=" << t.in_flight
         << " > responded=" << t.responded;
      report_ = os.str();
      return;
    }
  }
}

std::uint64_t max_proposal_tag(const mac::Network& net) {
  std::uint64_t max_tag = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const auto* node = dynamic_cast<const WPaxos*>(&net.process(u));
    AMAC_EXPECTS(node != nullptr);
    max_tag = std::max(max_tag, node->current_max_tag());
  }
  return max_tag;
}

std::uint64_t total_change_events(const mac::Network& net) {
  std::uint64_t total = 0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    const auto* node = dynamic_cast<const WPaxos*>(&net.process(u));
    AMAC_EXPECTS(node != nullptr);
    total += node->node_stats().change_events;
  }
  return total;
}

}  // namespace amac::verify

#include "verify/invariants.hpp"

#include <optional>
#include <sstream>

namespace amac::verify {

using core::wpaxos::AcceptorResponse;
using core::wpaxos::WireEnvelope;
using core::wpaxos::WPaxos;

ResponseConservationMonitor::ResponseConservationMonitor(
    std::vector<std::uint64_t> index_to_id)
    : index_to_id_(std::move(index_to_id)) {}

void ResponseConservationMonitor::check(mac::Network& net) {
  if (violated_) return;
  ++checks_;
  const std::size_t n = net.node_count();
  AMAC_EXPECTS(index_to_id_.size() == n);

  // Every node with an active proposition, in node-index order.
  active_.clear();
  for (NodeId u = 0; u < n; ++u) {
    const auto* node = dynamic_cast<const WPaxos*>(&net.process(u));
    AMAC_EXPECTS(node != nullptr);
    const auto snap = node->proposer_snapshot();
    if (snap.active) active_.push_back(Tally{.proposer = u, .snap = snap});
  }
  if (active_.empty()) return;

  for (NodeId u = 0; u < n; ++u) {
    const auto& node = static_cast<const WPaxos&>(net.process(u));
    for (Tally& t : active_) {
      for (const auto& r : node.response_queue()) {
        if (t.matches(r)) t.queued += r.count;
      }
      if (node.responded_positive(t.snap.pn, t.snap.stage)) ++t.responded;
    }
  }

  // Both engines visit one flight's copies consecutively, so remembering
  // the last payload decodes each flight once.
  const util::Buffer* decoded = nullptr;
  std::optional<AcceptorResponse> response;
  net.for_each_in_flight([&](NodeId /*sender*/, NodeId receiver,
                             const util::Buffer& payload) {
    if (&payload != decoded) {
      decoded = &payload;
      response = WireEnvelope::decode(payload).body.response;
    }
    // Only the addressed next hop will consume the response; copies to
    // other neighbors are ignored on receipt.
    if (!response || index_to_id_[receiver] != response->dest) return;
    for (Tally& t : active_) {
      if (t.matches(*response)) t.in_flight += response->count;
    }
  });

  for (const Tally& t : active_) {
    if (t.snap.yes + t.queued + t.in_flight > t.responded) {
      violated_ = true;
      std::ostringstream os;
      os << "Lemma 4.2 violation at t=" << net.now() << ": proposer id "
         << index_to_id_[t.proposer] << " pn=(" << t.snap.pn.tag << ","
         << t.snap.pn.id << ") stage=" << static_cast<int>(t.snap.stage)
         << ": c=" << t.snap.yes << " + queued=" << t.queued
         << " + in_flight=" << t.in_flight << " > responded=" << t.responded;
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

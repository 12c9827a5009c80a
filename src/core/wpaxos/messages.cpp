#include "core/wpaxos/messages.hpp"

namespace amac::core::wpaxos {

void ProposalNumber::encode(util::Writer& w) const {
  w.put_uvarint(tag);
  w.put_uvarint(id);
}

ProposalNumber ProposalNumber::decode(util::Reader& r) {
  ProposalNumber pn;
  pn.tag = r.get_uvarint();
  pn.id = r.get_uvarint();
  return pn;
}

void ProposalNumber::digest(util::Hasher& h) const {
  h.mix_u64(tag);
  h.mix_u64(id);
}

void Proposal::encode(util::Writer& w) const {
  pn.encode(w);
  w.put_uvarint(static_cast<std::uint64_t>(value));
}

Proposal Proposal::decode(util::Reader& r) {
  Proposal p;
  p.pn = ProposalNumber::decode(r);
  p.value = static_cast<mac::Value>(r.get_uvarint());
  return p;
}

void Proposal::digest(util::Hasher& h) const {
  pn.digest(h);
  h.mix_i64(value);
}

bool AcceptorResponse::can_merge(const AcceptorResponse& other) const {
  return stage == other.stage && pn == other.pn && positive == other.positive;
}

void AcceptorResponse::merge(const AcceptorResponse& other) {
  AMAC_EXPECTS(can_merge(other));
  count += other.count;
  // Keep only the prior proposal with the largest proposal number among
  // those being aggregated (§4.2.1) — exactly what Lemma 4.3 needs.
  if (other.prev && (!prev || other.prev->pn > prev->pn)) prev = other.prev;
  max_committed = std::max(max_committed, other.max_committed);
}

namespace {

constexpr std::uint8_t kHasLeader = 1u << 0;
constexpr std::uint8_t kHasChange = 1u << 1;
constexpr std::uint8_t kHasSearch = 1u << 2;
constexpr std::uint8_t kHasProposer = 1u << 3;
constexpr std::uint8_t kHasResponse = 1u << 4;

}  // namespace

util::Buffer Envelope::encode() const {
  util::Writer w;
  encode(w);
  return std::move(w).take();
}

Envelope Envelope::decode(const util::Buffer& buf) {
  util::Reader r(buf);
  return decode(r);
}

void Envelope::encode(util::Writer& w) const {
  std::uint8_t mask = 0;
  if (leader) mask |= kHasLeader;
  if (change) mask |= kHasChange;
  if (search) mask |= kHasSearch;
  if (proposer) mask |= kHasProposer;
  if (response) mask |= kHasResponse;
  w.put_u8(mask);

  if (leader) w.put_uvarint(leader->leader_id);
  if (change) {
    w.put_uvarint(change->timestamp);
    w.put_uvarint(change->origin);
  }
  if (search) {
    w.put_uvarint(search->root);
    w.put_uvarint(search->hops);
  }
  if (proposer) {
    w.put_u8(static_cast<std::uint8_t>(proposer->kind));
    proposer->pn.encode(w);
    w.put_uvarint(static_cast<std::uint64_t>(proposer->value));
  }
  if (response) {
    w.put_u8(static_cast<std::uint8_t>(response->stage));
    response->pn.encode(w);
    w.put_bool(response->positive);
    w.put_uvarint(response->count);
    w.put_bool(response->prev.has_value());
    if (response->prev) response->prev->encode(w);
    response->max_committed.encode(w);
    w.put_uvarint(response->dest);
  }
}

Envelope Envelope::decode(util::Reader& r) {
  Envelope e;
  const std::uint8_t mask = r.get_u8();
  if (mask & kHasLeader) e.leader = LeaderMsg{r.get_uvarint()};
  if (mask & kHasChange) {
    ChangeMsg c;
    c.timestamp = r.get_uvarint();
    c.origin = r.get_uvarint();
    e.change = c;
  }
  if (mask & kHasSearch) {
    SearchMsg s;
    s.root = r.get_uvarint();
    s.hops = static_cast<std::uint32_t>(r.get_uvarint());
    e.search = s;
  }
  if (mask & kHasProposer) {
    ProposerMsg p;
    p.kind = static_cast<ProposerMsg::Kind>(r.get_u8());
    p.pn = ProposalNumber::decode(r);
    p.value = static_cast<mac::Value>(r.get_uvarint());
    e.proposer = p;
  }
  if (mask & kHasResponse) {
    AcceptorResponse a;
    a.stage = static_cast<AcceptorResponse::Stage>(r.get_u8());
    a.pn = ProposalNumber::decode(r);
    a.positive = r.get_bool();
    a.count = r.get_uvarint();
    if (r.get_bool()) a.prev = Proposal::decode(r);
    a.max_committed = ProposalNumber::decode(r);
    a.dest = r.get_uvarint();
    e.response = a;
  }
  AMAC_ENSURES(r.exhausted());
  return e;
}

}  // namespace amac::core::wpaxos

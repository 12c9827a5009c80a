#include "core/wpaxos/wpaxos.hpp"

#include <algorithm>

namespace amac::core::wpaxos {

namespace {

// Capacity a one-shot encode() reserves up front. wPAXOS envelopes are
// typically a few tens of bytes, so each writer allocates once instead of
// growing byte by byte; a larger envelope grows the buffer as usual.
constexpr std::size_t kTypicalBytes = 64;

}  // namespace

util::Buffer WireEnvelope::encode() const {
  util::Writer out;
  util::Writer scratch;
  out.reserve(kTypicalBytes);
  scratch.reserve(kTypicalBytes);
  encode(out, scratch);
  return std::move(out).take();
}

void WireEnvelope::encode(util::Writer& out, util::Writer& scratch) const {
  scratch.clear();
  body.encode(scratch);
  out.put_uvarint(sender_id);
  out.put_bytes(scratch.buffer());
}

WireEnvelope WireEnvelope::decode(const util::Buffer& buf) {
  util::Reader r(buf);
  WireEnvelope e;
  e.sender_id = r.get_uvarint();
  util::Reader inner = r.get_view();
  AMAC_ENSURES(r.exhausted());
  e.body = Envelope::decode(inner);
  return e;
}

WPaxos::WPaxos(std::uint64_t id, std::size_t n, mac::Value initial_value,
               WPaxosConfig config, std::optional<WarmStart> warm)
    : id_(id), n_(n), value_(initial_value), cfg_(config), warm_(warm) {
  AMAC_EXPECTS(n >= 1);
  // PAXOS is value-agnostic, so wPAXOS supports arbitrary non-negative
  // values, not just binary consensus (the paper's §2 generalization; note
  // that b-bit values make messages O(b + log n) bits — doing better is
  // the open problem the paper states).
  AMAC_EXPECTS(initial_value >= 0);
  AMAC_EXPECTS(cfg_.proposals_per_change >= 1);
}

void WPaxos::on_start(mac::Context& ctx) {
  if (warm_) {
    // Omega and the tree toward it are already known: no service flood,
    // and only the leader proposes (see "Warm start" in the header).
    omega_ = warm_->leader;
    dist_[omega_] = warm_->dist;
    parent_[omega_] = warm_->parent;
    if (omega_ == id_) generate_new_proposal(ctx);
    maybe_send(ctx);
    return;
  }
  // Algorithm 2 init: Omega_u <- id_u, enqueue <leader, id_u>.
  omega_ = id_;
  leader_q_ = LeaderMsg{id_};
  // Algorithm 4 init: dist[id_u] <- 0, parent[id_u] <- id_u,
  // enqueue <search, id_u, 1>.
  dist_[id_] = 0;
  parent_[id_] = id_;
  tree_enqueue(SearchMsg{id_, 1});
  // Algorithm 3: bootstrap change event (every node starts as its own
  // leader, so this also generates the initial proposal).
  on_local_change(ctx);
  maybe_send(ctx);
}

void WPaxos::on_receive(const mac::Packet& packet, mac::Context& ctx) {
  const WireEnvelope env = WireEnvelope::decode(packet.payload);
  const Envelope& body = env.body;
  if (body.leader) process_leader(body.leader->leader_id, ctx);
  if (body.search) {
    process_search(*body.search, env.sender_id, packet.reliable, ctx);
  }
  if (body.change) process_change(*body.change, ctx);
  if (body.proposer) process_proposer(*body.proposer, ctx);
  if (body.response) process_response(*body.response, ctx);
  maybe_send(ctx);
}

void WPaxos::on_ack(mac::Context& ctx) { maybe_send(ctx); }

// ---------------------------------------------------------------- services

void WPaxos::process_leader(std::uint64_t leader_id, mac::Context& ctx) {
  if (decided_ || leader_id <= omega_) return;
  omega_ = leader_id;
  leader_q_ = LeaderMsg{leader_id};
  // Losing leadership abandons any in-flight proposal: its responses are
  // about to be pruned network-wide anyway (queue invariant (1)).
  if (omega_ != id_) pphase_ = PropPhase::kIdle;
  tree_prioritize_leader();
  max_pn_from_leader_ = ProposalNumber::zero();
  // The at-most-once cursor is scoped to the current leader's flood: the
  // new leader restarts from its own (possibly smaller) proposal numbers,
  // so the cursor restarts with it (see process_proposer).
  processed_any_ = false;
  last_processed_ = {ProposalNumber::zero(), 0};
  prune_responses();
  on_local_change(ctx);
}

void WPaxos::process_search(const SearchMsg& m, std::uint64_t from_id,
                            bool reliable_edge, mac::Context& ctx) {
  if (decided_) return;
  // Dual-graph mode: never route the response tree over a link the
  // adversary may silence.
  if (cfg_.tree_reliable_only && !reliable_edge) return;
  const auto it = dist_.find(m.root);
  const bool improves = it == dist_.end() || m.hops < it->second;
  if (!improves) return;
  dist_[m.root] = m.hops;
  parent_[m.root] = from_id;
  tree_enqueue(SearchMsg{m.root, m.hops + 1});
  // Algorithm 3's OnChange fires when Omega or the distance to the current
  // leader changes.
  if (m.root == omega_) on_local_change(ctx);
  // Ablation: without change gating, a self-proclaimed leader re-proposes
  // on every event it observes.
  if (!cfg_.change_gating && omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::process_change(const ChangeMsg& m, mac::Context& ctx) {
  if (decided_ || m.key() <= last_change_) return;
  last_change_ = m.key();
  change_q_ = m;
  // Algorithm 3 UpdateQ: a node that currently believes itself leader
  // generates a new PAXOS proposal.
  if (omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::on_local_change(mac::Context& ctx) {
  if (decided_) return;
  ++stats_.change_events;
  last_change_ = {ctx.now(), id_};
  change_q_ = ChangeMsg{ctx.now(), id_};
  if (omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::tree_enqueue(const SearchMsg& s) {
  // Algorithm 4 UpdateQ: replace any queued (necessarily worse) entry for
  // the same root, then prioritize the leader's entry.
  tree_q_.remove_if([&](const SearchMsg& q) { return q.root == s.root; });
  tree_q_.push_back(s);
  tree_prioritize_leader();
}

void WPaxos::tree_prioritize_leader() {
  if (!cfg_.tree_priority) return;
  const auto it = std::find_if(
      tree_q_.begin(), tree_q_.end(),
      [&](const SearchMsg& q) { return q.root == omega_; });
  if (it != tree_q_.end()) tree_q_.splice(tree_q_.begin(), tree_q_, it);
}

// ---------------------------------------------------------------- proposer

void WPaxos::generate_new_proposal(mac::Context& ctx) {
  if (decided_) return;
  attempts_left_ = cfg_.proposals_per_change;
  start_proposal(ctx);
}

void WPaxos::start_proposal(mac::Context& ctx) {
  if (decided_ || attempts_left_ <= 0) return;
  --attempts_left_;
  ++stats_.proposals_started;
  ++max_tag_;
  current_ = ProposalNumber{max_tag_, id_};
  pphase_ = PropPhase::kPrepare;
  yes_ = 0;
  no_ = 0;
  best_prev_.reset();
  highest_rejection_ = ProposalNumber::zero();

  const ProposerMsg msg{ProposerMsg::Kind::kPrepare, current_, 0};
  // Flood queue invariant: the newest own proposition supersedes anything
  // queued; the at-most-once guard skips our own echo.
  proposer_q_ = msg;
  last_processed_ = {msg.pn, rank(msg.kind)};
  processed_any_ = true;
  max_pn_from_leader_ = std::max(max_pn_from_leader_, msg.pn);
  // The proposer's own acceptor handles its messages directly (§4.2.1).
  route_response(acceptor_respond(msg), ctx);
}

void WPaxos::consume_response(const AcceptorResponse& r, mac::Context& ctx) {
  if (decided_ || pphase_ == PropPhase::kIdle || r.pn != current_) return;
  const auto expected = pphase_ == PropPhase::kPrepare
                            ? AcceptorResponse::Stage::kPrepare
                            : AcceptorResponse::Stage::kPropose;
  if (r.stage != expected) return;
  if (r.positive) {
    yes_ += r.count;
    if (r.prev && (!best_prev_ || r.prev->pn > best_prev_->pn)) {
      best_prev_ = r.prev;
    }
  } else {
    no_ += r.count;
    highest_rejection_ = std::max(highest_rejection_, r.max_committed);
    max_tag_ = std::max(max_tag_, r.max_committed.tag);
  }
  check_thresholds(ctx);
}

void WPaxos::check_thresholds(mac::Context& ctx) {
  if (2 * yes_ > n_) {
    if (pphase_ == PropPhase::kPrepare) {
      // Promised by a majority: move to the propose stage with the value of
      // the highest-numbered previously accepted proposal, if any.
      pphase_ = PropPhase::kPropose;
      prop_value_ = best_prev_ ? best_prev_->value : value_;
      yes_ = 0;
      no_ = 0;
      const ProposerMsg msg{ProposerMsg::Kind::kPropose, current_,
                            prop_value_};
      proposer_q_ = msg;
      last_processed_ = {msg.pn, rank(msg.kind)};
      route_response(acceptor_respond(msg), ctx);
    } else {
      // Accepted by a majority: decide and flood the decision.
      adopt_decision(prop_value_, ctx);
    }
    return;
  }
  if (2 * no_ > n_) {
    // Rejected by a majority. The rejections carried the largest committed
    // proposal number, so a retry (if the budget and leadership allow)
    // uses a larger tag.
    pphase_ = PropPhase::kIdle;
    if (omega_ == id_ && attempts_left_ > 0) start_proposal(ctx);
  }
}

// ---------------------------------------------------------------- acceptor

AcceptorResponse WPaxos::acceptor_respond(const ProposerMsg& m) {
  AcceptorResponse r;
  r.pn = m.pn;
  r.count = 1;
  if (m.kind == ProposerMsg::Kind::kPrepare) {
    r.stage = AcceptorResponse::Stage::kPrepare;
    if (m.pn > promised_) {
      promised_ = m.pn;
      r.positive = true;
      r.prev = accepted_;
    } else {
      r.positive = false;
      r.max_committed = promised_;
    }
  } else {
    AMAC_EXPECTS(m.kind == ProposerMsg::Kind::kPropose);
    r.stage = AcceptorResponse::Stage::kPropose;
    if (m.pn >= promised_) {
      promised_ = m.pn;
      accepted_ = Proposal{m.pn, m.value};
      r.positive = true;
    } else {
      r.positive = false;
      r.max_committed = promised_;
    }
  }
  if (cfg_.track_responses && r.positive) {
    positive_log_.insert({r.pn, static_cast<std::uint8_t>(r.stage)});
  }
  return r;
}

void WPaxos::process_proposer(const ProposerMsg& m, mac::Context& ctx) {
  if (m.kind == ProposerMsg::Kind::kDecide) {
    adopt_decision(m.value, ctx);
    return;
  }
  if (decided_) return;
  // A proposition from id X is evidence that X exists: feed the leader
  // election service before the leader gate below.
  if (m.pn.id > omega_) process_leader(m.pn.id, ctx);

  // Any observed proposition teaches us its tag, so a future proposal of
  // ours is numbered above everything already in flight.
  max_tag_ = std::max(max_tag_, m.pn.tag);

  // Queue invariants (§4.2.1): only the current leader's propositions are
  // relayed and answered. This gate must run BEFORE the at-most-once
  // cursor below advances: a deposed leader may have flooded a larger
  // proposal number than the new leader's first proposition (pn order is
  // (tag, id), and the loser can hold the larger tag), and a cursor parked
  // at that stale maximum would silently swallow the real leader's flood —
  // no relay, no response, not even a rejection — wedging the proposer
  // below the majority threshold with nothing left to trigger a retry.
  if (m.pn.id != omega_) return;

  // At-most-once processing per (pn, kind), monotonically increasing
  // within the current leader's propositions (the cursor resets on
  // leadership change; omega_ itself is monotone, so a deposed leader's
  // duplicates can never sneak back past the gate above).
  const std::pair<ProposalNumber, std::uint8_t> key{m.pn, rank(m.kind)};
  if (processed_any_ && key <= last_processed_) return;
  last_processed_ = key;
  processed_any_ = true;

  max_pn_from_leader_ = std::max(max_pn_from_leader_, m.pn);
  prune_responses();
  proposer_q_ = m;  // flood relay (supersedes anything older)
  route_response(acceptor_respond(m), ctx);

  if (!cfg_.change_gating && omega_ == id_) generate_new_proposal(ctx);
}

void WPaxos::route_response(AcceptorResponse r, mac::Context& ctx) {
  if (r.pn.id == id_) {
    consume_response(r, ctx);
  } else {
    response_enqueue(std::move(r));
  }
}

void WPaxos::process_response(const AcceptorResponse& r, mac::Context& ctx) {
  if (decided_) return;
  // Broadcast-as-unicast: only the addressed next hop handles a response.
  if (r.dest != id_) return;
  route_response(r, ctx);
}

void WPaxos::response_enqueue(AcceptorResponse r) {
  // Queue invariants (§4.2.1): responses only for the current leader's
  // largest proposition.
  if (r.pn.id != omega_ || r.pn < max_pn_from_leader_) return;
  max_pn_from_leader_ = std::max(max_pn_from_leader_, r.pn);
  prune_responses();
  ++stats_.responses_enqueued;
  if (cfg_.aggregate_responses) {
    for (auto& q : response_q_) {
      if (q.can_merge(r)) {
        q.merge(r);
        ++stats_.responses_merged;
        return;
      }
    }
  }
  response_q_.push_back(std::move(r));
}

void WPaxos::prune_responses() {
  std::erase_if(response_q_, [&](const AcceptorResponse& r) {
    return r.pn.id != omega_ || r.pn < max_pn_from_leader_;
  });
}

// ---------------------------------------------------------------- decision

void WPaxos::adopt_decision(mac::Value v, mac::Context& ctx) {
  if (decided_) return;
  decided_ = true;
  decision_value_ = v;
  decide_relay_pending_ = true;
  // Wind down: only the decide flood remains.
  leader_q_.reset();
  change_q_.reset();
  tree_q_.clear();
  proposer_q_.reset();
  response_q_.clear();
  pphase_ = PropPhase::kIdle;
  ctx.decide(v);
}

// ------------------------------------------------- broadcast service (A5)

void WPaxos::maybe_send(mac::Context& ctx) {
  if (ctx.busy()) return;

  WireEnvelope env;
  env.sender_id = id_;

  if (decided_) {
    if (!decide_relay_pending_) return;
    decide_relay_pending_ = false;
    env.body.proposer =
        ProposerMsg{ProposerMsg::Kind::kDecide, ProposalNumber::zero(),
                    decision_value_};
    broadcast(env, ctx);
    return;
  }

  if (leader_q_) {
    env.body.leader = *leader_q_;
    leader_q_.reset();
  }
  if (change_q_) {
    env.body.change = *change_q_;
    change_q_.reset();
  }
  if (!tree_q_.empty()) {
    env.body.search = tree_q_.front();
    tree_q_.pop_front();
  }
  if (proposer_q_) {
    env.body.proposer = *proposer_q_;
    proposer_q_.reset();
  }
  // First sendable response: destination = the CURRENT parent toward the
  // proposer; entries whose parent is still unknown stay queued.
  for (auto it = response_q_.begin(); it != response_q_.end(); ++it) {
    const auto p = parent_.find(it->pn.id);
    if (p == parent_.end()) continue;
    AcceptorResponse r = *it;
    r.dest = p->second;
    response_q_.erase(it);
    env.body.response = std::move(r);
    break;
  }

  if (env.body.empty()) return;
  broadcast(env, ctx);
}

void WPaxos::broadcast(const WireEnvelope& env, mac::Context& ctx) {
  // The engine copies the bytes into its payload pool (process.hpp), so the
  // scratch writers are free to be reused by the next send.
  out_.clear();
  env.encode(out_, body_scratch_);
  ctx.broadcast(out_.buffer());
}

// ------------------------------------------------------------- observables

std::optional<WarmStart> WPaxos::converged() const {
  const auto d = dist_.find(omega_);
  if (d == dist_.end()) return std::nullopt;
  return WarmStart{omega_, d->second, parent_.at(omega_)};
}

WPaxos::ProposerSnapshot WPaxos::proposer_snapshot() const {
  ProposerSnapshot s;
  s.active = pphase_ != PropPhase::kIdle;
  s.stage = pphase_ == PropPhase::kPropose ? AcceptorResponse::Stage::kPropose
                                           : AcceptorResponse::Stage::kPrepare;
  s.pn = current_;
  s.yes = yes_;
  s.no = no_;
  return s;
}

bool WPaxos::responded_positive(const ProposalNumber& pn,
                                AcceptorResponse::Stage stage) const {
  return positive_log_.contains({pn, static_cast<std::uint8_t>(stage)});
}

std::unique_ptr<mac::Process> WPaxos::clone() const {
  return std::make_unique<WPaxos>(*this);
}

void WPaxos::protocol_stats(mac::ProtocolStats& out) const {
  // max_tag_ is the highest proposal-number tag this node has witnessed:
  // the wPAXOS analog of a round count (how deep the proposal/round
  // structure went before the run ended).
  out.max_round = std::max<std::uint64_t>(out.max_round, max_tag_);
  out.proposals += stats_.proposals_started;
  out.change_events += stats_.change_events;
}

void WPaxos::digest(util::Hasher& h) const {
  h.mix_u64(id_);
  h.mix_u64(n_);
  h.mix_i64(value_);
  h.mix_u64(omega_);
  h.mix_u64(last_change_.first);
  h.mix_u64(last_change_.second);
  for (const auto& [root, d] : dist_) {
    h.mix_u64(root);
    h.mix_u64(d);
  }
  for (const auto& [root, p] : parent_) {
    h.mix_u64(root);
    h.mix_u64(p);
  }
  for (const auto& s : tree_q_) {
    h.mix_u64(s.root);
    h.mix_u64(s.hops);
  }
  promised_.digest(h);
  h.mix_bool(accepted_.has_value());
  if (accepted_) accepted_->digest(h);
  h.mix_u8(static_cast<std::uint8_t>(pphase_));
  current_.digest(h);
  h.mix_i64(prop_value_);
  h.mix_u64(yes_);
  h.mix_u64(no_);
  h.mix_u64(max_tag_);
  h.mix_bool(decided_);
  h.mix_i64(decision_value_);
  h.mix_u64(response_q_.size());
  for (const auto& r : response_q_) {
    h.mix_u8(static_cast<std::uint8_t>(r.stage));
    r.pn.digest(h);
    h.mix_bool(r.positive);
    h.mix_u64(r.count);
  }
}

}  // namespace amac::core::wpaxos

#include "mac/reference_engine.hpp"

#include <algorithm>

namespace amac::mac {

/// Context implementation handed to a process during a callback.
class ReferenceNetwork::NodeContext final : public Context {
 public:
  NodeContext(ReferenceNetwork& net, NodeId node, InstanceId instance)
      : net_(&net), node_(node), instance_(instance) {}

  void broadcast(const util::Buffer& payload) override {
    net_->start_broadcast(node_, instance_, payload);
  }

  void decide(Value v) override {
    Instance& inst = net_->instances_[instance_];
    auto& st = inst.nodes[node_];
    AMAC_EXPECTS(!st.decision.decided);
    st.decision = Decision{true, v, net_->now_};
    AMAC_ENSURES(inst.undecided_alive > 0);
    if (--inst.undecided_alive == 0) net_->instance_decided_ = true;
    AMAC_ENSURES(net_->undecided_alive_ > 0);
    --net_->undecided_alive_;
  }

  [[nodiscard]] bool busy() const override {
    return net_->instances_[instance_].nodes[node_].busy;
  }

  [[nodiscard]] Time now() const override { return net_->now_; }

 private:
  ReferenceNetwork* net_;
  NodeId node_;
  InstanceId instance_;
};

ReferenceNetwork::ReferenceNetwork(const net::Graph& graph,
                                   const ProcessFactory& factory,
                                   Scheduler& scheduler,
                                   const net::Graph* unreliable_overlay)
    : graph_(&graph), overlay_(unreliable_overlay), scheduler_(&scheduler) {
  const std::size_t n = graph.node_count();
  if (overlay_ != nullptr) {
    AMAC_EXPECTS(overlay_->node_count() == n);
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : overlay_->neighbors(u)) {
        AMAC_EXPECTS(!graph.has_edge(u, v));
      }
    }
  }
  nodes_.resize(n);
  (void)add_instance(factory);
}

InstanceId ReferenceNetwork::add_instance(const ProcessFactory& factory) {
  AMAC_EXPECTS(!started_);
  const auto id = static_cast<InstanceId>(instances_.size());
  Instance inst;
  inst.nodes.resize(nodes_.size());
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    inst.nodes[u].process = factory(u);
    AMAC_ENSURES(inst.nodes[u].process != nullptr);
    ++inst.undecided_alive;
  }
  undecided_alive_ += inst.undecided_alive;
  instances_.push_back(std::move(inst));
  return id;
}

void ReferenceNetwork::push_event(RefEvent e) {
  events_.push(std::move(e));
  if (events_.size() > stats_.peak_events) {
    stats_.peak_events = events_.size();
  }
}

void ReferenceNetwork::schedule_crash(const CrashPlan& plan) {
  AMAC_EXPECTS(plan.node < nodes_.size());
  AMAC_EXPECTS(!started_);
  push_event(RefEvent{plan.when, RefEventKind::kCrash, next_seq_++, plan.node,
                      kNoNode, 0, nullptr});
}

void ReferenceNetwork::set_link_faults(const LinkFaultPlan& plan) {
  AMAC_EXPECTS(!started_);
  faults_ = plan;
}

const Decision& ReferenceNetwork::decision(NodeId u,
                                           InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].nodes[u].decision;
}

bool ReferenceNetwork::crashed(NodeId u) const {
  AMAC_EXPECTS(u < nodes_.size());
  return nodes_[u].crashed;
}

const InstanceStats& ReferenceNetwork::instance_stats(
    InstanceId instance) const {
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].stats;
}

Process& ReferenceNetwork::process(NodeId u, InstanceId instance) {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  return *instances_[instance].nodes[u].process;
}

const Process& ReferenceNetwork::process(NodeId u,
                                         InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  return *instances_[instance].nodes[u].process;
}

bool ReferenceNetwork::all_alive_decided() const {
  return undecided_alive_ == 0;
}

bool ReferenceNetwork::instance_all_decided(InstanceId instance) const {
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].undecided_alive == 0;
}

std::size_t ReferenceNetwork::in_flight_from(NodeId sender) const {
  AMAC_EXPECTS(sender < nodes_.size());
  std::size_t count = 0;
  for (const auto& [id, flight] : flights_) {
    if (flight.sender == sender && flight.instance == 0) {
      count += flight.pending.size();
    }
  }
  return count;
}

void ReferenceNetwork::start_broadcast(NodeId u, InstanceId instance,
                                       const util::Buffer& payload) {
  if (nodes_[u].crashed) return;
  Instance& inst = instances_[instance];
  auto& st = inst.nodes[u];
  if (st.busy) {
    ++stats_.dropped_busy;
    ++inst.stats.dropped_busy;
    return;
  }
  st.busy = true;
  const std::uint64_t id = next_broadcast_id_++;
  st.current_broadcast = id;
  ++stats_.broadcasts;
  ++inst.stats.broadcasts;
  stats_.payload_bytes += payload.size();
  stats_.max_payload_bytes = std::max(stats_.max_payload_bytes,
                                      payload.size());
  inst.stats.payload_bytes += payload.size();
  inst.stats.max_payload_bytes = std::max(inst.stats.max_payload_bytes,
                                          payload.size());

  const auto& neighbors = graph_->neighbors(u);
  // Faithful to the original engine: one schedule allocation per broadcast.
  // (The schedule is SoA now, but this engine still walks it entry by entry
  // in emission order — identical event sequence, no fast paths.)
  BroadcastSchedule sched;
  scheduler_->schedule(u, now_, neighbors, sched);
  AMAC_ENSURES(sched.ack_delay >= 1);
  AMAC_ENSURES(sched.size() == neighbors.size());

  auto shared = std::make_shared<const util::Buffer>(payload);
  Flight flight;
  flight.sender = u;
  flight.payload = shared;
  flight.instance = instance;
  Time ack_at = now_ + sched.ack_delay;
  if (faults_.empty()) {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const NodeId v = sched.receivers[i];
      const Time delay = sched.delay(i);
      AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
      AMAC_ENSURES(graph_->has_edge(u, v));
      push_event(RefEvent{now_ + delay, RefEventKind::kDeliver, next_seq_++, v,
                          u, id, shared, instance, /*reliable=*/true});
      flight.pending.push_back(v);
      ++flight.undrained_events;
    }
  } else {
    // Identical fault partition and canonical emission order to the
    // calendar engine (kept at original ticks, then deferred, then
    // duplicates, index order within each group): the decisions are pure
    // hashes of the same inputs, so the two engines stay bit-identical.
    std::vector<LinkFaultDecision> decisions;
    decisions.reserve(sched.size());
    Time latest = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Time arrival = now_ + sched.delay(i);
      const LinkFaultDecision d =
          faults_.decide(id, u, sched.receivers[i], arrival);
      decisions.push_back(d);
      if (!d.deliver) {
        ++stats_.drops;
        ++inst.stats.drops;
        continue;
      }
      if (d.deliver_at != arrival) {
        ++stats_.drops;  // lost, retransmitted
        ++inst.stats.drops;
      }
      latest = std::max(latest, d.deliver_at);
      if (d.duplicate) {
        ++stats_.duplicates;
        ++inst.stats.duplicates;
        latest = std::max(latest, d.duplicate_at);
      }
    }
    ack_at = std::max(ack_at, latest);
    const auto emit = [&](NodeId v, Time t) {
      AMAC_ENSURES(graph_->has_edge(u, v));
      push_event(RefEvent{t, RefEventKind::kDeliver, next_seq_++, v, u, id,
                          shared, instance, /*reliable=*/true});
      flight.pending.push_back(v);
      ++flight.undrained_events;
    };
    for (std::size_t i = 0; i < sched.size(); ++i) {  // kept copies
      const LinkFaultDecision& d = decisions[i];
      if (!d.deliver || d.deliver_at != now_ + sched.delay(i)) continue;
      emit(sched.receivers[i], d.deliver_at);
    }
    for (std::size_t i = 0; i < sched.size(); ++i) {  // deferred copies
      const LinkFaultDecision& d = decisions[i];
      if (!d.deliver || d.deliver_at == now_ + sched.delay(i)) continue;
      emit(sched.receivers[i], d.deliver_at);
    }
    for (std::size_t i = 0; i < sched.size(); ++i) {  // duplicates
      const LinkFaultDecision& d = decisions[i];
      if (!d.deliver || !d.duplicate) continue;
      emit(sched.receivers[i], d.duplicate_at);
    }
  }
  if (overlay_ != nullptr && !overlay_->neighbors(u).empty()) {
    std::vector<std::pair<NodeId, Time>> best_effort;
    scheduler_->schedule_unreliable(u, now_, overlay_->neighbors(u),
                                    sched.ack_delay, best_effort);
    for (const auto& [v, delay] : best_effort) {
      AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
      AMAC_ENSURES(overlay_->has_edge(u, v));
      push_event(RefEvent{now_ + delay, RefEventKind::kDeliver, next_seq_++,
                          v, u, id, shared, instance, /*reliable=*/false});
      flight.pending.push_back(v);
      ++flight.undrained_events;
    }
  }
  // An all-dropped fan-out leaves no deliver event to drain the flight;
  // skip the table entry (the calendar engine acquires no flight slot
  // either).
  if (faults_.empty() || flight.undrained_events > 0) {
    flights_.emplace(id, std::move(flight));
  }
  push_event(RefEvent{ack_at, RefEventKind::kAck, next_seq_++,
                      u, kNoNode, id, nullptr, instance});
}

void ReferenceNetwork::trace_event(const RefEvent& e) {
  trace_hasher_.mix_u64(e.t);
  trace_hasher_.mix_u8(static_cast<std::uint8_t>(e.kind));
  trace_hasher_.mix_u64(e.seq);
  trace_hasher_.mix_u64(e.node);
  trace_hasher_.mix_u64(e.sender);
  trace_hasher_.mix_u64(e.broadcast_id);
  if (e.kind == RefEventKind::kDeliver) {
    trace_hasher_.mix_bytes(*e.payload);
    trace_hasher_.mix_bool(e.reliable);
  }
}

void ReferenceNetwork::process_event(const RefEvent& e) {
  switch (e.kind) {
    case RefEventKind::kCrash: {
      auto& st = nodes_[e.node];
      if (st.crashed) return;
      st.crashed = true;
      st.crash_time = now_;
      for (Instance& inst : instances_) {
        if (inst.nodes[e.node].decision.decided) continue;
        AMAC_ENSURES(inst.undecided_alive > 0);
        if (--inst.undecided_alive == 0) instance_decided_ = true;
        AMAC_ENSURES(undecided_alive_ > 0);
        --undecided_alive_;
      }
      return;
    }
    case RefEventKind::kDeliver: {
      auto flight_it = flights_.find(e.broadcast_id);
      AMAC_ENSURES(flight_it != flights_.end());
      Flight& flight = flight_it->second;
      AMAC_ENSURES(flight.instance == e.instance);
      auto& pending = flight.pending;
      pending.erase(std::find(pending.begin(), pending.end(), e.node));
      const bool drained = --flight.undrained_events == 0;

      const auto& sender_st = nodes_[e.sender];
      const bool cancelled =
          sender_st.crashed && sender_st.crash_time < e.t;
      Instance& inst = instances_[e.instance];
      if (!cancelled && !nodes_[e.node].crashed) {
        ++stats_.deliveries;
        ++inst.stats.deliveries;
        NodeContext ctx(*this, e.node, e.instance);
        const Packet packet{e.sender, *e.payload, e.reliable};
        inst.nodes[e.node].process->on_receive(packet, ctx);
      }
      if (drained) flights_.erase(flight_it);
      return;
    }
    case RefEventKind::kAck: {
      if (nodes_[e.node].crashed) return;
      Instance& inst = instances_[e.instance];
      auto& st = inst.nodes[e.node];
      AMAC_ENSURES(st.busy && st.current_broadcast == e.broadcast_id);
      st.busy = false;
      ++stats_.acks;
      ++inst.stats.acks;
      NodeContext ctx(*this, e.node, e.instance);
      st.process->on_ack(ctx);
      return;
    }
  }
}

RunResult ReferenceNetwork::run(StopWhen until, Time max_time) {
  if (!started_) {
    started_ = true;
    // Instance-major start order, matching Network::run.
    for (InstanceId i = 0; i < instances_.size(); ++i) {
      for (NodeId u = 0; u < nodes_.size(); ++u) {
        NodeContext ctx(*this, u, i);
        instances_[i].nodes[u].process->on_start(ctx);
      }
    }
  }

  const auto condition_met = [&] {
    return until == StopWhen::kAllDecided && all_alive_decided();
  };
  const auto finish = [&](bool met) {
    if (met) instance_decided_ = false;  // reported (see StopWhen)
    return RunResult{met, now_};
  };

  while (!events_.empty()) {
    if (condition_met()) return finish(true);
    const RefEvent e = events_.top();
    if (e.t > max_time) return finish(condition_met());
    events_.pop();
    AMAC_ENSURES(e.t >= now_);
    now_ = e.t;
    if (trace_enabled_) trace_event(e);
    process_event(e);
    if (post_event_hook_) post_event_hook_(*this);
    if (until == StopWhen::kInstanceDecided && instance_decided_) {
      return finish(true);
    }
  }
  // Queue drained: quiescent.
  return finish(until != StopWhen::kAllDecided || all_alive_decided());
}

}  // namespace amac::mac

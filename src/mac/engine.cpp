#include "mac/engine.hpp"

#include <algorithm>

namespace amac::mac {

/// Context implementation handed to a process during a callback.
class Network::NodeContext final : public Context {
 public:
  NodeContext(Network& net, NodeId node, InstanceId instance)
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
    --inst.undecided_alive;
    AMAC_ENSURES(net_->undecided_alive_ > 0);
    --net_->undecided_alive_;
  }

  [[nodiscard]] bool busy() const override {
    return net_->instances_[instance_].nodes[node_].busy;
  }

  [[nodiscard]] Time now() const override { return net_->now_; }

 private:
  Network* net_;
  NodeId node_;
  InstanceId instance_;
};

Network::Network(const net::Graph& graph, const ProcessFactory& factory,
                 Scheduler& scheduler, const net::Graph* unreliable_overlay)
    : graph_(&graph), overlay_(unreliable_overlay), scheduler_(&scheduler),
      events_(scheduler.fack()) {
  const std::size_t n = graph.node_count();
  if (overlay_ != nullptr) {
    AMAC_EXPECTS(overlay_->node_count() == n);
    // The two edge sets must be disjoint: an edge is either guaranteed or
    // best-effort, never both.
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : overlay_->neighbors(u)) {
        AMAC_EXPECTS(!graph.has_edge(u, v));
      }
    }
  }
  nodes_.resize(n);
  (void)add_instance(factory);
}

InstanceId Network::add_instance(const ProcessFactory& factory) {
  const auto id = static_cast<InstanceId>(instances_.size());
  Instance inst;
  inst.nodes.resize(nodes_.size());
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    if (nodes_[u].crashed) continue;  // mid-run launch: the dead stay dead
    inst.nodes[u].process = factory(u);
    AMAC_ENSURES(inst.nodes[u].process != nullptr);
    ++inst.undecided_alive;
  }
  undecided_alive_ += inst.undecided_alive;
  instances_.push_back(std::move(inst));
  if (started_) {
    // Launched mid-run (e.g. a pipelined log slot): start callbacks fire
    // now, at the current tick — local computation takes zero time.
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      if (instances_[id].nodes[u].process == nullptr) continue;
      NodeContext ctx(*this, u, id);
      instances_[id].nodes[u].process->on_start(ctx);
    }
  }
  return id;
}

void Network::retire_instance(InstanceId instance) {
  AMAC_EXPECTS(instance < instances_.size());
  Instance& inst = instances_[instance];
  if (inst.retired) return;
  inst.retired = true;
  for (auto& node : inst.nodes) node.process.reset();
  AMAC_ENSURES(undecided_alive_ >= inst.undecided_alive);
  undecided_alive_ -= inst.undecided_alive;
  inst.undecided_alive = 0;
}

void Network::schedule_crash(const CrashPlan& plan) {
  AMAC_EXPECTS(plan.node < nodes_.size());
  AMAC_EXPECTS(!started_);
  Event e;
  e.t = plan.when;
  e.kind = EventKind::kCrash;
  e.seq = next_seq_++;
  e.node = plan.node;
  events_.push(e);
}

void Network::set_link_faults(const LinkFaultPlan& plan) {
  AMAC_EXPECTS(!started_);
  faults_ = plan;
}

void Network::reset(const ProcessFactory& factory) {
  for (Instance& inst : instances_) {
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      auto& st = inst.nodes[u];
      if (st.flight_slot != kNoFlight) {
        // Abandon the in-flight broadcast: release its payload slot and
        // keep the flight record (capacity included) on the free list.
        Flight& flight = flights_[st.flight_slot];
        pool_.release(flight.payload_slot);
        flight.pending.clear();
        flight.undrained_events = 0;
        st.flight_slot = kNoFlight;
      }
    }
  }
  for (auto& st : nodes_) {
    st.crashed = false;
    st.crash_time = kForever;
  }
  instances_.clear();
  undecided_alive_ = 0;
  free_flights_.clear();
  for (std::uint32_t slot = 0; slot < flights_.size(); ++slot) {
    free_flights_.push_back(slot);
  }
  events_.clear();
  next_seq_ = 0;
  next_broadcast_id_ = 1;
  now_ = 0;
  stats_ = EngineStats{};
  started_ = false;
  trace_hasher_ = util::Hasher{};
  (void)add_instance(factory);
}

const Decision& Network::decision(NodeId u, InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].nodes[u].decision;
}

bool Network::crashed(NodeId u) const {
  AMAC_EXPECTS(u < nodes_.size());
  return nodes_[u].crashed;
}

const InstanceStats& Network::instance_stats(InstanceId instance) const {
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].stats;
}

Process& Network::process(NodeId u, InstanceId instance) {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  AMAC_EXPECTS(instances_[instance].nodes[u].process != nullptr);
  return *instances_[instance].nodes[u].process;
}

const Process& Network::process(NodeId u, InstanceId instance) const {
  AMAC_EXPECTS(u < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  AMAC_EXPECTS(instances_[instance].nodes[u].process != nullptr);
  return *instances_[instance].nodes[u].process;
}

bool Network::all_alive_decided() const { return undecided_alive_ == 0; }

bool Network::instance_all_decided(InstanceId instance) const {
  AMAC_EXPECTS(instance < instances_.size());
  return instances_[instance].undecided_alive == 0;
}

std::size_t Network::in_flight_from(NodeId sender,
                                    InstanceId instance) const {
  AMAC_EXPECTS(sender < nodes_.size());
  AMAC_EXPECTS(instance < instances_.size());
  const std::uint32_t slot = instances_[instance].nodes[sender].flight_slot;
  if (slot == kNoFlight) return 0;
  // Live (non-tombstoned) pending entries; tracks pending occupancy exactly
  // because each entry is retired by exactly one popped deliver event.
  return flights_[slot].undrained_events;
}

void Network::for_each_in_flight(
    const std::function<void(NodeId, NodeId, const util::Buffer&)>& fn) const {
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    // A crashed sender's undelivered copies will never arrive; they are no
    // longer "in flight" for accounting purposes.
    if (nodes_[u].crashed) continue;
    for (const Instance& inst : instances_) {
      const std::uint32_t slot = inst.nodes[u].flight_slot;
      if (slot == kNoFlight) continue;
      const Flight& flight = flights_[slot];
      const util::Buffer& payload = pool_.at(flight.payload_slot);
      for (const NodeId receiver : flight.pending) {
        if (receiver == kNoNode) continue;  // tombstone: already delivered
        fn(u, receiver, payload);
      }
    }
  }
}

void Network::release_flight(std::uint32_t slot) {
  Flight& flight = flights_[slot];
  AMAC_ENSURES(flight.undrained_events == 0);
  flight.pending.clear();  // all tombstones by now; capacity is recycled
  Instance& inst = instances_[flight.instance];
  AMAC_ENSURES(inst.stats.live_pool_slots > 0);
  --inst.stats.live_pool_slots;
  inst.stats.live_pool_bytes -= pool_.at(flight.payload_slot).size();
  pool_.release(flight.payload_slot);
  AMAC_ENSURES(inst.nodes[flight.sender].flight_slot == slot);
  inst.nodes[flight.sender].flight_slot = kNoFlight;
  free_flights_.push_back(slot);
}

void Network::start_broadcast(NodeId u, InstanceId instance,
                              const util::Buffer& payload) {
  if (nodes_[u].crashed) return;
  Instance& inst = instances_[instance];
  auto& st = inst.nodes[u];
  if (st.busy) {
    // Model rule: extra broadcasts while one is outstanding are discarded.
    // Busy is per (node, instance): each instance has its own logical MAC
    // channel, so instance A's outstanding broadcast never discards B's.
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
  BroadcastSchedule& sched = schedule_scratch_;
  scheduler_->schedule(u, now_, neighbors, sched);
  AMAC_ENSURES(sched.ack_delay >= 1);
  AMAC_ENSURES(sched.size() == neighbors.size());

  auto& best_effort = unreliable_scratch_;
  best_effort.clear();
  if (overlay_ != nullptr && !overlay_->neighbors(u).empty()) {
    scheduler_->schedule_unreliable(u, now_, overlay_->neighbors(u),
                                    sched.ack_delay, best_effort);
  }

  const std::size_t fanout = sched.size();
  Time ack_at = now_ + sched.ack_delay;

  // Link-fault partition (design doc: "Unreliable links"). Every reliable
  // copy gets a pure hash verdict; dropped copies consume no seq, deferred
  // copies and duplicates stretch the ack so receives still precede it.
  // The plan never touches the best-effort overlay — those edges carry no
  // delivery guarantee to break.
  const bool faulted = !faults_.empty() && fanout > 0;
  std::size_t emitted = fanout;  // reliable copies that will be scheduled
  if (faulted) {
    fault_scratch_.clear();
    emitted = 0;
    Time latest = 0;
    for (std::size_t i = 0; i < fanout; ++i) {
      const Time arrival = now_ + sched.delay(i);
      const LinkFaultDecision d =
          faults_.decide(id, u, sched.receivers[i], arrival);
      fault_scratch_.push_back(d);
      if (!d.deliver) {
        ++stats_.drops;
        ++inst.stats.drops;
        continue;
      }
      ++emitted;
      if (d.deliver_at != arrival) {
        ++stats_.drops;  // lost, retransmitted
        ++inst.stats.drops;
      }
      latest = std::max(latest, d.deliver_at);
      if (d.duplicate) {
        ++emitted;
        ++stats_.duplicates;
        ++inst.stats.duplicates;
        latest = std::max(latest, d.duplicate_at);
      }
    }
    ack_at = std::max(ack_at, latest);
  }

  if (emitted + best_effort.size() > 0) {
    // Acquire a flight slot + pooled payload only when someone will hear
    // the broadcast; pending/lane capacity is recycled across broadcasts.
    // (An all-dropped fan-out must not acquire one: with no deliver events
    // left to drain it, the flight would leak.)
    std::uint32_t slot;
    if (!free_flights_.empty()) {
      slot = free_flights_.back();
      free_flights_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(flights_.size());
      flights_.emplace_back();
    }
    Flight& flight = flights_[slot];
    flight.sender = u;
    flight.payload_slot = pool_.acquire(payload);
    flight.id = id;
    flight.instance = instance;
    // Deliver events take consecutive seqs from here in pending-append
    // order (drops take none; the ack's seq comes after every copy's), so
    // the event popped later finds its slot at e.seq - first_seq.
    flight.first_seq = next_seq_;
    AMAC_ENSURES(flight.pending.empty() && flight.undrained_events == 0);
    st.flight_slot = slot;
    ++inst.stats.live_pool_slots;
    inst.stats.peak_pool_slots = std::max(inst.stats.peak_pool_slots,
                                          inst.stats.live_pool_slots);
    inst.stats.live_pool_bytes += payload.size();
    inst.stats.peak_pool_bytes = std::max(inst.stats.peak_pool_bytes,
                                          inst.stats.live_pool_bytes);

    Event e;
    e.kind = EventKind::kDeliver;
    e.broadcast_id = id;
    e.flight_slot = slot;
    e.sender = u;
    e.instance = instance;
    e.reliable = true;
#if AMAC_CHECK
    for (std::size_t i = 0; i < fanout; ++i) {
      AMAC_CHECK_ENSURES(graph_->has_edge(u, sched.receivers[i]));
    }
#endif
    if (!faulted) {
      if (sched.uniform && fanout > 0) {
        // Dense fast path: one tick for the whole fan-out, so the pending
        // list is a bulk copy and the wheel bucket is reserved once.
        AMAC_ENSURES(sched.uniform_delay >= 1 &&
                     sched.uniform_delay <= sched.ack_delay);
        e.t = now_ + sched.uniform_delay;
        flight.pending.assign(sched.receivers.begin(), sched.receivers.end());
        flight.undrained_events += fanout;
        if (Event* span = events_.push_batch(e.t, e.kind, fanout)) {
          for (std::size_t i = 0; i < fanout; ++i) {
            e.seq = next_seq_++;
            e.node = sched.receivers[i];
            span[i] = e;
          }
        } else {
          for (std::size_t i = 0; i < fanout; ++i) {  // beyond wheel
            e.seq = next_seq_++;
            e.node = sched.receivers[i];
            events_.push(e);
          }
        }
      } else {
        for (std::size_t i = 0; i < fanout; ++i) {
          const Time delay = sched.delays[i];
          AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
          e.t = now_ + delay;
          e.seq = next_seq_++;
          e.node = sched.receivers[i];
          events_.push(e);
          flight.pending.push_back(sched.receivers[i]);
          ++flight.undrained_events;
        }
      }
    } else {
      // Canonical faulted emission order (shared with ReferenceNetwork):
      // kept copies at their original ticks, then deferred copies, then
      // duplicates — schedule index order within each group.
      const auto emit = [&](NodeId v, Time t) {
        e.t = t;
        e.seq = next_seq_++;
        e.node = v;
        events_.push(e);
        flight.pending.push_back(v);
        ++flight.undrained_events;
      };
      if (sched.uniform) {
        // The batch reservation shrinks to the kept subset: only affected
        // receivers fall off the dense path.
        const Time uniform_t = now_ + sched.uniform_delay;
        std::size_t kept = 0;
        for (const LinkFaultDecision& d : fault_scratch_) {
          if (d.deliver && d.deliver_at == uniform_t) ++kept;
        }
        if (kept > 0) {
          e.t = uniform_t;
          Event* span = events_.push_batch(e.t, e.kind, kept);
          std::size_t filled = 0;
          for (std::size_t i = 0; i < fanout; ++i) {
            const LinkFaultDecision& d = fault_scratch_[i];
            if (!d.deliver || d.deliver_at != uniform_t) continue;
            if (span != nullptr) {
              e.seq = next_seq_++;
              e.node = sched.receivers[i];
              span[filled++] = e;
              flight.pending.push_back(e.node);
              ++flight.undrained_events;
            } else {
              emit(sched.receivers[i], uniform_t);
            }
          }
        }
      } else {
        for (std::size_t i = 0; i < fanout; ++i) {
          const LinkFaultDecision& d = fault_scratch_[i];
          if (!d.deliver || d.deliver_at != now_ + sched.delays[i]) continue;
          emit(sched.receivers[i], d.deliver_at);
        }
      }
      for (std::size_t i = 0; i < fanout; ++i) {  // deferred copies
        const LinkFaultDecision& d = fault_scratch_[i];
        if (!d.deliver || d.deliver_at == now_ + sched.delay(i)) continue;
        emit(sched.receivers[i], d.deliver_at);
      }
      for (std::size_t i = 0; i < fanout; ++i) {  // duplicates
        const LinkFaultDecision& d = fault_scratch_[i];
        if (!d.deliver || !d.duplicate) continue;
        emit(sched.receivers[i], d.duplicate_at);
      }
    }
    e.reliable = false;
    for (const auto& [v, delay] : best_effort) {
      AMAC_ENSURES(delay >= 1 && delay <= sched.ack_delay);
      AMAC_CHECK_ENSURES(overlay_->has_edge(u, v));
      e.t = now_ + delay;
      e.seq = next_seq_++;
      e.node = v;
      events_.push(e);
      flight.pending.push_back(v);
      ++flight.undrained_events;
    }
  }

  Event ack;
  ack.t = ack_at;
  ack.kind = EventKind::kAck;
  ack.seq = next_seq_++;
  ack.node = u;
  ack.broadcast_id = id;
  ack.instance = instance;
  events_.push(ack);
}

void Network::trace_event(const Event& e) {
  // Event::instance is deliberately NOT mixed (see enable_trace_digest):
  // single-instance digests must match the pre-instance engine bit for bit.
  trace_hasher_.mix_u64(e.t);
  trace_hasher_.mix_u8(static_cast<std::uint8_t>(e.kind));
  trace_hasher_.mix_u64(e.seq);
  trace_hasher_.mix_u64(e.node);
  trace_hasher_.mix_u64(e.sender);
  trace_hasher_.mix_u64(e.broadcast_id);
  if (e.kind == EventKind::kDeliver) {
    trace_hasher_.mix_bytes(pool_.at(flights_[e.flight_slot].payload_slot));
    trace_hasher_.mix_bool(e.reliable);
  }
}

void Network::process_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kCrash: {
      auto& st = nodes_[e.node];
      if (st.crashed) return;
      st.crashed = true;
      st.crash_time = now_;
      if (in_flight_from(e.node, 0) > 0) ++stats_.mid_flight_crashes;
      // A crash is node-level: the node leaves every live instance's
      // undecided set at once (retired instances already left the count).
      for (Instance& inst : instances_) {
        if (inst.retired || inst.nodes[e.node].decision.decided) continue;
        AMAC_ENSURES(inst.undecided_alive > 0);
        --inst.undecided_alive;
        AMAC_ENSURES(undecided_alive_ > 0);
        --undecided_alive_;
      }
      return;
    }
    case EventKind::kDeliver: {
      const std::uint32_t slot = e.flight_slot;
      // The flight strictly outlives its deliver events, so the slot is
      // live here; but the callback below may broadcast and grow flights_,
      // so no Flight reference is held across it.
      std::uint32_t payload_slot;
      bool drained;
      {
        Flight& flight = flights_[slot];
        AMAC_ENSURES(flight.id == e.broadcast_id);
        AMAC_ENSURES(flight.instance == e.instance);
        // O(1) retire: the seq-derived slot (see Flight) is tombstoned in
        // place — erase-by-find here made clique rounds O(n^3) overall.
        const auto idx = static_cast<std::size_t>(e.seq - flight.first_seq);
        AMAC_ENSURES(idx < flight.pending.size() &&
                     flight.pending[idx] == e.node);
        flight.pending[idx] = kNoNode;
        drained = --flight.undrained_events == 0;
        payload_slot = flight.payload_slot;
      }

      const auto& sender_st = nodes_[e.sender];
      // Cancelled if the sender crashed strictly before this delivery: the
      // non-atomic broadcast reached only the earlier-scheduled neighbors.
      const bool cancelled =
          sender_st.crashed && sender_st.crash_time < e.t;
      Instance& inst = instances_[e.instance];
      // A retired instance's events are pure bookkeeping: the flight still
      // drains (releasing its pool slot) but no callback or counter runs.
      Process* const process = inst.nodes[e.node].process.get();
      if (!cancelled && !nodes_[e.node].crashed && process != nullptr) {
        ++stats_.deliveries;
        ++inst.stats.deliveries;
        NodeContext ctx(*this, e.node, e.instance);
        const Packet packet{e.sender, pool_.at(payload_slot), e.reliable};
        process->on_receive(packet, ctx);
      }
      if (drained) release_flight(slot);
      return;
    }
    case EventKind::kAck: {
      if (nodes_[e.node].crashed) return;
      Instance& inst = instances_[e.instance];
      auto& st = inst.nodes[e.node];
      AMAC_ENSURES(st.busy && st.current_broadcast == e.broadcast_id);
      st.busy = false;
      if (st.process == nullptr) return;  // retired mid-flight
      ++stats_.acks;
      ++inst.stats.acks;
      NodeContext ctx(*this, e.node, e.instance);
      st.process->on_ack(ctx);
      return;
    }
  }
}

RunResult Network::run(StopWhen until, Time max_time) {
  if (!started_) {
    started_ = true;
    // Instance-major start order (matched by ReferenceNetwork): every
    // pre-run instance starts its nodes 0..n-1 before the next instance.
    for (InstanceId i = 0; i < instances_.size(); ++i) {
      for (NodeId u = 0; u < nodes_.size(); ++u) {
        if (instances_[i].nodes[u].process == nullptr) continue;
        NodeContext ctx(*this, u, i);
        instances_[i].nodes[u].process->on_start(ctx);
      }
    }
  }

  const auto condition_met = [&] {
    return until == StopWhen::kAllDecided && all_alive_decided();
  };
  const auto finish = [&](bool met) {
    stats_.peak_events = events_.peak_size();
    stats_.wheel_pushes = events_.wheel_pushes();
    stats_.overflow_pushes = events_.overflow_pushes();
    stats_.wheel_resizes = events_.resizes();
    stats_.batch_pushes = events_.batch_reservations();
    stats_.wheel_span = static_cast<std::size_t>(events_.span());
    return RunResult{met, now_};
  };

  while (!events_.empty()) {
    if (condition_met()) return finish(true);
    if (events_.next_time() > max_time) return finish(condition_met());
    const Event e = events_.pop();
    AMAC_ENSURES(e.t >= now_);
    now_ = e.t;
    if (trace_enabled_) trace_event(e);
    process_event(e);
    if (post_event_hook_) post_event_hook_(*this);
  }
  // Queue drained: quiescent.
  const bool met = until == StopWhen::kQuiescent || all_alive_decided();
  return finish(met);
}

}  // namespace amac::mac

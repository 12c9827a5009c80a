// Shared test fixtures: a probe process that records everything it
// observes, and a digest of a network's engine-level observables.
#pragma once

#include <vector>

#include "mac/engine.hpp"
#include "mac/process.hpp"
#include "util/hash.hpp"

namespace amac::testutil {

/// Broadcasts `num_broadcasts` one-byte messages (payload = sequence
/// number), pacing on acks, then optionally decides. Records receive and
/// ack events with timestamps for assertions.
class ProbeProcess final : public mac::Process {
 public:
  struct ReceiveEvent {
    mac::Time time;
    NodeId sender;
    std::uint8_t seq;
  };

  ProbeProcess(NodeId id, std::size_t num_broadcasts,
               bool decide_when_done = false, bool double_broadcast = false)
      : id_(id), num_broadcasts_(num_broadcasts),
        decide_when_done_(decide_when_done),
        double_broadcast_(double_broadcast) {}

  void on_start(mac::Context& ctx) override {
    send_next(ctx);
    if (double_broadcast_) send_next(ctx);  // second must be discarded
  }

  void on_receive(const mac::Packet& packet, mac::Context& ctx) override {
    receives.push_back(ReceiveEvent{ctx.now(), packet.sender,
                                    packet.payload.empty()
                                        ? std::uint8_t{0xFF}
                                        : packet.payload[0]});
    order.push_back('r');
  }

  void on_ack(mac::Context& ctx) override {
    acks.push_back(ctx.now());
    order.push_back('a');
    if (sent_ < num_broadcasts_) {
      send_next(ctx);
    } else if (decide_when_done_ && !decided_) {
      decided_ = true;
      ctx.decide(0);
    }
  }

  [[nodiscard]] std::unique_ptr<mac::Process> clone() const override {
    return std::make_unique<ProbeProcess>(*this);
  }

  void digest(util::Hasher& h) const override {
    h.mix_u64(id_);
    h.mix_u64(sent_);
    h.mix_u64(receives.size());
    for (const auto& r : receives) {
      h.mix_u64(r.sender);
      h.mix_u8(r.seq);
    }
  }

  std::vector<ReceiveEvent> receives;
  std::vector<mac::Time> acks;
  std::vector<char> order;  ///< callback order: 'r' receive, 'a' ack

 private:
  void send_next(mac::Context& ctx) {
    util::Buffer payload{static_cast<std::uint8_t>(sent_)};
    ++sent_;
    ctx.broadcast(std::move(payload));
  }

  NodeId id_;
  std::size_t num_broadcasts_;
  bool decide_when_done_;
  bool double_broadcast_;
  std::size_t sent_ = 0;
  bool decided_ = false;
};

inline mac::ProcessFactory probe_factory(std::size_t num_broadcasts,
                                         bool decide_when_done = false,
                                         bool double_broadcast = false) {
  return [=](NodeId u) {
    return std::make_unique<ProbeProcess>(u, num_broadcasts, decide_when_done,
                                          double_broadcast);
  };
}

inline const ProbeProcess& probe_at(const mac::Network& net, NodeId u) {
  const auto* p = dynamic_cast<const ProbeProcess*>(&net.process(u));
  AMAC_ASSERT(p != nullptr);
  return *p;
}

/// Every engine-level observable of a network between runs: each
/// EngineStats field, each instance's InstanceStats and in-flight counts,
/// the payload-pool counters, and the copies still in flight.
inline std::uint64_t engine_digest(const mac::Network& net) {
  util::Hasher h;
  const mac::EngineStats& es = net.stats();
  for (const std::uint64_t v :
       {es.broadcasts, es.dropped_busy, es.deliveries, es.acks,
        es.payload_bytes, std::uint64_t{es.max_payload_bytes},
        std::uint64_t{es.peak_events}, es.wheel_pushes, es.overflow_pushes,
        es.wheel_resizes, es.batch_pushes, std::uint64_t{es.wheel_span},
        es.mid_flight_crashes, es.drops, es.duplicates}) {
    h.mix_u64(v);
  }
  for (mac::InstanceId i = 0; i < net.instance_count(); ++i) {
    const mac::InstanceStats& is = net.instance_stats(i);
    for (const std::uint64_t v :
         {is.broadcasts, is.dropped_busy, is.deliveries, is.acks,
          is.payload_bytes, std::uint64_t{is.max_payload_bytes}, is.drops,
          is.duplicates, std::uint64_t{is.live_pool_slots},
          std::uint64_t{is.peak_pool_slots}, std::uint64_t{is.live_pool_bytes},
          std::uint64_t{is.peak_pool_bytes}}) {
      h.mix_u64(v);
    }
    for (NodeId u = 0; u < net.node_count(); ++u) {
      h.mix_u64(net.in_flight_from(u, i));
    }
  }
  const mac::PayloadPool& pool = net.payload_pool();
  h.mix_u64(pool.slot_count());
  h.mix_u64(pool.live_count());
  h.mix_u64(pool.acquires());
  h.mix_u64(pool.reuses());
  net.for_each_flight([&h](const mac::Network::FlightView& flight) {
    for (const NodeId receiver : flight.pending) {
      if (receiver == kNoNode) continue;  // already delivered
      h.mix_u64(flight.sender);
      h.mix_u64(receiver);
      h.mix_bytes(flight.payload);
    }
  });
  return h.digest();
}

}  // namespace amac::testutil

// The engine's event record and its total ordering contract.
//
// Every simulator event is a plain trivially-copyable value: no owning
// pointers, no refcounts. Deliver events reference their payload through a
// flight slot index (see engine.hpp) whose lifetime strictly covers the
// event's, so copying an Event during queue maintenance costs a handful of
// register moves instead of shared_ptr traffic.
//
// Ordering contract (identical for every queue implementation): events pop
// in ascending (t, kind, seq) order. `kind` breaks same-tick ties so that
// all deliveries precede acks (the abstract MAC layer guarantee that every
// neighbor receives a message no later than the sender's ack) and crashes
// come last at their tick (deliveries at the crash tick still occur). `seq`
// is a global push counter giving FIFO order within (t, kind).
//
// Runs. A uniform fan-out's deliver copies share one (t, kDeliver) key and
// take consecutive seqs, so no other event can fall between them in
// (t, kind, seq) order. The queue therefore stores such a fan-out as ONE
// entry with `copies` > 1 standing for the copies with seqs
// [seq, seq + copies), all alike but for their receiver, which the engine
// reads from the flight at pop time. Popping a run peels its head copy;
// the order is the one the copies would pop in as separate events.
#pragma once

#include <cstdint>

#include "mac/types.hpp"

namespace amac::mac {

/// Sentinel for "no flight slot" (ack and crash events carry no payload).
inline constexpr std::uint32_t kNoFlight = static_cast<std::uint32_t>(-1);

enum class EventKind : std::uint8_t { kDeliver = 0, kAck = 1, kCrash = 2 };

struct Event {
  Time t = 0;
  std::uint64_t seq = 0;           ///< FIFO tie-break within (t, kind)
  std::uint64_t broadcast_id = 0;  ///< deliver/ack: which broadcast
  std::uint32_t flight_slot = kNoFlight;  ///< deliver only: payload home
  /// Sender (ack), crashee (crash), receiver (deliver; Network queues it
  /// unset and fills it in at pop time from the flight's pending list).
  NodeId node = kNoNode;
  NodeId sender = kNoNode;                ///< deliver only
  /// Deliver/ack: the protocol instance that issued the broadcast (stored,
  /// not derived — an ack must find its instance's busy flag without an
  /// O(instances) scan). Crash events are node-level and leave it 0.
  InstanceId instance = 0;
  /// Copies this entry stands for (see "Runs"): 1 for a single event. On
  /// an event returned by CalendarQueue::pop, the popped copy plus those
  /// of its run still queued behind it.
  std::uint32_t copies = 1;
  EventKind kind = EventKind::kDeliver;
  bool reliable = true;                   ///< deliver: edge class
};
// `copies` sits in what was padding: a run entry costs no more than the
// single event it replaces.
static_assert(sizeof(Event) == 48);

/// True when `a` must pop strictly after `b` (min-heap comparator).
[[nodiscard]] constexpr bool event_after(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t > b.t;
  if (a.kind != b.kind) return a.kind > b.kind;
  return a.seq > b.seq;
}

struct EventAfter {
  [[nodiscard]] constexpr bool operator()(const Event& a,
                                          const Event& b) const {
    return event_after(a, b);
  }
};

}  // namespace amac::mac

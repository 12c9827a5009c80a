// Layer spans recorded from outside the library: a Process wrapper that
// times every protocol callback, a Context wrapper that times the engine
// fan-out a callback triggers (so it is charged to mac, not to the
// protocol), and solo replays of one consensus instance on a fresh
// mac::Network. Spans stay in memory as running totals; nothing is
// written until the run ends.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mac/engine.hpp"
#include "mac/process.hpp"
#include "util/serde.hpp"

namespace amac::perfbench {

/// Running totals of the spans the wrappers record.
struct CallbackTally {
  std::uint64_t callbacks = 0;
  std::uint64_t callback_ns = 0;   ///< callback time minus nested broadcasts
  std::uint64_t broadcast_ns = 0;  ///< engine fan-out inside callbacks
  /// When non-null, received payloads are copied here (up to the cap) for
  /// the serde replay.
  std::vector<util::Buffer>* payloads = nullptr;
  std::size_t payload_cap = 0;
};

/// Wraps `inner` so every process it builds reports into `tally`.
mac::ProcessFactory timed_factory(mac::ProcessFactory inner,
                                  CallbackTally& tally);

/// One solo run of a consensus instance.
struct SoloRun {
  std::uint64_t run_ns = 0;  ///< wall time inside Network::run
  std::uint64_t events = 0;  ///< events the engine pushed (and popped)
};

/// How a solo run ends.
enum class SoloEnd {
  kAllDecided,  ///< stop once every live node decided (as fuzz runs do)
  /// Retire the instance once every live node decided and drain the queue,
  /// as ReplicatedLog does with each slot.
  kRetireAndDrain,
};

/// Builds a fresh Network over `graph`, lets `prepare` install crashes,
/// faults or holds, and times the run. `scheduler` must be fresh
/// (schedulers may carry RNG state). `inspect`, when given, sees the
/// network after the run (outside the timed span).
SoloRun run_solo(const net::Graph& graph, const mac::ProcessFactory& factory,
                 mac::Scheduler& scheduler,
                 const std::function<void(mac::Network&)>& prepare,
                 SoloEnd end, mac::Time horizon,
                 const std::function<void(const mac::Network&)>& inspect = {});

/// Mean duration of an empty span (two back-to-back clock reads): the
/// part of every recorded span that is tracing, not work.
double empty_span_ns();

/// Callback time with the empty-span cost of each span taken out.
double corrected_callback_ns(const CallbackTally& tally, double span_ns);

/// Events a finished network pushed through its queue. After a run that
/// ended quiescent every pushed event was also popped.
std::uint64_t events_pushed(const mac::EngineStats& stats);

/// Per-call cost of the public wPAXOS codec on captured payloads:
/// WireEnvelope::decode followed by encode. Returns mean ns per payload,
/// or a negative value if re-encoding changed the payloads' total size.
double wpaxos_roundtrip_ns(const std::vector<util::Buffer>& payloads);

}  // namespace amac::perfbench

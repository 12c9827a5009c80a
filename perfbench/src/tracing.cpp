#include "tracing.hpp"

#include "common.hpp"
#include "core/wpaxos/wpaxos.hpp"

namespace amac::perfbench {
namespace {

class TimedContext final : public mac::Context {
 public:
  TimedContext(mac::Context& inner, CallbackTally& tally)
      : inner_(inner), tally_(tally) {}

  void broadcast(const util::Buffer& payload) override {
    const auto t0 = Clock::now();
    inner_.broadcast(payload);
    tally_.broadcast_ns += ns_between(t0, Clock::now());
  }
  void decide(mac::Value v) override { inner_.decide(v); }
  [[nodiscard]] bool busy() const override { return inner_.busy(); }
  [[nodiscard]] mac::Time now() const override { return inner_.now(); }

 private:
  mac::Context& inner_;
  CallbackTally& tally_;
};

class TimedProcess final : public mac::Process {
 public:
  TimedProcess(std::unique_ptr<mac::Process> inner, CallbackTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  void on_start(mac::Context& ctx) override {
    timed(ctx, [&](mac::Context& c) { inner_->on_start(c); });
  }
  void on_receive(const mac::Packet& packet, mac::Context& ctx) override {
    if (tally_.payloads != nullptr &&
        tally_.payloads->size() < tally_.payload_cap) {
      tally_.payloads->push_back(packet.payload);
    }
    timed(ctx, [&](mac::Context& c) { inner_->on_receive(packet, c); });
  }
  void on_ack(mac::Context& ctx) override {
    timed(ctx, [&](mac::Context& c) { inner_->on_ack(c); });
  }
  [[nodiscard]] std::unique_ptr<mac::Process> clone() const override {
    return std::make_unique<TimedProcess>(inner_->clone(), tally_);
  }
  void digest(util::Hasher& h) const override { inner_->digest(h); }
  void protocol_stats(mac::ProtocolStats& out) const override {
    inner_->protocol_stats(out);
  }

 private:
  template <typename F>
  void timed(mac::Context& ctx, F&& call) {
    TimedContext wrapped(ctx, tally_);
    const std::uint64_t nested_before = tally_.broadcast_ns;
    const auto t0 = Clock::now();
    call(wrapped);
    const std::uint64_t span = ns_between(t0, Clock::now());
    const std::uint64_t nested = tally_.broadcast_ns - nested_before;
    tally_.callback_ns += span > nested ? span - nested : 0;
    ++tally_.callbacks;
  }

  std::unique_ptr<mac::Process> inner_;
  CallbackTally& tally_;
};

}  // namespace

mac::ProcessFactory timed_factory(mac::ProcessFactory inner,
                                  CallbackTally& tally) {
  return [inner = std::move(inner),
          &tally](NodeId u) -> std::unique_ptr<mac::Process> {
    return std::make_unique<TimedProcess>(inner(u), tally);
  };
}

SoloRun run_solo(const net::Graph& graph, const mac::ProcessFactory& factory,
                 mac::Scheduler& scheduler,
                 const std::function<void(mac::Network&)>& prepare,
                 SoloEnd end, mac::Time horizon,
                 const std::function<void(const mac::Network&)>& inspect) {
  mac::Network net(graph, factory, scheduler);
  if (prepare) prepare(net);
  bool retired = false;
  if (end == SoloEnd::kRetireAndDrain) {
    net.set_post_event_hook([&retired](mac::Network& n) {
      if (!retired && n.instance_all_decided(0)) {
        n.retire_instance(0);
        retired = true;
      }
    });
  }
  const auto t0 = Clock::now();
  (void)net.run(end == SoloEnd::kAllDecided ? mac::StopWhen::kAllDecided
                                            : mac::StopWhen::kQuiescent,
                horizon);
  SoloRun out;
  out.run_ns = ns_between(t0, Clock::now());
  out.events = events_pushed(net.stats());
  if (inspect) inspect(net);
  return out;
}

double empty_span_ns() {
  constexpr int kSpans = 100000;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::uint64_t total = 0;
    for (int i = 0; i < kSpans; ++i) {
      const auto t0 = Clock::now();
      total += ns_between(t0, Clock::now());
    }
    batches.push_back(static_cast<double>(total) / kSpans);
  }
  return median(batches);
}

double corrected_callback_ns(const CallbackTally& tally, double span_ns) {
  const double raw = static_cast<double>(tally.callback_ns) -
                     span_ns * static_cast<double>(tally.callbacks);
  return raw > 0 ? raw : 0;
}

std::uint64_t events_pushed(const mac::EngineStats& stats) {
  return stats.wheel_pushes + stats.overflow_pushes;
}

double wpaxos_roundtrip_ns(const std::vector<util::Buffer>& payloads) {
  if (payloads.empty()) return 0;
  std::uint64_t bytes = 0;
  const auto t0 = Clock::now();
  for (const util::Buffer& p : payloads) {
    const auto env = core::wpaxos::WireEnvelope::decode(p);
    bytes += env.encode().size();
  }
  const std::uint64_t ns = ns_between(t0, Clock::now());
  // The re-encoded bytes must equal the captured ones in total: a codec
  // that silently dropped fields would show here.
  std::uint64_t expect = 0;
  for (const util::Buffer& p : payloads) expect += p.size();
  if (bytes != expect) return -1;
  return static_cast<double>(ns) / static_cast<double>(payloads.size());
}

}  // namespace amac::perfbench

// Cross-cutting property tests: randomized round-trips and determinism
// guarantees that every experiment in the repository relies on.
#include <gtest/gtest.h>

#include "core/wpaxos/messages.hpp"
#include "harness/experiment.hpp"
#include "net/topologies.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace amac {
namespace {

TEST(Properties, SerdeFuzzRoundTrip) {
  // Random interleavings of every writer operation must read back exactly.
  util::Rng rng(20140506);
  for (int trial = 0; trial < 200; ++trial) {
    struct Op {
      int kind;
      std::uint64_t u;
      std::int64_t s;
      util::Buffer bytes;
    };
    std::vector<Op> ops;
    util::Writer w;
    const int count = 1 + static_cast<int>(rng.uniform(0, 30));
    for (int i = 0; i < count; ++i) {
      Op op;
      op.kind = static_cast<int>(rng.uniform(0, 3));
      switch (op.kind) {
        case 0:
          op.u = rng();
          w.put_uvarint(op.u);
          break;
        case 1:
          op.s = static_cast<std::int64_t>(rng());
          w.put_svarint(op.s);
          break;
        case 2:
          op.u = rng.uniform(0, 1);
          w.put_bool(op.u != 0);
          break;
        case 3: {
          const auto len = rng.uniform(0, 20);
          for (std::uint64_t b = 0; b < len; ++b) {
            op.bytes.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
          }
          w.put_bytes(op.bytes);
          break;
        }
      }
      ops.push_back(std::move(op));
    }
    util::Reader r(w.buffer());
    for (const auto& op : ops) {
      switch (op.kind) {
        case 0:
          EXPECT_EQ(r.get_uvarint(), op.u);
          break;
        case 1:
          EXPECT_EQ(r.get_svarint(), op.s);
          break;
        case 2:
          EXPECT_EQ(r.get_bool(), op.u != 0);
          break;
        case 3:
          EXPECT_EQ(r.get_bytes(), op.bytes);
          break;
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

/// A random envelope: each component present with probability 1/2, ids and
/// counts drawn over the full range so every varint width is exercised.
core::wpaxos::Envelope random_envelope(util::Rng& rng) {
  using namespace core::wpaxos;
  Envelope e;
  if (rng.chance(0.5)) e.leader = LeaderMsg{rng()};
  if (rng.chance(0.5)) e.change = ChangeMsg{rng(), rng()};
  if (rng.chance(0.5)) {
    e.search = SearchMsg{rng(), static_cast<std::uint32_t>(
                                    rng.uniform(0, 1u << 20))};
  }
  if (rng.chance(0.5)) {
    e.proposer = ProposerMsg{
        static_cast<ProposerMsg::Kind>(rng.uniform(0, 2)),
        {rng(), rng()},
        static_cast<mac::Value>(rng.uniform(0, 1u << 30))};
  }
  if (rng.chance(0.5)) {
    AcceptorResponse r;
    r.stage = static_cast<AcceptorResponse::Stage>(rng.uniform(0, 1));
    r.pn = {rng(), rng()};
    r.positive = rng.chance(0.5);
    r.count = rng.uniform(1, 1 << 20);
    if (rng.chance(0.5)) {
      r.prev = Proposal{{rng(), rng()},
                        static_cast<mac::Value>(rng.uniform(0, 1 << 30))};
    }
    r.max_committed = {rng(), rng()};
    r.dest = rng();
    e.response = r;
  }
  return e;
}

/// Field-by-field equality of two decoded envelopes.
void expect_same_envelope(const core::wpaxos::Envelope& a,
                          const core::wpaxos::Envelope& b) {
  ASSERT_EQ(a.leader.has_value(), b.leader.has_value());
  ASSERT_EQ(a.change.has_value(), b.change.has_value());
  ASSERT_EQ(a.search.has_value(), b.search.has_value());
  ASSERT_EQ(a.proposer.has_value(), b.proposer.has_value());
  ASSERT_EQ(a.response.has_value(), b.response.has_value());
  if (a.leader) {
    EXPECT_EQ(a.leader->leader_id, b.leader->leader_id);
  }
  if (a.change) {
    EXPECT_EQ(a.change->key(), b.change->key());
  }
  if (a.search) {
    EXPECT_EQ(a.search->root, b.search->root);
    EXPECT_EQ(a.search->hops, b.search->hops);
  }
  if (a.proposer) {
    EXPECT_EQ(a.proposer->kind, b.proposer->kind);
    EXPECT_EQ(a.proposer->pn, b.proposer->pn);
    EXPECT_EQ(a.proposer->value, b.proposer->value);
  }
  if (a.response) {
    EXPECT_EQ(a.response->stage, b.response->stage);
    EXPECT_EQ(a.response->pn, b.response->pn);
    EXPECT_EQ(a.response->positive, b.response->positive);
    EXPECT_EQ(a.response->count, b.response->count);
    EXPECT_EQ(a.response->prev, b.response->prev);
    EXPECT_EQ(a.response->max_committed, b.response->max_committed);
    EXPECT_EQ(a.response->dest, b.response->dest);
  }
}

TEST(Properties, EnvelopeFuzzRoundTrip) {
  using namespace core::wpaxos;
  util::Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    const Envelope e = random_envelope(rng);
    const auto back = Envelope::decode(e.encode());
    EXPECT_EQ(back.leader.has_value(), e.leader.has_value());
    EXPECT_EQ(back.change.has_value(), e.change.has_value());
    EXPECT_EQ(back.search.has_value(), e.search.has_value());
    EXPECT_EQ(back.proposer.has_value(), e.proposer.has_value());
    EXPECT_EQ(back.response.has_value(), e.response.has_value());
    if (e.leader) {
      EXPECT_EQ(back.leader->leader_id, e.leader->leader_id);
    }
    if (e.search) {
      EXPECT_EQ(back.search->root, e.search->root);
      EXPECT_EQ(back.search->hops, e.search->hops);
    }
    if (e.proposer) {
      EXPECT_EQ(back.proposer->pn, e.proposer->pn);
      EXPECT_EQ(back.proposer->value, e.proposer->value);
    }
    if (e.response) {
      EXPECT_EQ(back.response->pn, e.response->pn);
      EXPECT_EQ(back.response->count, e.response->count);
      EXPECT_EQ(back.response->prev, e.response->prev);
      EXPECT_EQ(back.response->max_committed, e.response->max_committed);
      EXPECT_EQ(back.response->dest, e.response->dest);
    }
  }
}

TEST(Properties, ScratchEncodeAndViewDecodeMatchTheCopyingCodec) {
  // The allocation-free wire path must be the same codec: encoding into
  // reused scratch writers yields exactly encode()'s bytes, and decoding
  // through a view yields what decoding a copied inner buffer does.
  using namespace core::wpaxos;
  util::Rng rng(1402);
  util::Writer body;
  util::Writer out;
  util::Writer scratch;
  for (int trial = 0; trial < 500; ++trial) {
    const WireEnvelope wire{rng(), random_envelope(rng)};

    body.clear();
    wire.body.encode(body);
    EXPECT_EQ(body.buffer(), wire.body.encode());
    out.clear();
    wire.encode(out, scratch);
    const util::Buffer bytes = wire.encode();
    ASSERT_EQ(out.buffer(), bytes);

    util::Reader r(bytes);
    const std::uint64_t sender = r.get_uvarint();
    const util::Buffer inner = r.get_bytes();
    ASSERT_TRUE(r.exhausted());
    const Envelope copied = Envelope::decode(inner);
    const WireEnvelope viewed = WireEnvelope::decode(bytes);
    EXPECT_EQ(viewed.sender_id, sender);
    expect_same_envelope(viewed.body, copied);
    expect_same_envelope(viewed.body, wire.body);
  }
}

TEST(Properties, FullRunsDeterministicPerSeed) {
  // The whole stack — topology generation, scheduler, engine, algorithm —
  // is a pure function of its seeds. Two runs must match event for event.
  for (int round = 0; round < 2; ++round) {
    static mac::Time first_time = 0;
    static std::uint64_t first_broadcasts = 0;
    util::Rng rng(2026);
    const auto g = net::make_random_geometric(40, 0.25, rng);
    const auto inputs = harness::inputs_random(40, rng);
    const auto ids = harness::permuted_ids(40, rng);
    mac::UniformRandomScheduler sched(4, 99);
    const auto outcome = harness::run_consensus(
        g, harness::wpaxos_factory(inputs, ids), sched, inputs, 1'000'000);
    ASSERT_TRUE(outcome.verdict.ok());
    if (round == 0) {
      first_time = outcome.verdict.last_decision;
      first_broadcasts = outcome.stats.broadcasts;
    } else {
      EXPECT_EQ(outcome.verdict.last_decision, first_time);
      EXPECT_EQ(outcome.stats.broadcasts, first_broadcasts);
    }
  }
}

TEST(Properties, EngineInvariantAckAfterReceivesFuzz) {
  // For any random scheduler seed, receives of broadcast i always precede
  // (or tie with) the sender's i-th ack. Sampled broadly here; this is the
  // defining abstract MAC layer guarantee.
  util::Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform(0, 10);
    const auto g = net::make_random_connected(n, 0.3, rng);
    const auto inputs = harness::inputs_random(n, rng);
    mac::UniformRandomScheduler sched(1 + rng.uniform(0, 7), rng());
    const auto outcome = harness::run_consensus(
        g, harness::flooding_factory(inputs), sched, inputs, 1'000'000);
    // check_consensus passing implies the algorithm's causality assumptions
    // (phase ordering) were never violated by the engine.
    EXPECT_TRUE(outcome.verdict.ok()) << outcome.verdict.summary();
  }
}

}  // namespace
}  // namespace amac

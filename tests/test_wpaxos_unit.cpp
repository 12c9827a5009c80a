// White-box unit tests of wPAXOS internals, driven packet by packet with a
// FakeContext: acceptor promise/accept rules, queue invariants, response
// routing and aggregation, leader gating, decide handling.
#include <gtest/gtest.h>

#include "core/wpaxos/wpaxos.hpp"
#include "fake_context.hpp"

namespace amac::core::wpaxos {
namespace {

using testutil::FakeContext;

WireEnvelope decode_last(const FakeContext& ctx) {
  return WireEnvelope::decode(ctx.last_sent());
}

util::Buffer envelope_from(std::uint64_t sender_id, Envelope body) {
  WireEnvelope w;
  w.sender_id = sender_id;
  w.body = std::move(body);
  return w.encode();
}

TEST(WPaxosUnit, StartBroadcastsAllInitServices) {
  WPaxos node(/*id=*/3, /*n=*/5, /*value=*/1);
  FakeContext ctx;
  node.on_start(ctx);
  ASSERT_EQ(ctx.sent.size(), 1u);
  const auto env = decode_last(ctx);
  EXPECT_EQ(env.sender_id, 3u);
  ASSERT_TRUE(env.body.leader);
  EXPECT_EQ(env.body.leader->leader_id, 3u);  // everyone starts self-leader
  ASSERT_TRUE(env.body.search);
  EXPECT_EQ(env.body.search->root, 3u);
  EXPECT_EQ(env.body.search->hops, 1u);
  ASSERT_TRUE(env.body.change);
  // Self-leader at start: the initial proposal's prepare also goes out.
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->kind, ProposerMsg::Kind::kPrepare);
  EXPECT_EQ(env.body.proposer->pn.id, 3u);
}

TEST(WPaxosUnit, WarmLeaderFirstEnvelopeCarriesOnlyThePrepare) {
  // A warm start knows Omega and the tree already: the leader seeds no
  // leader, search or change flood, and its first envelope is the prepare.
  WPaxos node(/*id=*/9, /*n=*/5, /*value=*/1, {}, WarmStart{9, 0, 9});
  FakeContext ctx;
  node.on_start(ctx);
  ASSERT_EQ(ctx.sent.size(), 1u);
  const auto env = decode_last(ctx);
  EXPECT_EQ(env.sender_id, 9u);
  EXPECT_FALSE(env.body.leader);
  EXPECT_FALSE(env.body.search);
  EXPECT_FALSE(env.body.change);
  EXPECT_FALSE(env.body.response);
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->kind, ProposerMsg::Kind::kPrepare);
  EXPECT_EQ(env.body.proposer->pn, (ProposalNumber{1, 9}));
  EXPECT_EQ(node.omega(), 9u);
  EXPECT_EQ(node.node_stats().change_events, 0u);
}

TEST(WPaxosUnit, WarmFollowerIsSilentThenAnswersTowardItsWarmParent) {
  WPaxos node(/*id=*/3, /*n=*/5, /*value=*/1, {}, WarmStart{9, 2, 7});
  FakeContext ctx;
  node.on_start(ctx);
  EXPECT_TRUE(ctx.sent.empty());  // no proposal, no service flood
  EXPECT_EQ(node.omega(), 9u);
  EXPECT_EQ(node.dist().at(9), 2u);
  EXPECT_EQ(node.parent().at(9), 7u);

  // The leader's prepare arrives: relayed, and the promise goes to the
  // warm parent without any search message having been seen.
  Envelope prepare;
  prepare.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {1, 9}, 0};
  ctx.deliver(node, 4, envelope_from(5, prepare));
  ASSERT_EQ(ctx.sent.size(), 1u);
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->pn, (ProposalNumber{1, 9}));
  ASSERT_TRUE(env.body.response);
  EXPECT_TRUE(env.body.response->positive);
  EXPECT_EQ(env.body.response->dest, 7u);
}

TEST(WPaxosUnit, ConvergedReportsOmegaAndItsTreeEntry) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // Cold start: self-leader at distance 0.
  auto c = node.converged();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->leader, 3u);
  EXPECT_EQ(c->dist, 0u);
  EXPECT_EQ(c->parent, 3u);
  // A larger leader with no tree entry yet: nothing converged.
  Envelope leader;
  leader.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, leader));
  EXPECT_FALSE(node.converged().has_value());
  Envelope search;
  search.search = SearchMsg{9, 2};
  ctx.deliver(node, 4, envelope_from(7, search));
  c = node.converged();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->leader, 9u);
  EXPECT_EQ(c->dist, 2u);
  EXPECT_EQ(c->parent, 7u);
}

TEST(WPaxosUnit, LeaderElectionAdoptsLargerIdOnly) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope smaller;
  smaller.leader = LeaderMsg{2};
  ctx.deliver(node, 0, envelope_from(2, smaller));
  EXPECT_EQ(node.omega(), 3u);
  Envelope larger;
  larger.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, larger));
  EXPECT_EQ(node.omega(), 9u);
}

TEST(WPaxosUnit, LeaderMsgRelayedOnward) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);  // free the radio
  Envelope e;
  e.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, e));
  // The new leader id must be queued and broadcast.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.leader);
  EXPECT_EQ(env.body.leader->leader_id, 9u);
}

TEST(WPaxosUnit, TreeServiceAdoptsShorterPathsOnly) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope far;
  far.search = SearchMsg{9, 4};
  ctx.deliver(node, 1, envelope_from(7, far));
  EXPECT_EQ(node.dist().at(9), 4u);
  EXPECT_EQ(node.parent().at(9), 7u);
  Envelope near;
  near.search = SearchMsg{9, 2};
  ctx.deliver(node, 2, envelope_from(8, near));
  EXPECT_EQ(node.dist().at(9), 2u);
  EXPECT_EQ(node.parent().at(9), 8u);
  Envelope worse;
  worse.search = SearchMsg{9, 3};
  ctx.deliver(node, 1, envelope_from(6, worse));
  EXPECT_EQ(node.dist().at(9), 2u);  // unchanged
  EXPECT_EQ(node.parent().at(9), 8u);
}

TEST(WPaxosUnit, TreeRelayIncrementsHops) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope e;
  e.search = SearchMsg{9, 2};
  ctx.deliver(node, 1, envelope_from(8, e));
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.search);
  EXPECT_EQ(env.body.search->root, 9u);
  EXPECT_EQ(env.body.search->hops, 3u);
}

TEST(WPaxosUnit, AcceptorPromisesIncreasingPrepares) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  // Make 9 the leader and give node a parent toward 9 first.
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));

  Envelope prep;
  prep.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep));

  // The response must be queued, positive, addressed toward parent (id 9,
  // since the search came straight from the root's neighbor... here the
  // sender_id of the search was 9).
  ASSERT_FALSE(node.response_queue().empty());
  const auto& r = node.response_queue().front();
  EXPECT_TRUE(r.positive);
  EXPECT_EQ(r.pn, (ProposalNumber{5, 9}));
  EXPECT_EQ(r.stage, AcceptorResponse::Stage::kPrepare);
  EXPECT_EQ(r.count, 1u);
}

TEST(WPaxosUnit, AcceptorRejectsStalePrepareSilently) {
  // A prepare below an existing promise must not produce a positive
  // response; our implementation drops stale propositions entirely (the
  // at-most-once guard is monotone).
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));

  Envelope high;
  high.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {7, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, high));
  const auto queued = node.response_queue().size();

  Envelope low;
  low.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {6, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, low));
  EXPECT_EQ(node.response_queue().size(), queued);  // nothing new
}

TEST(WPaxosUnit, DuplicatePropositionAnsweredOnce) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));

  Envelope prep;
  prep.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep));
  ctx.deliver(node, 2, envelope_from(8, prep));  // flood duplicate
  std::uint64_t total = 0;
  for (const auto& r : node.response_queue()) total += r.count;
  EXPECT_EQ(total, 1u);
}

TEST(WPaxosUnit, ResponsesForOldLeaderPruned) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));
  Envelope prep;
  prep.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep));
  ASSERT_FALSE(node.response_queue().empty());

  // A larger leader appears: queue invariant (1) drops the old responses.
  Envelope bigger;
  bigger.leader = LeaderMsg{12};
  ctx.deliver(node, 4, envelope_from(12, bigger));
  EXPECT_TRUE(node.response_queue().empty());
  EXPECT_EQ(node.omega(), 12u);
}

TEST(WPaxosUnit, ResponsesForStaleProposalPruned) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));
  Envelope prep5;
  prep5.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep5));
  Envelope prep6;
  prep6.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {6, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep6));
  // Only the response to pn (6,9) survives (queue invariant (2)).
  ASSERT_EQ(node.response_queue().size(), 1u);
  EXPECT_EQ(node.response_queue().front().pn, (ProposalNumber{6, 9}));
}

TEST(WPaxosUnit, ResponseRelayReAddressedToCurrentParent) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 2};  // parent toward 9 is sender id 7
  ctx.deliver(node, 4, envelope_from(7, intro));

  // A response from a child, addressed to us.
  AcceptorResponse r;
  r.stage = AcceptorResponse::Stage::kPrepare;
  r.pn = {5, 9};
  r.positive = true;
  r.count = 4;
  r.dest = 3;  // us
  Envelope relay;
  relay.response = r;
  ctx.deliver(node, 5, envelope_from(11, relay));
  if (ctx.busy()) ctx.ack(node);  // flush the queued response

  // It must sit in our queue; when sent, dest = parent[9] = 7.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.response);
  EXPECT_EQ(env.body.response->dest, 7u);
  EXPECT_EQ(env.body.response->count, 4u);
}

TEST(WPaxosUnit, ResponseNotAddressedToUsIgnored) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  AcceptorResponse r;
  r.pn = {5, 9};
  r.dest = 8;  // someone else
  Envelope e;
  e.response = r;
  ctx.deliver(node, 5, envelope_from(11, e));
  EXPECT_TRUE(node.response_queue().empty());
}

TEST(WPaxosUnit, AggregationMergesInQueue) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // Keep the radio busy so nothing leaves the queue between deliveries.
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 2};
  ctx.deliver(node, 4, envelope_from(7, intro));

  AcceptorResponse r;
  r.stage = AcceptorResponse::Stage::kPrepare;
  r.pn = {5, 9};
  r.positive = true;
  r.count = 2;
  r.dest = 3;
  r.prev = Proposal{{1, 2}, 0};
  Envelope e1;
  e1.response = r;
  ctx.deliver(node, 5, envelope_from(11, e1));
  r.count = 3;
  r.prev = Proposal{{2, 4}, 1};
  Envelope e2;
  e2.response = r;
  ctx.deliver(node, 6, envelope_from(12, e2));

  ASSERT_EQ(node.response_queue().size(), 1u);
  EXPECT_EQ(node.response_queue().front().count, 5u);
  // Lemma 4.3: the larger previous proposal survives the merge.
  EXPECT_EQ(node.response_queue().front().prev->pn, (ProposalNumber{2, 4}));
  EXPECT_EQ(node.node_stats().responses_merged, 1u);
}

TEST(WPaxosUnit, NoAggregationKeepsEntriesSeparate) {
  WPaxosConfig cfg;
  cfg.aggregate_responses = false;
  WPaxos node(3, 50, 1, cfg);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 2};
  ctx.deliver(node, 4, envelope_from(7, intro));

  AcceptorResponse r;
  r.stage = AcceptorResponse::Stage::kPrepare;
  r.pn = {5, 9};
  r.positive = true;
  r.count = 1;
  r.dest = 3;
  for (int i = 0; i < 3; ++i) {
    Envelope e;
    e.response = r;
    ctx.deliver(node, static_cast<NodeId>(5 + i),
                envelope_from(11 + i, e));
  }
  EXPECT_EQ(node.response_queue().size(), 3u);
}

TEST(WPaxosUnit, DecideMessageAdoptedAndRelayedOnce) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope e;
  e.proposer = ProposerMsg{ProposerMsg::Kind::kDecide, {}, 0};
  ctx.deliver(node, 1, envelope_from(4, e));
  ASSERT_TRUE(ctx.decision.has_value());
  EXPECT_EQ(*ctx.decision, 0);
  EXPECT_TRUE(node.has_decided());
  // The relay went out exactly once.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->kind, ProposerMsg::Kind::kDecide);
  // Further traffic does not produce more sends.
  ctx.ack(node);
  const auto sent_before = ctx.sent.size();
  ctx.deliver(node, 2, envelope_from(5, e));
  EXPECT_EQ(ctx.sent.size(), sent_before);
}

TEST(WPaxosUnit, ProposerAdoptsPriorProposalFromPromises) {
  // Lemma 4.3's local step, pinned deterministically: a proposer whose
  // promise quorum reports a previously accepted proposal must propose
  // THAT value, not its own.
  WPaxos node(/*id=*/9, /*n=*/5, /*value=*/1);
  FakeContext ctx;
  node.on_start(ctx);  // self-leader: prepare pn(1,9) out, self-promise in
  ctx.ack(node);

  // Two aggregated promises (count 2 + self = 3 > 5/2) carrying a prior
  // accepted proposal {pn=(1,3), value=0}.
  AcceptorResponse promise;
  promise.stage = AcceptorResponse::Stage::kPrepare;
  promise.pn = {1, 9};
  promise.positive = true;
  promise.count = 2;
  promise.prev = Proposal{{1, 3}, 0};
  promise.dest = 9;
  Envelope e;
  e.response = promise;
  ctx.deliver(node, 2, envelope_from(4, e));

  if (ctx.busy()) ctx.ack(node);
  // The propose message must carry the adopted value 0.
  bool saw_propose = false;
  for (const auto& buf : ctx.sent) {
    const auto env = WireEnvelope::decode(buf);
    if (env.body.proposer &&
        env.body.proposer->kind == ProposerMsg::Kind::kPropose) {
      saw_propose = true;
      EXPECT_EQ(env.body.proposer->value, 0) << "must adopt, not propose own";
      EXPECT_EQ(env.body.proposer->pn, (ProposalNumber{1, 9}));
    }
  }
  EXPECT_TRUE(saw_propose);
}

TEST(WPaxosUnit, ProposerUsesOwnValueWithoutPriorProposals) {
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  AcceptorResponse promise;
  promise.stage = AcceptorResponse::Stage::kPrepare;
  promise.pn = {1, 9};
  promise.positive = true;
  promise.count = 2;
  promise.dest = 9;  // no prev
  Envelope e;
  e.response = promise;
  ctx.deliver(node, 2, envelope_from(4, e));
  if (ctx.busy()) ctx.ack(node);
  bool saw_propose = false;
  for (const auto& buf : ctx.sent) {
    const auto env = WireEnvelope::decode(buf);
    if (env.body.proposer &&
        env.body.proposer->kind == ProposerMsg::Kind::kPropose) {
      saw_propose = true;
      EXPECT_EQ(env.body.proposer->value, 1);
    }
  }
  EXPECT_TRUE(saw_propose);
}

TEST(WPaxosUnit, MajorityRejectionTriggersOneRetryWithHigherTag) {
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);  // prepare pn(1,9)
  ctx.ack(node);
  AcceptorResponse reject;
  reject.stage = AcceptorResponse::Stage::kPrepare;
  reject.pn = {1, 9};
  reject.positive = false;
  reject.count = 3;  // > n/2
  reject.max_committed = {7, 8};  // someone committed to tag 7
  reject.dest = 9;
  Envelope e;
  e.response = reject;
  ctx.deliver(node, 2, envelope_from(4, e));
  if (ctx.busy()) ctx.ack(node);
  // Retry must use a tag above the learned commitment.
  bool saw_retry = false;
  for (const auto& buf : ctx.sent) {
    const auto env = WireEnvelope::decode(buf);
    if (env.body.proposer &&
        env.body.proposer->kind == ProposerMsg::Kind::kPrepare &&
        env.body.proposer->pn.tag > 7) {
      saw_retry = true;
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_GT(node.current_max_tag(), 7u);
}

TEST(WPaxosUnit, SingleNodeDecidesAlone) {
  WPaxos node(0, 1, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // n = 1: its own acceptor is the majority; prepare + propose resolve
  // locally and the decision happens without any delivery.
  ASSERT_TRUE(ctx.decision.has_value());
  EXPECT_EQ(*ctx.decision, 1);
}

TEST(WPaxosUnit, ProposerMsgFromUnknownBiggerIdUpdatesLeader) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope e;
  e.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {1, 42}, 0};
  ctx.deliver(node, 1, envelope_from(40, e));
  // pn.id = 42 is evidence of node 42's existence.
  EXPECT_EQ(node.omega(), 42u);
}

TEST(WPaxosUnit, NonLeaderPropositionNotRelayed) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  // Learn about leader 50 first.
  Envelope lead;
  lead.leader = LeaderMsg{50};
  ctx.deliver(node, 1, envelope_from(50, lead));
  while (ctx.busy()) ctx.ack(node);  // drain queues
  const auto sent_before = ctx.sent.size();

  // A proposition from old leader 42 (< 50) must be ignored entirely.
  Envelope stale;
  stale.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {1, 42}, 0};
  ctx.deliver(node, 1, envelope_from(40, stale));
  EXPECT_EQ(ctx.sent.size(), sent_before);
  EXPECT_TRUE(node.response_queue().empty());
}

TEST(WPaxosUnit, ChangeMessagesFloodNewestOnly) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.advance(10);
  Envelope newer;
  newer.change = ChangeMsg{9, 7};
  ctx.deliver(node, 1, envelope_from(7, newer));
  Envelope older;
  older.change = ChangeMsg{5, 8};
  ctx.deliver(node, 2, envelope_from(8, older));
  ctx.ack(node);
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.change);
  EXPECT_EQ(env.body.change->timestamp, 9u);
  EXPECT_EQ(env.body.change->origin, 7u);
}

TEST(WPaxosUnit, BusyRadioNeverDoubleBroadcasts) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // Deliver a storm of service messages while the first broadcast is
  // outstanding: wPAXOS must queue, not broadcast (the model would discard).
  for (NodeId s = 10; s < 20; ++s) {
    Envelope e;
    e.leader = LeaderMsg{s};
    e.search = SearchMsg{s, 1};
    ctx.deliver(node, 1, envelope_from(s, e));
  }
  EXPECT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.dropped, 0u);  // it queued instead of relying on discards
}

}  // namespace
}  // namespace amac::core::wpaxos

// Property-based test suite for CalendarQueue: randomized push/pop
// interleavings (seeded util::Rng) checked step by step against a
// std::priority_queue oracle ordered by the same (t, kind, seq) contract.
//
// Coverage targets, each also hit by a dedicated deterministic test:
//   * wheel wrap-around (the cursor circles the power-of-two ring many
//     times over);
//   * overflow promotion (far-future events heap first, migrate into the
//     wheel when the cursor rebases onto them);
//   * self-resize under load (sustained overflow pressure rebuilds the
//     wheel mid-interleaving; order must be oracle-identical across the
//     rebuild) and the disabled-resize fallback;
//   * run entries (one entry standing for a uniform fan-out's copies,
//     event.hpp) vs the same copies pushed one by one: pop order, tail
//     discards, overflow migration and resize carry-over of partly
//     popped runs, and every counter;
//   * FIFO tie-break at equal timestamps (seq order within a kind, kind
//     lanes at one tick).
#include <gtest/gtest.h>

#include <queue>
#include <utility>
#include <vector>

#include "mac/calendar_queue.hpp"
#include "util/rng.hpp"

namespace amac::mac {
namespace {

using Oracle = std::priority_queue<Event, std::vector<Event>, EventAfter>;

void expect_same_event(const Event& got, const Event& want) {
  ASSERT_EQ(got.t, want.t);
  ASSERT_EQ(got.kind, want.kind);
  ASSERT_EQ(got.seq, want.seq);
}

/// Pops both queues until empty, demanding identical order.
void drain_and_compare(CalendarQueue& q, Oracle& ref) {
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    const Event got = q.pop();
    expect_same_event(got, ref.top());
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(q.size(), 0u);
}

/// One randomized interleaving trial. `far_chance` controls how often a
/// push lands beyond the wheel window (overflow + resize pressure);
/// `far_range` is the horizon of those pushes.
void run_interleaving_trial(util::Rng& rng, Time horizon_hint,
                            double far_chance, Time far_lo, Time far_hi,
                            bool resize_enabled, int steps) {
  CalendarQueue q(horizon_hint);
  q.set_resize_enabled(resize_enabled);
  Oracle ref;
  std::uint64_t seq = 0;
  Time now = 0;
  const auto push_random = [&] {
    Event e;
    e.t = now + (rng.chance(far_chance) ? rng.uniform(far_lo, far_hi)
                                        : rng.uniform(0, 15));
    e.kind = static_cast<EventKind>(rng.uniform(0, 2));
    e.seq = seq++;
    e.node = static_cast<NodeId>(rng.uniform(0, 7));
    q.push(e);
    ref.push(e);
  };
  for (int i = 0; i < 8; ++i) push_random();
  for (int step = 0; step < steps; ++step) {
    if (!q.empty() && rng.chance(0.55)) {
      ASSERT_FALSE(ref.empty());
      const Time peek = q.next_time();
      const Event got = q.pop();
      ASSERT_EQ(got.t, peek);
      expect_same_event(got, ref.top());
      ref.pop();
      now = got.t;
    } else {
      push_random();
    }
  }
  drain_and_compare(q, ref);
  if (!resize_enabled) EXPECT_EQ(q.resizes(), 0u);
}

// --- randomized interleavings vs the oracle ------------------------------

TEST(CalendarQueueProperty, NearHorizonInterleavingsMatchOracle) {
  util::Rng rng(0xA11CE);
  for (int trial = 0; trial < 20; ++trial) {
    run_interleaving_trial(rng, rng.uniform(1, 12), 0.08, 3000, 9000,
                           /*resize_enabled=*/true, 2500);
  }
}

TEST(CalendarQueueProperty, HeavyOverflowPressureTriggersResizeMidRun) {
  // 35% of pushes land ~2000-4000 ticks out against a tiny wheel: the
  // resizable-overflow counter crosses its threshold mid-interleaving, the
  // wheel rebuilds under load, and order must stay oracle-identical.
  util::Rng rng(0xBEEF);
  for (int trial = 0; trial < 10; ++trial) {
    CalendarQueue q(4);
    Oracle ref;
    std::uint64_t seq = 0;
    Time now = 0;
    for (int step = 0; step < 4000; ++step) {
      if (!q.empty() && rng.chance(0.5)) {
        const Event got = q.pop();
        expect_same_event(got, ref.top());
        ref.pop();
        now = got.t;
      } else {
        Event e;
        e.t = now + (rng.chance(0.35) ? rng.uniform(2000, 4000)
                                      : rng.uniform(0, 7));
        e.kind = static_cast<EventKind>(rng.uniform(0, 2));
        e.seq = seq++;
        q.push(e);
        ref.push(e);
      }
    }
    EXPECT_GE(q.resizes(), 1u);
    EXPECT_GT(q.overflow_pushes(), 0u);
    EXPECT_GT(q.span(), 16u);  // grew past the hint-derived initial span
    drain_and_compare(q, ref);
  }
}

TEST(CalendarQueueProperty, ResizeCapsAtMaxWheelAndStaysCorrect) {
  // Drives the self-resize all the way to its 64k-bucket cap
  // (kMaxResizedWheel = 1 << 16) — the regime a 4096-node soak's far
  // timers live in — and keeps checking order against the oracle across
  // the rebuild. Far pushes land ~26k-31k ticks out: resizable (under
  // kMaxResizedWheel / 2), and 2*horizon + 4 overshoots the cap, so the
  // one resize jumps straight to exactly 65536 buckets. Very-far pushes
  // (70k-90k ticks) have non-resizable horizons: they must stay on the
  // overflow heap without re-triggering a resize, and still pop in order
  // once the cursor rebases onto them.
  util::Rng rng(0xCA11DA);
  CalendarQueue q(4);
  Oracle ref;
  std::uint64_t seq = 0;
  Time now = 0;
  for (int step = 0; step < 12000; ++step) {
    if (!q.empty() && rng.chance(0.5)) {
      const Event got = q.pop();
      expect_same_event(got, ref.top());
      ref.pop();
      now = got.t;
    } else {
      Event e;
      if (rng.chance(0.2)) {
        e.t = now + rng.uniform(26000, 31000);
      } else if (rng.chance(0.05)) {
        e.t = now + rng.uniform(70000, 90000);
      } else {
        e.t = now + rng.uniform(0, 7);
      }
      e.kind = static_cast<EventKind>(rng.uniform(0, 2));
      e.seq = seq++;
      q.push(e);
      ref.push(e);
    }
  }
  EXPECT_GE(q.resizes(), 1u);
  EXPECT_EQ(q.span(), 65536u);  // capped exactly at kMaxResizedWheel
  EXPECT_GT(q.overflow_pushes(), 0u);
  drain_and_compare(q, ref);
}

TEST(CalendarQueueProperty, DisabledResizeStaysOnOverflowHeapAndCorrect) {
  util::Rng rng(0xD15AB1E);
  for (int trial = 0; trial < 8; ++trial) {
    run_interleaving_trial(rng, 4, 0.35, 2000, 4000,
                           /*resize_enabled=*/false, 3000);
  }
}

/// Pushes `run` into `q` and its copies one by one into `plain` and `ref`.
void push_expanded(CalendarQueue& q, CalendarQueue& plain, Oracle& ref,
                   const Event& run) {
  q.push_run(run);
  Event copy = run;
  copy.copies = 1;
  for (std::uint32_t i = 0; i < run.copies; ++i) {
    copy.seq = run.seq + i;
    plain.push(copy);
    ref.push(copy);
  }
}

/// Pops one copy from all three queues and checks they agree; returns the
/// run queue's result (its `copies` reports the run's remaining copies).
Event pop_all(CalendarQueue& q, CalendarQueue& plain, Oracle& ref) {
  const Event got = q.pop();
  const Event want = plain.pop();
  EXPECT_EQ(got.t, want.t);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(want.seq, ref.top().seq);
  ref.pop();
  return got;
}

/// Discards the rest of `popped`'s run from `q`; the others pop those
/// copies, which must be exactly the run's next seqs.
void discard_all(CalendarQueue& q, CalendarQueue& plain, Oracle& ref,
                 const Event& popped) {
  q.discard_run_rest(popped);
  for (std::uint32_t i = 1; i < popped.copies; ++i) {
    const Event want = plain.pop();
    ASSERT_EQ(want.seq, popped.seq + i);
    ASSERT_EQ(ref.top().seq, want.seq);
    ref.pop();
  }
}

/// Everything a caller can observe of a queue besides its pop order.
void expect_same_counters(const CalendarQueue& q, const CalendarQueue& plain) {
  EXPECT_EQ(q.size(), plain.size());
  EXPECT_EQ(q.peak_size(), plain.peak_size());
  EXPECT_EQ(q.wheel_pushes(), plain.wheel_pushes());
  EXPECT_EQ(q.overflow_pushes(), plain.overflow_pushes());
  EXPECT_EQ(q.resizes(), plain.resizes());
  EXPECT_EQ(q.span(), plain.span());
}

TEST(CalendarQueueProperty, RunEntriesMatchExpandedSingleEvents) {
  // Runs interleaved with single pushes, some far enough out to take the
  // overflow heap (and trip resizes mid-run), popped copy by copy with
  // random tail discards. A second queue and the heap oracle get every run
  // expanded into single events: pop order and every counter must agree.
  util::Rng rng(0xBA7C4);
  for (int trial = 0; trial < 12; ++trial) {
    const Time hint = rng.uniform(1, 8);
    CalendarQueue q(hint);
    CalendarQueue plain(hint);
    Oracle ref;
    std::uint64_t seq = 0;
    Time now = 0;
    std::uint64_t discards = 0;
    for (int step = 0; step < 3000; ++step) {
      if (!q.empty() && rng.chance(0.5)) {
        const Event got = pop_all(q, plain, ref);
        now = got.t;
        if (got.copies > 1 && rng.chance(0.3)) {
          discard_all(q, plain, ref, got);
          ++discards;
        }
      } else {
        Event e;
        e.t = now + (rng.chance(0.15) ? rng.uniform(200, 900)
                                      : rng.uniform(0, 12));
        e.seq = seq;
        if (rng.chance(0.5)) {
          e.kind = EventKind::kDeliver;
          e.copies = static_cast<std::uint32_t>(rng.uniform(1, 40));
          push_expanded(q, plain, ref, e);
        } else {
          e.kind = static_cast<EventKind>(rng.uniform(0, 2));
          q.push(e);
          plain.push(e);
          ref.push(e);
        }
        seq += e.copies;
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    EXPECT_GT(discards, 0u);
    EXPECT_GT(q.overflow_pushes(), 0u);
    EXPECT_GT(q.run_pushes(), 0u);
    expect_same_counters(q, plain);
    while (!q.empty()) (void)pop_all(q, plain, ref);
    EXPECT_TRUE(plain.empty());
    EXPECT_TRUE(ref.empty());
  }
}

TEST(CalendarQueueProperty, OverflowRunMigratesAheadOfANewerRunInItsBucket) {
  // A far run waits on the overflow heap while the cursor advances until
  // its tick is inside the window; a newer run then lands in the wheel
  // bucket of that tick. The rebase migrates the older run in ahead of the
  // newer one (insert-by-seq), and both pop copy by copy, a tail discard
  // included. (The cursor bucket, the only one that can hold a partly
  // popped run, never receives a migrated event: the cursor reaches a
  // tick only after every overflow event of that tick has migrated.)
  CalendarQueue q(4);  // span 16
  CalendarQueue plain(4);
  Oracle ref;
  Event far;
  far.t = 20;
  far.seq = 0;
  far.copies = 5;
  push_expanded(q, plain, ref, far);  // overflow: seqs 0..4
  EXPECT_EQ(q.run_pushes(), 0u);
  Event near;
  near.t = 10;
  near.seq = 5;
  push_expanded(q, plain, ref, near);
  EXPECT_EQ(pop_all(q, plain, ref).t, 10u);  // cursor at 10: 20 in window
  Event newer;
  newer.t = 20;
  newer.seq = 6;
  newer.copies = 4;
  push_expanded(q, plain, ref, newer);  // wheel bucket 20: seqs 6..9
  EXPECT_EQ(q.run_pushes(), 2u);
  const Event first = pop_all(q, plain, ref);  // rebase + migration
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.copies, 5u);
  EXPECT_EQ(pop_all(q, plain, ref).seq, 1u);
  const Event third = pop_all(q, plain, ref);
  EXPECT_EQ(third.copies, 3u);
  discard_all(q, plain, ref, third);  // drops seqs 3..4
  EXPECT_EQ(q.size(), 4u);
  const Event fourth = pop_all(q, plain, ref);
  EXPECT_EQ(fourth.seq, 6u);
  EXPECT_EQ(fourth.copies, 4u);
  expect_same_counters(q, plain);
  while (!q.empty()) (void)pop_all(q, plain, ref);
  EXPECT_TRUE(ref.empty());
}

TEST(CalendarQueueProperty, ResizeCarriesAPartlyPoppedRunWhole) {
  // Pop two copies of a run, then push enough resizable far events to
  // rebuild the wheel under it — one far run crosses the trigger mid-run,
  // so its tail is placed against the resized window. The partly popped
  // run must survive the carry-over and keep popping at its next seq.
  CalendarQueue q(2);  // span 8
  CalendarQueue plain(2);
  Oracle ref;
  Event run;
  run.t = 3;
  run.seq = 0;
  run.copies = 6;
  push_expanded(q, plain, ref, run);
  EXPECT_EQ(pop_all(q, plain, ref).seq, 0u);
  EXPECT_EQ(pop_all(q, plain, ref).seq, 1u);
  std::uint64_t seq = 6;
  for (int i = 0; i < 3; ++i) {
    Event far;
    far.t = 100 + static_cast<Time>(i);
    far.seq = seq;
    far.copies = 20;  // the second run holds the 32nd resizable copy
    push_expanded(q, plain, ref, far);
    seq += far.copies;
  }
  EXPECT_EQ(q.resizes(), 1u);
  expect_same_counters(q, plain);
  const Event next = pop_all(q, plain, ref);
  EXPECT_EQ(next.seq, 2u);
  EXPECT_EQ(next.copies, 4u);
  discard_all(q, plain, ref, next);
  while (!q.empty()) (void)pop_all(q, plain, ref);
  EXPECT_TRUE(ref.empty());
  expect_same_counters(q, plain);
}

// --- deterministic corner cases ------------------------------------------

TEST(CalendarQueueProperty, WheelWrapAroundManyRevolutions) {
  // A 16-bucket wheel (hint 4 => span 16) driven 4096 ticks forward: the
  // cursor wraps the ring hundreds of times; every tick's events pop in
  // push order.
  CalendarQueue q(4);
  Oracle ref;
  std::uint64_t seq = 0;
  for (Time now = 0; now < 4096; now += 3) {
    for (Time d = 1; d <= 5; ++d) {
      Event e;
      e.t = now + d;
      e.kind = EventKind::kDeliver;
      e.seq = seq++;
      q.push(e);
      ref.push(e);
    }
    // Drain everything due strictly before the next batch's base.
    while (!q.empty() && q.next_time() < now + 3) {
      const Event got = q.pop();
      expect_same_event(got, ref.top());
      ref.pop();
    }
  }
  drain_and_compare(q, ref);
  EXPECT_EQ(q.overflow_pushes(), 0u);  // everything stayed in-window
}

TEST(CalendarQueueProperty, OverflowPromotionPreservesSeqInterleave) {
  // Far events pushed early (low seq) must, after migrating into the
  // wheel, pop BEFORE same-tick same-kind events pushed later (higher
  // seq): the migration insert-by-seq path.
  CalendarQueue q(4);  // span 16
  q.set_resize_enabled(false);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) {
    Event e;
    e.t = 1000;
    e.kind = EventKind::kDeliver;
    e.seq = seq++;  // seqs 0..4 into the overflow heap
    q.push(e);
  }
  Event near;
  near.t = 2;
  near.kind = EventKind::kDeliver;
  near.seq = seq++;
  q.push(near);
  EXPECT_EQ(q.pop().t, 2u);
  // Cursor rebases onto t=1000; now push MORE events at the same tick.
  EXPECT_EQ(q.next_time(), 1000u);
  for (int i = 0; i < 3; ++i) {
    Event e;
    e.t = 1000;
    e.kind = EventKind::kDeliver;
    e.seq = seq++;  // seqs 6..8, appended to the already-migrated bucket
    q.push(e);
  }
  for (std::uint64_t want : {0u, 1u, 2u, 3u, 4u, 6u, 7u, 8u}) {
    ASSERT_EQ(q.pop().seq, want);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueProperty, FifoTieBreakAtEqualTimestamps) {
  // One tick, all three kinds interleaved in push order: pops must give
  // deliveries, then acks, then crashes, each in FIFO (seq) order.
  CalendarQueue q(8);
  std::uint64_t seq = 0;
  const EventKind pattern[] = {EventKind::kAck,     EventKind::kDeliver,
                               EventKind::kCrash,   EventKind::kDeliver,
                               EventKind::kAck,     EventKind::kDeliver,
                               EventKind::kCrash,   EventKind::kAck};
  for (const EventKind k : pattern) {
    Event e;
    e.t = 5;
    e.kind = k;
    e.seq = seq++;
    q.push(e);
  }
  const std::pair<EventKind, std::uint64_t> want[] = {
      {EventKind::kDeliver, 1}, {EventKind::kDeliver, 3},
      {EventKind::kDeliver, 5}, {EventKind::kAck, 0},
      {EventKind::kAck, 4},     {EventKind::kAck, 7},
      {EventKind::kCrash, 2},   {EventKind::kCrash, 6},
  };
  for (const auto& [kind, s] : want) {
    const Event got = q.pop();
    ASSERT_EQ(got.kind, kind);
    ASSERT_EQ(got.seq, s);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueProperty, ResizeCarriesPendingEventsExactlyOnce) {
  // Deterministic resize-under-load: fill the wheel AND enough resizable
  // overflow to trip the rebuild, then drain; each event pops exactly once
  // in (t, kind, seq) order.
  CalendarQueue q(2);  // span 8
  Oracle ref;
  std::uint64_t seq = 0;
  const auto push_at = [&](Time t, EventKind k) {
    Event e;
    e.t = t;
    e.kind = k;
    e.seq = seq++;
    q.push(e);
    ref.push(e);
  };
  for (Time t = 1; t <= 7; ++t) push_at(t, EventKind::kDeliver);  // in-wheel
  for (int i = 0; i < 40; ++i) {  // far: trips the 32-push trigger
    push_at(100 + static_cast<Time>(i), EventKind::kDeliver);
    push_at(100 + static_cast<Time>(i), EventKind::kAck);
  }
  EXPECT_GE(q.resizes(), 1u);
  EXPECT_EQ(q.size(), 7u + 80u);
  drain_and_compare(q, ref);
}

TEST(CalendarQueueProperty, SentinelHorizonsNeverTriggerResize) {
  // kForever-style sentinels are not resizable pressure: pushing many must
  // leave the wheel span alone (the heap owns them).
  CalendarQueue q(4);
  const Time initial_span = q.span();
  std::uint64_t seq = 0;
  for (int i = 0; i < 100; ++i) {
    Event e;
    e.t = kForever - static_cast<Time>(i);
    e.kind = EventKind::kCrash;
    e.seq = seq++;
    q.push(e);
  }
  EXPECT_EQ(q.resizes(), 0u);
  EXPECT_EQ(q.span(), initial_span);
  EXPECT_EQ(q.overflow_pushes(), 100u);
}

}  // namespace
}  // namespace amac::mac

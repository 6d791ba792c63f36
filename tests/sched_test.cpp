// Scheduler-backend determinism tests: the hierarchical timer wheel must be
// observationally identical to the reference heap backend — same firing
// order for every schedule shape (ties, cancels, re-entrant scheduling),
// exact behaviour at wheel cascade boundaries and in the overflow horizon,
// and lazy compaction that reclaims cancelled entries without perturbing
// the survivors' order.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/engine.hpp"
#include "sim/wheel.hpp"
#include "util/rng.hpp"

namespace pico::sim {
namespace {

constexpr int64_t kTickNs = int64_t{1} << TimerWheel::kTickShiftNs;

/// One scripted schedule op, precomputed so both backends replay the exact
/// same stimulus.
struct Op {
  int64_t at_ns = 0;
  bool cancellable = false;
  bool cancel = false;  ///< cancel the handle before running (if cancellable)
};

std::vector<Op> random_script(uint64_t seed, int n) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Op op;
    // Cluster timestamps so many ops share an exact nanosecond (FIFO ties)
    // and many share a wheel tick without sharing a timestamp.
    int64_t coarse = static_cast<int64_t>(rng.uniform(0, 200)) * kTickNs;
    int64_t fine = rng.chance(0.3)
                       ? 0
                       : static_cast<int64_t>(rng.uniform(0, kTickNs));
    op.at_ns = coarse + fine;
    op.cancellable = rng.chance(0.5);
    op.cancel = op.cancellable && rng.chance(0.4);
    ops.push_back(op);
  }
  return ops;
}

/// Replay `ops` on `backend` and return the sequence of op indices in firing
/// order. Cancels happen up front (before run), exercising reclaim of
/// entries parked anywhere in the wheel.
std::vector<int> replay(Engine::Backend backend, const std::vector<Op>& ops) {
  Engine engine(backend);
  std::vector<int> fired;
  std::vector<EventHandle> handles;
  for (size_t i = 0; i < ops.size(); ++i) {
    int idx = static_cast<int>(i);
    auto fn = [&fired, idx] { fired.push_back(idx); };
    if (ops[i].cancellable) {
      handles.push_back(engine.schedule_at(SimTime{ops[i].at_ns}, fn));
    } else {
      engine.post_at(SimTime{ops[i].at_ns}, fn);
      handles.emplace_back();
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].cancel) handles[i].cancel();
  }
  engine.run();
  return fired;
}

class BackendParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendParity, IdenticalFiringOrderWithTiesAndCancels) {
  std::vector<Op> ops = random_script(GetParam(), 2000);
  std::vector<int> heap = replay(Engine::Backend::Heap, ops);
  std::vector<int> wheel = replay(Engine::Backend::Wheel, ops);
  size_t cancelled = 0;
  for (const Op& op : ops) cancelled += op.cancel ? 1 : 0;
  ASSERT_EQ(heap.size(), ops.size() - cancelled);
  EXPECT_EQ(heap, wheel);
}

TEST_P(BackendParity, IdenticalOrderUnderReentrantScheduling) {
  auto run = [&](Engine::Backend backend) {
    util::Rng rng(GetParam());
    Engine engine(backend);
    std::vector<int> fired;
    int next_id = 0;
    std::function<void(int)> chain = [&](int depth) {
      fired.push_back(next_id++);
      if (depth > 0) {
        int fanout = 1 + static_cast<int>(rng.uniform(0, 2.99));
        for (int i = 0; i < fanout; ++i) {
          engine.post_after(Duration{static_cast<int64_t>(
                                rng.uniform(0, 3.0 * kTickNs))},
                            [&chain, depth] { chain(depth - 1); });
        }
      }
    };
    for (int i = 0; i < 40; ++i) {
      engine.schedule_at(
          SimTime{static_cast<int64_t>(rng.uniform(0, 100)) * kTickNs},
          [&chain] { chain(4); });
    }
    engine.run();
    return fired;
  };
  // Both backends consume the rng in the same call order (the script is
  // driven by firing order, which the contract fixes), so the expansions
  // must be identical trees.
  EXPECT_EQ(run(Engine::Backend::Heap), run(Engine::Backend::Wheel));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendParity,
                         ::testing::Values(1, 42, 1337, 271828, 3141592));

TEST(Wheel, SameTimestampTiesFireInScheduleOrder) {
  Engine engine(Engine::Backend::Wheel);
  std::vector<int> fired;
  // All at the same nanosecond, far enough out to park at level >= 1 first.
  SimTime at{300 * kTickNs + 7};
  for (int i = 0; i < 64; ++i) {
    engine.post_at(at, [&fired, i] { fired.push_back(i); });
  }
  engine.run();
  ASSERT_EQ(fired.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(fired[i], i);
}

TEST(Wheel, CascadeBoundariesFireInOrder) {
  // Events straddling the level-0/1 boundary (tick 256) and the level-1/2
  // boundary (tick 65536): each must cascade down and fire in exact time
  // order, including entries one tick before/after the crossing.
  Engine engine(Engine::Backend::Wheel);
  std::vector<int64_t> fire_ns;
  auto record = [&] { fire_ns.push_back(engine.now().ns); };
  std::vector<int64_t> ats;
  for (int64_t tick : {int64_t{255}, int64_t{256}, int64_t{257},
                       int64_t{65535}, int64_t{65536}, int64_t{65537}}) {
    ats.push_back(tick * kTickNs);          // exactly on the tick
    ats.push_back(tick * kTickNs + 1);      // just inside it
    ats.push_back(tick * kTickNs + kTickNs - 1);  // last ns of the tick
  }
  // Schedule in reverse so firing order is earned, not inherited.
  for (auto it = ats.rbegin(); it != ats.rend(); ++it) {
    engine.post_at(SimTime{*it}, record);
  }
  engine.run();
  ASSERT_EQ(fire_ns.size(), ats.size());
  std::vector<int64_t> want = ats;  // ats is already ascending
  EXPECT_EQ(fire_ns, want);
}

TEST(Wheel, OverflowHorizonEventsFireLastAndInOrder) {
  // Beyond 4 levels x 256 slots the wheel can't address the event; it goes
  // to the overflow list and must still fire in exact (time, seq) order.
  constexpr int64_t kHorizonNs = kTickNs << 32;  // 2^52 ns ~= 52 days
  Engine engine(Engine::Backend::Wheel);
  std::vector<int> fired;
  engine.post_at(SimTime{kHorizonNs * 2 + 5}, [&] { fired.push_back(3); });
  engine.post_at(SimTime{kHorizonNs * 2 + 5}, [&] { fired.push_back(4); });
  engine.post_at(SimTime{kHorizonNs + 1}, [&] { fired.push_back(2); });
  engine.post_at(SimTime{17}, [&] { fired.push_back(1); });
  engine.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(engine.now().ns, kHorizonNs * 2 + 5);
}

TEST(Wheel, CancelAfterPartialAdvanceNeverFires) {
  // Cancel an entry after the wheel has advanced past other events (so the
  // entry may have cascaded to a lower level): it must not fire, and the
  // engine must still drain.
  Engine engine(Engine::Backend::Wheel);
  bool fired = false;
  EventHandle victim = engine.schedule_at(SimTime{500 * kTickNs},
                                          [&] { fired = true; });
  engine.post_at(SimTime{100 * kTickNs}, [&, victim]() mutable {
    victim.cancel();
    victim.cancel();  // idempotent
  });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.cancelled_total(), 1u);
  EXPECT_TRUE(engine.idle());
}

TEST(Engine, CompactionReclaimsCancelledBacklog) {
  // The lazy-compaction contract: sweeps only start above the floor (8192
  // pending cancels) and once cancelled entries outnumber live ones, and a
  // sweep leaves the survivors' firing order untouched.
  for (auto backend : {Engine::Backend::Heap, Engine::Backend::Wheel}) {
    Engine engine(backend);
    std::vector<EventHandle> doomed;
    doomed.reserve(20000);
    // 20k cancellable timers far in the future + a few survivors.
    for (int i = 0; i < 20000; ++i) {
      doomed.push_back(
          engine.schedule_at(SimTime{(1000 + i) * kTickNs}, [] {}));
    }
    std::vector<int> fired;
    for (int i = 0; i < 4; ++i) {
      engine.post_at(SimTime{(2000000 + i) * kTickNs},
                     [&fired, i] { fired.push_back(i); });
    }
    for (EventHandle& h : doomed) h.cancel();
    EXPECT_EQ(engine.cancelled_total(), 20000u);
    EXPECT_EQ(engine.cancelled_pending(), 20000u);
    // Activity triggers maybe_compact; none of the cancelled should fire.
    engine.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_GE(engine.compactions(), 1u) << engine.backend_name();
    EXPECT_EQ(engine.cancelled_pending(), 0u);
    EXPECT_EQ(engine.queue_depth(), 0u);
  }
}

TEST(Engine, CompactionFloorAvoidsSmallSweeps) {
  // Below the 8192-pending floor a cancel-heavy queue is left alone: tiny
  // queues never pay an O(queue) sweep.
  Engine engine(Engine::Backend::Wheel);
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 100; ++i) {
    doomed.push_back(engine.schedule_at(SimTime{(10 + i) * kTickNs}, [] {}));
  }
  for (EventHandle& h : doomed) h.cancel();
  bool ran = false;
  engine.post_at(SimTime{kTickNs}, [&] { ran = true; });
  engine.run_until(SimTime{2 * kTickNs});
  EXPECT_TRUE(ran);
  EXPECT_EQ(engine.compactions(), 0u);
  // The cancelled entries still drain (skipped at their timestamps).
  engine.run();
  EXPECT_EQ(engine.queue_depth(), 0u);
}

TEST(Engine, RunAfterDrainIsANoOp) {
  // Regression: run() on an already-drained engine must return immediately
  // and leave now() untouched.
  Engine engine(Engine::Backend::Wheel);
  engine.post_at(SimTime{5 * kTickNs}, [] {});
  engine.run();
  int64_t settled = engine.now().ns;
  engine.run();
  EXPECT_EQ(engine.now().ns, settled);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.events_processed(), 1u);
}

TEST(Engine, RunUntilThenResumeMatchesSingleRun) {
  // Chopping a schedule into run_until() windows must fire the same events
  // at the same times as one uninterrupted run(), on both backends.
  std::vector<Op> ops = random_script(777, 500);
  std::vector<int> whole = replay(Engine::Backend::Wheel, ops);
  for (auto backend : {Engine::Backend::Heap, Engine::Backend::Wheel}) {
    Engine engine(backend);
    std::vector<int> fired;
    for (size_t i = 0; i < ops.size(); ++i) {
      int idx = static_cast<int>(i);
      auto fn = [&fired, idx] { fired.push_back(idx); };
      if (ops[i].cancellable) {
        EventHandle h = engine.schedule_at(SimTime{ops[i].at_ns}, fn);
        if (ops[i].cancel) h.cancel();
      } else {
        engine.post_at(SimTime{ops[i].at_ns}, fn);
      }
    }
    for (int64_t t = 0; t <= 200; t += 13) {
      engine.run_until(SimTime{t * kTickNs});
    }
    engine.run();
    EXPECT_EQ(fired, whole) << engine.backend_name();
  }
}

// ---- Cancel slots: handles are (slot, generation) pairs into the engine's
// table, so a handle must go stale the moment its event fires or is
// reclaimed, whatever event takes the slot next.

TEST(CancelSlots, StaleHandleCannotCancelTheSlotsNextEvent) {
  for (auto backend : {Engine::Backend::Heap, Engine::Backend::Wheel}) {
    Engine engine(backend);
    int a = 0, b = 0;
    EventHandle first = engine.schedule_at(SimTime{kTickNs}, [&] { ++a; });
    engine.run();
    ASSERT_EQ(a, 1);
    EXPECT_EQ(engine.cancel_slots_in_use(), 0u);
    first.cancel();  // after fire: no-op
    EXPECT_EQ(engine.cancelled_total(), 0u);

    // The next cancellable event reuses the freed slot; the old handle
    // must not reach it.
    EventHandle second =
        engine.schedule_at(SimTime{2 * kTickNs}, [&] { ++b; });
    EXPECT_EQ(engine.cancel_slots_in_use(), 1u);
    first.cancel();
    EXPECT_EQ(engine.cancelled_total(), 0u);
    EXPECT_EQ(engine.cancelled_pending(), 0u);
    engine.run();
    EXPECT_EQ(b, 1) << engine.backend_name();
    second.cancel();
    EXPECT_EQ(engine.cancelled_total(), 0u) << engine.backend_name();
  }
}

TEST(CancelSlots, CancelFromInsideOwnCallbackIsANoOp) {
  for (auto backend : {Engine::Backend::Heap, Engine::Backend::Wheel}) {
    Engine engine(backend);
    EventHandle self;
    bool later = false;
    self = engine.schedule_at(SimTime{kTickNs}, [&] {
      self.cancel();
      // Reuses the slot just released; the stale cancel above and below
      // must leave it armed.
      engine.schedule_after(Duration{kTickNs}, [&] { later = true; });
      self.cancel();
    });
    engine.run();
    EXPECT_TRUE(later) << engine.backend_name();
    EXPECT_EQ(engine.cancelled_total(), 0u);
    EXPECT_EQ(engine.cancel_slots_in_use(), 0u);
  }
}

TEST(CancelSlots, HandleOutlivingItsEngineStaysSafe) {
  EventHandle pending, fired, cancelled;
  {
    Engine engine(Engine::Backend::Wheel);
    fired = engine.schedule_at(SimTime{kTickNs}, [] {});
    pending = engine.schedule_at(SimTime{100 * kTickNs}, [] {});
    cancelled = engine.schedule_at(SimTime{100 * kTickNs}, [] {});
    cancelled.cancel();
    engine.run_until(SimTime{2 * kTickNs});
  }
  // The engine (and its queue) is gone; the handles only keep the cancel
  // table alive. Every call is a harmless no-op.
  EXPECT_TRUE(pending.valid());
  pending.cancel();
  pending.cancel();
  fired.cancel();
  cancelled.cancel();
  EventHandle copy = pending;
  pending = EventHandle();
  copy.cancel();
}

TEST(CancelSlots, CompactionReleasesSlotsAndKeepsCounterMeanings) {
  for (auto backend : {Engine::Backend::Heap, Engine::Backend::Wheel}) {
    Engine engine(backend);
    std::vector<EventHandle> doomed;
    for (int i = 0; i < 10000; ++i) {
      doomed.push_back(
          engine.schedule_at(SimTime{(1000 + i) * kTickNs}, [] {}));
    }
    int survivors = 0;
    std::vector<EventHandle> kept;
    for (int i = 0; i < 100; ++i) {
      kept.push_back(engine.schedule_at(SimTime{(500000 + i) * kTickNs},
                                        [&] { ++survivors; }));
    }
    EXPECT_EQ(engine.cancel_slots_in_use(), 10100u);
    for (EventHandle& h : doomed) h.cancel();
    EXPECT_EQ(engine.cancelled_total(), 10000u);  // lifetime cancels
    EXPECT_EQ(engine.cancelled_pending(), 10000u);  // not yet reclaimed
    // Any queue activity past the floor triggers the sweep.
    engine.post_at(SimTime{kTickNs}, [] {});
    EXPECT_EQ(engine.compactions(), 1u) << engine.backend_name();
    EXPECT_EQ(engine.cancelled_pending(), 0u);
    EXPECT_EQ(engine.cancelled_total(), 10000u);
    EXPECT_EQ(engine.cancel_slots_in_use(), 100u);  // only the survivors'
    // Reclaimed handles are stale: re-cancelling changes nothing, and the
    // freed slots serve new events without the old handles reaching them.
    for (EventHandle& h : doomed) h.cancel();
    EXPECT_EQ(engine.cancelled_total(), 10000u);
    int reused = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.schedule_at(SimTime{(2000 + i) * kTickNs}, [&] { ++reused; });
    }
    for (EventHandle& h : doomed) h.cancel();
    EXPECT_EQ(engine.cancelled_pending(), 0u);
    engine.run();
    EXPECT_EQ(reused, 10000) << engine.backend_name();
    EXPECT_EQ(survivors, 100);
    EXPECT_EQ(engine.cancel_slots_in_use(), 0u);
    EXPECT_EQ(engine.events_processed(), 10101u);
  }
}

TEST_P(BackendParity, IdenticalUnderInCallbackCancelsAndSlotReuse) {
  // Callbacks arm timers and cancel random handles — live, already fired,
  // already cancelled, or stale after slot reuse — mid-run. Both backends
  // must fire the same events and agree on every cancel counter.
  struct Outcome {
    std::vector<int> fired;
    uint64_t cancelled_total = 0;
    uint64_t events = 0;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [&](Engine::Backend backend) {
    util::Rng rng(GetParam());
    Engine engine(backend);
    Outcome out;
    std::vector<EventHandle> handles;
    int next_id = 0;
    std::function<void(int)> step = [&](int depth) {
      out.fired.push_back(next_id++);
      if (!handles.empty() && rng.chance(0.5)) {
        handles[static_cast<size_t>(
                    rng.uniform(0, static_cast<double>(handles.size()) - 0.01))]
            .cancel();
      }
      if (depth == 0) return;
      for (int i = 0; i < 2; ++i) {
        handles.push_back(engine.schedule_after(
            Duration{static_cast<int64_t>(rng.uniform(0, 40.0 * kTickNs))},
            [&step, depth] { step(depth - 1); }));
      }
    };
    for (int i = 0; i < 20; ++i) {
      handles.push_back(engine.schedule_at(
          SimTime{static_cast<int64_t>(rng.uniform(0, 50)) * kTickNs},
          [&step] { step(6); }));
    }
    engine.run();
    out.cancelled_total = engine.cancelled_total();
    out.events = engine.events_processed();
    EXPECT_EQ(engine.cancelled_pending(), 0u);
    EXPECT_EQ(engine.cancel_slots_in_use(), 0u);
    return out;
  };
  Outcome heap = run(Engine::Backend::Heap);
  EXPECT_GT(heap.cancelled_total, 0u);
  EXPECT_TRUE(heap == run(Engine::Backend::Wheel));
}

}  // namespace
}  // namespace pico::sim

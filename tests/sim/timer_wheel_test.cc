// The timer wheel's contract is *equivalence*: firing times and timer-vs-
// timer order must match the plain heap path it replaces (arm via sim->At,
// cancel via a stale-event flag). The property test below drives both
// implementations through the same randomized arm/cancel schedule — mixed
// deadline scales, forced equal-deadline ties, heavy cancellation — and
// requires byte-identical firing sequences. A warm wheel also arms, cascades
// and fires without allocating, counted by this binary's operator new.
#include "src/sim/timer_wheel.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"
#include "tests/common/allocation_counter.h"

namespace snicsim {
namespace {

struct Firing {
  int timer = 0;
  SimTime at = 0;
  bool operator==(const Firing& o) const {
    return timer == o.timer && at == o.at;
  }
};

// One randomized arm/cancel schedule, derived deterministically from seed.
struct PlanEntry {
  SimTime arm_at = 0;
  SimTime deadline = 0;
  SimTime cancel_at = 0;  // 0 = never
};

std::vector<PlanEntry> MakePlan(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<PlanEntry> plan;
  std::vector<SimTime> past_deadlines;
  SimTime clock = 0;
  for (int i = 0; i < n; ++i) {
    clock += static_cast<SimTime>(rng.NextBelow(FromNanos(800)));
    PlanEntry e;
    e.arm_at = clock;
    // Mix the scales the wheel levels separate: sub-tick, a few slots out,
    // and far enough to land in upper levels and cascade.
    const uint64_t kind = rng.NextBelow(4);
    SimTime delta = 0;
    switch (kind) {
      case 0:
        delta = static_cast<SimTime>(rng.NextBelow(FromNanos(400)));
        break;
      case 1:
        delta = static_cast<SimTime>(rng.NextBelow(FromMicros(30)));
        break;
      case 2:
        delta = static_cast<SimTime>(rng.NextBelow(FromMicros(4000)));
        break;
      default:
        delta = static_cast<SimTime>(rng.NextBelow(FromMicros(300000)));
        break;
    }
    e.deadline = e.arm_at + delta;
    // Force equal-deadline ties across distinct arm times: the ordering
    // clause the wheel has to reproduce exactly.
    if (!past_deadlines.empty() && rng.NextBelow(100) < 30) {
      const SimTime reuse =
          past_deadlines[rng.NextBelow(past_deadlines.size())];
      if (reuse >= e.arm_at) {
        e.deadline = reuse;
      }
    }
    past_deadlines.push_back(e.deadline);
    // Heavy cancellation — the wheel's reason to exist. Cancels land
    // strictly before the deadline so both paths agree on liveness.
    if (rng.NextBelow(100) < 40 && e.deadline > e.arm_at + 1) {
      e.cancel_at =
          e.arm_at + 1 +
          static_cast<SimTime>(rng.NextBelow(
              static_cast<uint64_t>(e.deadline - e.arm_at - 1)));
    }
    plan.push_back(e);
  }
  return plan;
}

// Reference: the pattern the call sites used before the wheel — arm
// directly on the heap, cancellation leaves a stale event that no-ops.
std::vector<Firing> RunHeapPath(const std::vector<PlanEntry>& plan) {
  Simulator sim;
  std::vector<Firing> fired;
  std::vector<char> cancelled(plan.size(), 0);
  for (size_t i = 0; i < plan.size(); ++i) {
    const PlanEntry& e = plan[i];
    sim.At(e.arm_at, [&sim, &fired, &cancelled, i, e] {
      sim.At(e.deadline, [&fired, &cancelled, i, e] {
        if (!cancelled[i]) {
          fired.push_back(Firing{static_cast<int>(i), e.deadline});
        }
      });
    });
    if (e.cancel_at != 0) {
      sim.At(e.cancel_at, [&cancelled, i] { cancelled[i] = 1; });
    }
  }
  sim.Run();
  return fired;
}

std::vector<Firing> RunWheelPath(const std::vector<PlanEntry>& plan) {
  Simulator sim;
  TimerWheel wheel(&sim);
  std::vector<Firing> fired;
  std::vector<TimerWheel::TimerId> ids(plan.size(), TimerWheel::kNoTimer);
  for (size_t i = 0; i < plan.size(); ++i) {
    const PlanEntry& e = plan[i];
    sim.At(e.arm_at, [&sim, &wheel, &fired, &ids, i, e] {
      ids[i] = wheel.Schedule(e.deadline, [&sim, &fired, i] {
        fired.push_back(Firing{static_cast<int>(i), sim.now()});
      });
    });
    if (e.cancel_at != 0) {
      sim.At(e.cancel_at, [&wheel, &ids, i] { wheel.Cancel(ids[i]); });
    }
  }
  sim.Run();
  EXPECT_EQ(wheel.live(), 0u);
  return fired;
}

TEST(TimerWheelEquivalence, MatchesHeapPathOverRandomSchedules) {
  for (const uint64_t seed : {11ull, 23ull, 47ull, 91ull, 1234ull}) {
    const auto plan = MakePlan(seed, 600);
    const auto heap = RunHeapPath(plan);
    const auto wheel = RunWheelPath(plan);
    ASSERT_EQ(heap.size(), wheel.size()) << "seed " << seed;
    for (size_t i = 0; i < heap.size(); ++i) {
      EXPECT_EQ(heap[i], wheel[i])
          << "seed " << seed << " firing " << i << ": heap timer "
          << heap[i].timer << "@" << heap[i].at << " vs wheel timer "
          << wheel[i].timer << "@" << wheel[i].at;
    }
  }
}

TEST(TimerWheel, FiresAtExactUnalignedDeadline) {
  Simulator sim;
  TimerWheel wheel(&sim);
  SimTime fired_at = -1;
  // Not a multiple of any slot width: slotting must not round it.
  const SimTime deadline = FromNanos(500) * 37 + 13;
  wheel.Schedule(deadline, [&] { fired_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(fired_at, deadline);
  EXPECT_EQ(wheel.fired(), 1u);
}

TEST(TimerWheel, EqualDeadlinesFireInScheduleOrder) {
  Simulator sim;
  TimerWheel wheel(&sim);
  std::vector<int> order;
  const SimTime deadline = FromMicros(50) + 7;
  // Armed at different times (so they enter at different levels), same
  // deadline: must fire 0, 1, 2.
  wheel.Schedule(deadline, [&] { order.push_back(0); });
  sim.At(FromMicros(20), [&] {
    wheel.Schedule(deadline, [&] { order.push_back(1); });
  });
  sim.At(FromMicros(49), [&] {
    wheel.Schedule(deadline, [&] { order.push_back(2); });
  });
  sim.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(TimerWheel, CancelledTimersNeverFireAndReclaim) {
  Simulator sim;
  TimerWheel wheel(&sim);
  int fired = 0;
  std::vector<TimerWheel::TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(wheel.In(FromMicros(100) + i * FromNanos(500),
                           [&fired] { ++fired; }));
  }
  for (const auto id : ids) {
    EXPECT_TRUE(wheel.Cancel(id));
    EXPECT_FALSE(wheel.Cancel(id));  // second cancel is a stale no-op
  }
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.fired(), 0u);
  EXPECT_EQ(wheel.cancelled(), 1000u);
  EXPECT_EQ(wheel.live(), 0u);
  // The win being bought: heap events consumed stay bounded by slot
  // sharing instead of one per timer (1000 timers over ~100us of 500ns
  // slots is at most ~200 distinct slots, plus level sentinels).
  EXPECT_LT(wheel.sentinels(), 500u);
}

TEST(TimerWheel, FarFutureDeadlineCascadesToExactTime) {
  Simulator sim;
  TimerWheel wheel(&sim);
  SimTime fired_at = -1;
  const SimTime deadline = FromMicros(250000) + 19;  // upper wheel levels
  wheel.Schedule(deadline, [&] { fired_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(fired_at, deadline);
  EXPECT_GT(wheel.cascades(), 0u);
}

TEST(TimerWheel, CallbackMayRearmIntoTheWheel) {
  Simulator sim;
  TimerWheel wheel(&sim);
  int ticks = 0;
  // Epoch-clock shape: a self-rescheduling tick.
  std::function<void()> step = [&] {
    ++ticks;
    if (ticks < 5) {
      wheel.In(FromMicros(10), [&step] { step(); });
    }
  };
  wheel.In(FromMicros(10), [&step] { step(); });
  sim.Run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), 5 * FromMicros(10));
}

TEST(TimerWheel, WarmWheelAllocatesNothing) {
  Simulator sim;
  TimerWheel wheel(&sim);
  int fired = 0;
  // Deadlines past the 32 us level-0 span cascade from level 1, and from
  // level 2 when a round straddles a 2.048 ms boundary; every third timer
  // is cancelled and reclaimed by its bucket scan. A round lasts ~62 us.
  const auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      const TimerWheel::TimerId id =
          wheel.In(FromNanos(100 + 997 * i), [&fired] { ++fired; });
      if (i % 3 == 0) {
        wheel.Cancel(id);
      }
    }
    sim.Run();
  };
  for (int r = 0; r < 40; ++r) {
    round();  // warms the records, the event slab and the due scratch,
              // level-2 cascades included
  }
  const uint64_t before = g_allocations;
  for (int r = 0; r < 64; ++r) {
    round();
  }
  const uint64_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(fired, 104 * 42);
  EXPECT_GT(wheel.cascades(), 0u);
}

// A Simulator builds its wheel at the first timers() call, not before, so a
// simulation that arms no timer pays nothing for it; later calls return
// the same wheel.
TEST(TimerWheel, SimulatorBuildsItsWheelOnFirstUse) {
  Simulator sim;
  sim.In(FromNanos(1), [] {});
  sim.Run();  // warms the event storage
  const uint64_t before = g_allocations;
  TimerWheel& wheel = sim.timers();
  const uint64_t built = g_allocations;
  EXPECT_GT(built, before);
  EXPECT_EQ(&sim.timers(), &wheel);
  EXPECT_EQ(g_allocations, built);
  EXPECT_EQ(wheel.sim(), &sim);
  int fired = 0;
  wheel.In(FromMicros(3), [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), FromNanos(1) + FromMicros(3));
}

TEST(TimerWheel, StaleIdOfRecycledRecordIsRejected) {
  Simulator sim;
  TimerWheel wheel(&sim);
  const auto id = wheel.In(FromNanos(100), [] {});
  sim.Run();  // fires; record recycled
  EXPECT_FALSE(wheel.Cancel(id));
  const auto id2 = wheel.In(FromNanos(100), [] {});
  EXPECT_NE(id, id2);  // generation bump — old handle can't hit new timer
  EXPECT_FALSE(wheel.Cancel(id));
  EXPECT_TRUE(wheel.Cancel(id2));
  sim.Run();
  EXPECT_EQ(wheel.live(), 0u);
}

}  // namespace
}  // namespace snicsim

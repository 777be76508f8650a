#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/callback.h"
#include "tests/sim/simulator_test_peer.h"

namespace snicsim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(FromNanos(30), [&] { order.push_back(3); });
  sim.At(FromNanos(10), [&] { order.push_back(1); });
  sim.At(FromNanos(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), FromNanos(30));
}

TEST(Simulator, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.At(FromNanos(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Simulator, CallbacksMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.In(FromNanos(1), [&] {
    ++fired;
    sim.In(FromNanos(1), [&] {
      ++fired;
      sim.In(FromNanos(1), [&] { ++fired; });
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), FromNanos(3));
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.At(FromNanos(100), [&] { ++fired; });
  sim.At(FromNanos(300), [&] { ++fired; });
  sim.RunUntil(FromNanos(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), FromNanos(200));
  sim.RunUntil(FromNanos(400));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), FromNanos(400));
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(FromNanos(50));
  sim.RunFor(FromNanos(50));
  EXPECT_EQ(sim.now(), FromNanos(100));
}

TEST(Simulator, EventAtBoundaryIncludedByRunUntil) {
  Simulator sim;
  bool fired = false;
  sim.At(FromNanos(10), [&] { fired = true; });
  sim.RunUntil(FromNanos(10));
  EXPECT_TRUE(fired);
}

TEST(Simulator, ProcessedCounts) {
  Simulator sim;
  for (int i = 0; i < 17; ++i) {
    sim.In(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.processed(), 17u);
}

TEST(Simulator, SeqRenumberPreservesOrderAcrossWrapThreshold) {
  // The queue's 32-bit seq comparison is exact only while live seqs span
  // less than 2^31; Simulator renumbers pending events before the counter
  // reaches the threshold. Cross the threshold with a long-lived far-future
  // event plus same-time events scheduled on both sides of the renumber,
  // and require exact FIFO order throughout.
  Simulator sim;
  std::vector<int> order;
  sim.At(FromNanos(1000), [&] { order.push_back(1000); });
  for (int i = 0; i < 50; ++i) {
    sim.At(FromNanos(10), [&order, i] { order.push_back(i); });
  }
  // Next 3 schedules still use pre-renumber seqs near 2^31; the 4th
  // triggers RenumberSeqs() with the queue fully populated.
  SimulatorTestPeer::FastForwardSeqToNearRenumber(sim, 3);
  for (int i = 50; i < 100; ++i) {
    sim.At(FromNanos(10), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(order.back(), 1000);
}

TEST(Simulator, QueuedEventAtSameTimeFiresBeforeLaneEvent) {
  // An event scheduled for T before the clock reached T (queue, lower seq)
  // precedes one scheduled at exactly now() == T (lane, higher seq), even
  // though the lane is consulted first.
  Simulator sim;
  std::vector<int> order;
  sim.At(FromNanos(10), [&] {
    order.push_back(1);
    sim.At(sim.now(), [&] { order.push_back(4); });
  });
  sim.At(FromNanos(10), [&] { order.push_back(2); });
  sim.At(FromNanos(10), [&] {
    order.push_back(3);
    sim.In(0, [&] { order.push_back(5); });
  });
  sim.At(FromNanos(11), [&] { order.push_back(6); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, RunBoundsAndNextEventTimeSeeTheLane) {
  Simulator sim;
  std::vector<int> order;
  sim.RunUntil(FromNanos(5));
  sim.At(FromNanos(5), [&] { order.push_back(1); });  // at now(): the lane
  sim.At(FromNanos(7), [&] { order.push_back(2); });
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.next_event_time(), FromNanos(5));
  sim.RunBefore(FromNanos(5));  // exclusive bound: the lane event stays
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(sim.now(), FromNanos(5));
  sim.RunBefore(FromNanos(7));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), FromNanos(7));
  EXPECT_EQ(sim.next_event_time(), FromNanos(7));
  sim.At(FromNanos(7), [&] { order.push_back(3); });  // lane, behind the queue's 7
  EXPECT_EQ(sim.next_event_time(), FromNanos(7));
  sim.RunUntil(FromNanos(7));  // inclusive bound: both events at 7 run
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.next_event_time(), Simulator::kNoEvent);
  sim.At(sim.now(), [&] { order.push_back(4); });
  EXPECT_EQ(sim.next_event_time(), FromNanos(7));
  sim.RunFor(0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.processed(), 4u);
}

TEST(Simulator, SeqRenumberPreservesOrderWithLaneEntriesPending) {
  // Cross the renumber threshold while both the lane (events at now()) and
  // the queue hold pending events; renumbering must keep their merged order.
  Simulator sim;
  std::vector<int> order;
  sim.At(FromNanos(1000), [&] { order.push_back(1000); });
  sim.RunUntil(FromNanos(10));
  for (int i = 0; i < 50; ++i) {
    sim.At(FromNanos(10), [&order, i] { order.push_back(i); });  // lane
  }
  for (int i = 200; i < 210; ++i) {
    sim.At(FromNanos(20), [&order, i] { order.push_back(i); });  // queue
  }
  SimulatorTestPeer::FastForwardSeqToNearRenumber(sim, 3);
  for (int i = 50; i < 100; ++i) {
    sim.At(FromNanos(10), [&order, i] { order.push_back(i); });
  }
  for (int i = 210; i < 220; ++i) {
    sim.At(FromNanos(20), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    expected.push_back(i);
  }
  for (int i = 200; i < 220; ++i) {
    expected.push_back(i);
  }
  expected.push_back(1000);
  EXPECT_EQ(order, expected);
}

// A seeded random process: every fired event schedules up to three
// successors, a third of them at zero delay. `schedule(delay, id)` is the
// queue under test; ids are handed out in scheduling order, so (time, id)
// is exactly the (time, seq) dispatch key.
class RandomProcess {
 public:
  RandomProcess(uint64_t seed, uint64_t budget) : rng_(seed), budget_(budget) {}

  template <typename Schedule>
  void Seed(Schedule&& schedule) {
    for (int i = 0; i < 64; ++i) {
      Spawn(schedule);
    }
  }
  template <typename Schedule>
  void Fire(SimTime now, uint64_t id, Schedule&& schedule) {
    fired_.emplace_back(now, id);
    const uint64_t n = rng_.Next() % 4;
    for (uint64_t k = 0; k < n; ++k) {
      Spawn(schedule);
    }
  }
  const std::vector<std::pair<SimTime, uint64_t>>& fired() const { return fired_; }
  uint64_t scheduled() const { return next_id_; }

 private:
  template <typename Schedule>
  void Spawn(Schedule& schedule) {
    if (next_id_ >= budget_) {
      return;
    }
    const SimTime delay = rng_.Next() % 3 == 0 ? 0 : static_cast<SimTime>(1 + rng_.Next() % 50);
    schedule(delay, next_id_++);
  }

  Rng rng_;
  uint64_t budget_;
  uint64_t next_id_ = 0;
  std::vector<std::pair<SimTime, uint64_t>> fired_;
};

TEST(Simulator, MatchesReferenceOrderOnRandomZeroDelayMix) {
  constexpr uint64_t kEvents = 100000;
  RandomProcess actual(17, kEvents);
  {
    Simulator sim;
    std::function<void(SimTime, uint64_t)> schedule = [&](SimTime delay, uint64_t id) {
      sim.In(delay, [&actual, &sim, &schedule, id] { actual.Fire(sim.now(), id, schedule); });
    };
    actual.Seed(schedule);
    sim.Run();
    EXPECT_EQ(sim.processed(), actual.scheduled());
  }
  // Reference: one binary heap on the full (time, id) key.
  RandomProcess reference(17, kEvents);
  {
    using Entry = std::tuple<SimTime, uint64_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> q;
    SimTime now = 0;
    auto schedule = [&](SimTime delay, uint64_t id) { q.emplace(now + delay, id); };
    reference.Seed(schedule);
    while (!q.empty()) {
      const auto [t, id] = q.top();
      q.pop();
      now = t;
      reference.Fire(now, id, schedule);
    }
  }
  ASSERT_GT(reference.scheduled(), kEvents / 2);
  EXPECT_EQ(actual.scheduled(), reference.scheduled());
  EXPECT_TRUE(actual.fired() == reference.fired());
}

TEST(SimulatorDeathTest, SchedulingEmptyCallbackAborts) {
  // An empty callback used to surface only at dispatch (as UB through a
  // null vtable); it must abort loudly at schedule time instead.
  Simulator sim;
  EXPECT_DEATH(sim.At(FromNanos(1), SimCallback()), "CHECK failed");
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.At(FromNanos(10), [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(FromNanos(5), [] {}), "CHECK failed");
}

TEST(Simulator, CallbackMaySchedulerAtCurrentTime) {
  // Scheduling at exactly now() from inside a running callback is legal and
  // the new event fires after every event already pending at that time.
  Simulator sim;
  std::vector<int> order;
  sim.At(FromNanos(10), [&] {
    order.push_back(1);
    sim.At(sim.now(), [&] { order.push_back(3); });
  });
  sim.At(FromNanos(10), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), FromNanos(10));
}

TEST(Simulator, MoveOnlyCaptures) {
  // SimCallback accepts move-only closures that std::function rejects.
  Simulator sim;
  auto value = std::make_unique<int>(41);
  int observed = 0;
  sim.In(FromNanos(1), [v = std::move(value), &observed] { observed = *v + 1; });
  sim.Run();
  EXPECT_EQ(observed, 42);
}

TEST(Simulator, OversizedCapturesFallBackToHeap) {
  // Captures beyond the inline buffer still work (heap-boxed path).
  Simulator sim;
  std::array<uint64_t, 32> big{};  // 256 bytes > SimCallback::kInlineBytes
  big[0] = 7;
  big[31] = 9;
  uint64_t sum = 0;
  sim.In(FromNanos(1), [big, &sum] { sum = big[0] + big[31]; });
  sim.Run();
  EXPECT_EQ(sum, 16u);
}

TEST(Simulator, SlotReuseAcrossManyWaves) {
  // Interleaved schedule/drain waves exercise slab slot recycling: event
  // order must stay exact while slots are reused arbitrarily.
  Simulator sim;
  uint64_t fired = 0;
  SimTime last = -1;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 97; ++i) {
      sim.In(FromNanos(1 + (i * 37) % 13), [&] {
        EXPECT_GE(sim.now(), last);
        last = sim.now();
        ++fired;
      });
    }
    sim.RunFor(FromNanos(20));
  }
  sim.Run();
  EXPECT_EQ(fired, 50u * 97u);
}

TEST(SmallFunctionTest, BoxedCountTracksOnlyHeapFallbacks) {
  const uint64_t before = SmallFunctionBoxedCount();
  int x = 0;
  SimCallback small = [&x] { ++x; };
  SimCallback moved = std::move(small);
  moved();
  EXPECT_EQ(SmallFunctionBoxedCount(), before);
  std::array<uint64_t, 32> big{};
  SimCallback boxed = [big, &x] { x += static_cast<int>(big[0]); };
  EXPECT_EQ(SmallFunctionBoxedCount(), before + 1);
  SimCallback boxed_moved = std::move(boxed);  // relocating a box is free
  EXPECT_EQ(SmallFunctionBoxedCount(), before + 1);
}

TEST(SmallFunctionTest, DiscardRunsTheDropHalfInsteadOfTheTarget) {
  int runs = 0;
  int drops = 0;
  SmallFunction<void(int)> f =
      WithDiscard([&runs](int n) { runs += n; }, [&drops] { ++drops; });
  f.Discard();
  EXPECT_TRUE(f == nullptr);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(drops, 1);
  f.Discard();  // empty: no-op
  EXPECT_EQ(drops, 1);

  SmallFunction<void(int)> g =
      WithDiscard([&runs](int n) { runs += n; }, [&drops] { ++drops; });
  g.CallOnce(3);
  EXPECT_EQ(runs, 3);
  {
    SmallFunction<void(int)> h =
        WithDiscard([&runs](int n) { runs += n; }, [&drops] { ++drops; });
  }
  EXPECT_EQ(drops, 1);  // destruction is not a discard
}

TEST(SmallFunctionTest, DiscardOfAPlainClosureDestroysIt) {
  auto token = std::make_shared<int>(1);
  SimCallback cb = [token] { (void)token; };
  EXPECT_EQ(token.use_count(), 2);
  cb.Discard();
  EXPECT_TRUE(cb == nullptr);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFunctionTest, NullStates) {
  SimCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_TRUE(cb == nullptr);
  cb = [] {};
  EXPECT_TRUE(static_cast<bool>(cb));
  cb = nullptr;
  EXPECT_TRUE(cb == nullptr);
}

TEST(SmallFunctionTest, MoveTransfersTarget) {
  int calls = 0;
  SimCallback a = [&calls] { ++calls; };
  SimCallback b = std::move(a);
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move): states spec'd
  b();
  b();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFunctionTest, DestroysCaptureExactlyOnce) {
  // shared_ptr use_count tracks capture lifetime across moves (non-trivial
  // relocation path) and destruction.
  auto token = std::make_shared<int>(1);
  EXPECT_EQ(token.use_count(), 1);
  {
    SimCallback a = [token] { (void)token; };
    EXPECT_EQ(token.use_count(), 2);
    SimCallback b = std::move(a);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFunctionTest, ReturnValuesAndArguments) {
  SmallFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(20, 22), 42);
  // Move-only arguments pass through the type-erased boundary.
  SmallFunction<int(std::unique_ptr<int>)> deref = [](std::unique_ptr<int> p) {
    return *p;
  };
  EXPECT_EQ(deref(std::make_unique<int>(7)), 7);
}

TEST(SmallFunctionTest, CallOnceLeavesEmpty) {
  auto token = std::make_shared<int>(1);
  SimCallback cb = [token] { (void)token; };
  EXPECT_EQ(token.use_count(), 2);
  cb.CallOnce();
  EXPECT_TRUE(cb == nullptr);
  EXPECT_EQ(token.use_count(), 1);  // capture destroyed by the call itself
}

TEST(SmallFunctionTest, ThrowingCallOnceStillDestroysInlineCapture) {
  // CallOnce nulls the vtable before invoking, so InvokeDestroy's scope
  // guard is the only thing left that can release a capture whose target
  // throws.
  auto token = std::make_shared<int>(1);
  SimCallback cb = [token] { throw std::runtime_error("target threw"); };
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(cb.CallOnce(), std::runtime_error);
  EXPECT_TRUE(cb == nullptr);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFunctionTest, ThrowingCallOnceStillFreesBoxedCapture) {
  auto token = std::make_shared<int>(1);
  std::array<uint64_t, 32> big{};  // forces the heap-boxed representation
  SimCallback cb = [token, big] {
    (void)big;
    throw std::runtime_error("target threw");
  };
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(cb.CallOnce(), std::runtime_error);
  EXPECT_TRUE(cb == nullptr);
  EXPECT_EQ(token.use_count(), 1);  // ASan would flag the leaked box too
}

}  // namespace
}  // namespace snicsim

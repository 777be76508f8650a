#include "src/sim/server.h"

#include <gtest/gtest.h>

#include <vector>

namespace snicsim {
namespace {

TEST(BusyServer, SerializesJobs) {
  Simulator sim;
  BusyServer s(&sim);
  EXPECT_EQ(s.Enqueue(FromNanos(10)), FromNanos(10));
  EXPECT_EQ(s.Enqueue(FromNanos(10)), FromNanos(20));
  EXPECT_EQ(s.Enqueue(FromNanos(5)), FromNanos(25));
  EXPECT_EQ(s.jobs(), 3u);
  EXPECT_EQ(s.busy_time(), FromNanos(25));
}

TEST(BusyServer, HonorsEarliestStart) {
  Simulator sim;
  BusyServer s(&sim);
  EXPECT_EQ(s.EnqueueAt(FromNanos(100), FromNanos(10)), FromNanos(110));
  // Queued behind the first job even though it is "ready" earlier.
  EXPECT_EQ(s.EnqueueAt(FromNanos(0), FromNanos(10)), FromNanos(120));
}

TEST(BusyServer, CallbackFiresAtCompletion) {
  Simulator sim;
  BusyServer s(&sim);
  SimTime fired_at = -1;
  s.Enqueue(FromNanos(42), [&] { fired_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(fired_at, FromNanos(42));
}

TEST(BusyServer, BacklogReflectsQueue) {
  Simulator sim;
  BusyServer s(&sim);
  EXPECT_EQ(s.Backlog(), 0);
  s.Enqueue(FromNanos(100));
  EXPECT_EQ(s.Backlog(), FromNanos(100));
  sim.RunUntil(FromNanos(40));
  EXPECT_EQ(s.Backlog(), FromNanos(60));
  sim.RunUntil(FromNanos(200));
  EXPECT_EQ(s.Backlog(), 0);
}

TEST(BusyServer, UtilizationOverWindow) {
  Simulator sim;
  BusyServer s(&sim);
  s.Enqueue(FromNanos(30));
  sim.RunUntil(FromNanos(100));
  EXPECT_DOUBLE_EQ(s.Utilization(FromNanos(100)), 0.3);
}

TEST(MultiServer, ParallelServiceUpToK) {
  Simulator sim;
  MultiServer m(&sim, 3);
  // Three jobs run in parallel; the fourth queues behind the earliest.
  EXPECT_EQ(m.Enqueue(FromNanos(10)), FromNanos(10));
  EXPECT_EQ(m.Enqueue(FromNanos(10)), FromNanos(10));
  EXPECT_EQ(m.Enqueue(FromNanos(10)), FromNanos(10));
  EXPECT_EQ(m.Enqueue(FromNanos(10)), FromNanos(20));
  EXPECT_EQ(m.jobs(), 4u);
}

TEST(MultiServer, PicksEarliestFreeServer) {
  Simulator sim;
  MultiServer m(&sim, 2);
  m.Enqueue(FromNanos(100));
  m.Enqueue(FromNanos(10));
  // Second server frees at 10, so this lands there.
  EXPECT_EQ(m.Enqueue(FromNanos(10)), FromNanos(20));
}

TEST(TokenPool, GrantsUpToCapacityImmediately) {
  Simulator sim;
  TokenPool pool(&sim, 2);
  int granted = 0;
  pool.Acquire([&] { ++granted; });
  pool.Acquire([&] { ++granted; });
  pool.Acquire([&] { ++granted; });  // must wait
  sim.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(pool.waiting(), 1u);
  pool.Release();
  sim.Run();
  EXPECT_EQ(granted, 3);
}

TEST(TokenPool, FifoGrantOrder) {
  Simulator sim;
  TokenPool pool(&sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    pool.Acquire([&order, &pool, i] {
      order.push_back(i);
      pool.Release();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(pool.available(), 1);
}

TEST(TokenPool, FifoOrderSurvivesRingWrapAndGrowth) {
  // The waiter ring starts at 8 entries: wrap it, then grow it while its
  // head is mid-array; grants must still come out in arrival order.
  Simulator sim;
  TokenPool pool(&sim, 1);
  ASSERT_TRUE(pool.TryAcquire());
  std::vector<int> order;
  int next = 0;
  const auto wait = [&](int n) {
    for (int k = 0; k < n; ++k) {
      const int i = next++;
      pool.Acquire([&order, i] { order.push_back(i); });
    }
  };
  const auto grant = [&](int n) {
    for (int k = 0; k < n; ++k) {
      pool.Release();  // hands the token to the oldest waiter
      sim.Run();
    }
  };
  wait(5);
  grant(3);
  wait(6);  // 8 waiting, wrapped round the ring's end
  wait(3);  // grows with the head mid-array
  EXPECT_EQ(pool.waiting(), 11u);
  grant(11);
  std::vector<int> expected(14);
  for (int i = 0; i < 14; ++i) {
    expected[static_cast<size_t>(i)] = i;
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pool.waiting(), 0u);
  EXPECT_EQ(pool.max_waiters(), 11u);
  pool.Release();
  EXPECT_EQ(pool.available(), 1);
}

TEST(TokenPool, MaxWaitersHighWatermark) {
  Simulator sim;
  TokenPool pool(&sim, 1);
  pool.Acquire([] {});
  pool.Acquire([] {});
  pool.Acquire([] {});
  sim.Run();
  EXPECT_EQ(pool.max_waiters(), 2u);
}

TEST(TokenPoolDeathTest, OverReleaseAborts) {
  Simulator sim;
  TokenPool pool(&sim, 1);
  EXPECT_DEATH(pool.Release(), "CHECK failed");
}

// A capture that counts how often it is moved.
struct MoveCounter {
  explicit MoveCounter(int* n) : moves(n) {}
  MoveCounter(MoveCounter&& o) noexcept : moves(o.moves) { ++*moves; }
  MoveCounter(const MoveCounter&) = delete;
  int* moves;
};

// A schedule constructs the closure in its event slot: one move from the
// caller's temporary, however many layers forward it on the way.
TEST(ClosureMoves, EachScheduleMovesAClosureOnce) {
  Simulator sim;
  int moves = 0;
  sim.At(1, [c = MoveCounter(&moves)] {});
  EXPECT_EQ(moves, 1);

  moves = 0;
  BusyServer server(&sim);
  server.EnqueueAt(0, 5, [c = MoveCounter(&moves)] {});
  EXPECT_EQ(moves, 1);

  moves = 0;
  TokenPool pool(&sim, 1);
  pool.Acquire([c = MoveCounter(&moves)] {});  // free token: straight to a slot
  EXPECT_EQ(moves, 1);

  moves = 0;
  pool.Acquire([c = MoveCounter(&moves)] {});  // waits: one move into the ring
  EXPECT_EQ(moves, 1);
  pool.Release();  // ... and one from the ring into its slot
  EXPECT_EQ(moves, 2);
  sim.Run();
}

}  // namespace
}  // namespace snicsim

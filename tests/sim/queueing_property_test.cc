// Randomized-stream properties of the queueing primitives: work
// conservation, capacity bounds, FIFO ordering, token conservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/server.h"

namespace snicsim {
namespace {

class QueueSeedProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueueSeedProperty, BusyServerIsWorkConserving) {
  Simulator sim;
  BusyServer s(&sim);
  Rng rng(GetParam());
  SimTime total_service = 0;
  SimTime last_done = 0;
  SimTime first_arrival = -1;
  SimTime arrival = 0;
  for (int i = 0; i < 500; ++i) {
    arrival += static_cast<SimTime>(rng.NextBelow(FromNanos(40)));
    const SimTime service = static_cast<SimTime>(rng.NextBelow(FromNanos(30))) + 1;
    if (first_arrival < 0) {
      first_arrival = arrival;
    }
    total_service += service;
    last_done = s.EnqueueAt(arrival, service);
  }
  // Completion of everything can never beat the sum of all service time,
  // and an always-backlogged server finishes exactly at first + total.
  EXPECT_GE(last_done, first_arrival + 1);
  EXPECT_GE(last_done - first_arrival + FromNanos(40) * 500, total_service);
  EXPECT_EQ(s.busy_time(), total_service);
  EXPECT_EQ(s.jobs(), 500u);
}

TEST_P(QueueSeedProperty, BusyServerCompletionsMonotone) {
  Simulator sim;
  BusyServer s(&sim);
  Rng rng(GetParam() + 1);
  SimTime prev = 0;
  for (int i = 0; i < 300; ++i) {
    const SimTime done = s.EnqueueAt(static_cast<SimTime>(rng.NextBelow(FromMicros(1))),
                                     static_cast<SimTime>(rng.NextBelow(FromNanos(50))));
    EXPECT_GE(done, prev);
    prev = done;
  }
}

TEST_P(QueueSeedProperty, MultiServerNeverExceedsAggregateCapacity) {
  Simulator sim;
  const int k = 8;
  MultiServer m(&sim, k);
  Rng rng(GetParam() + 2);
  const SimTime service = FromNanos(100);
  std::vector<SimTime> dones;
  for (int i = 0; i < 400; ++i) {
    dones.push_back(m.EnqueueAt(0, service));
  }
  std::sort(dones.begin(), dones.end());
  // In any prefix window [0, t], at most k * t / service jobs may finish.
  for (size_t i = 0; i < dones.size(); ++i) {
    const double cap = static_cast<double>(k) * static_cast<double>(dones[i]) /
                       static_cast<double>(service);
    EXPECT_LE(static_cast<double>(i + 1), cap + 1e-9) << i;
  }
}

TEST_P(QueueSeedProperty, TokenPoolConservation) {
  Simulator sim;
  const int capacity = 7;
  TokenPool pool(&sim, capacity);
  Rng rng(GetParam() + 3);
  int held = 0;
  int max_held = 0;
  int grants = 0;
  const int kAcquires = 300;
  for (int i = 0; i < kAcquires; ++i) {
    sim.In(static_cast<SimTime>(rng.NextBelow(FromMicros(2))), [&] {
      pool.Acquire([&] {
        ++grants;
        ++held;
        max_held = std::max(max_held, held);
        EXPECT_LE(held, capacity);
        sim.In(static_cast<SimTime>(1 + rng.NextBelow(FromNanos(200))), [&] {
          --held;
          pool.Release();
        });
      });
    });
  }
  sim.Run();
  EXPECT_EQ(grants, kAcquires);
  EXPECT_EQ(held, 0);
  EXPECT_EQ(pool.available(), capacity);
  EXPECT_EQ(max_held, capacity);  // the pool should actually saturate
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueSeedProperty, ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace snicsim

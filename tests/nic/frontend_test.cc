#include "src/nic/frontend.h"

#include <gtest/gtest.h>

namespace snicsim {
namespace {

TEST(FrontEnd, SharedOnlyServiceTime) {
  Simulator sim;
  FrontEnd fe(&sim, Rate::Mpps(100), Rate::PerSec(0));
  const int ep = fe.AddEndpoint();
  EXPECT_EQ(fe.Process(0, ep, 1.0), FromNanos(10));
  EXPECT_EQ(fe.Process(0, ep, 1.0), FromNanos(20));
  EXPECT_EQ(fe.Process(0, ep, 0.5), FromNanos(25));
}

TEST(FrontEnd, EndpointlessWorkAllowed) {
  Simulator sim;
  FrontEnd fe(&sim, Rate::Mpps(100), Rate::Mpps(10));
  EXPECT_EQ(fe.Process(0, -1, 1.0), FromNanos(10));
}

TEST(FrontEnd, DedicatedSliceAddsCapacity) {
  Simulator sim;
  // Shared 100 Mpps + 25 Mpps dedicated per endpoint.
  FrontEnd fe(&sim, Rate::Mpps(100), Rate::Mpps(25));
  const int ep = fe.AddEndpoint();
  // Offer far more work than shared capacity for 1 us.
  uint64_t done_by_1us = 0;
  for (int i = 0; i < 1000; ++i) {
    if (fe.Process(0, ep, 1.0) <= FromMicros(1)) {
      ++done_by_1us;
    }
  }
  // One endpoint reaches shared + its dedicated slice = ~125 ops in 1 us.
  EXPECT_NEAR(static_cast<double>(done_by_1us), 125.0, 3.0);
}

TEST(FrontEnd, TwoEndpointsReachFullCapacity) {
  Simulator sim;
  FrontEnd fe(&sim, Rate::Mpps(100), Rate::Mpps(25));
  const int a = fe.AddEndpoint();
  const int b = fe.AddEndpoint();
  uint64_t done_by_1us = 0;
  for (int i = 0; i < 2000; ++i) {
    if (fe.Process(0, i % 2 == 0 ? a : b, 1.0) <= FromMicros(1)) {
      ++done_by_1us;
    }
  }
  // Shared 100 + 2 x 25 dedicated = ~150 ops in 1 us (paper Fig. 11's
  // single-path vs concurrent-path gap).
  EXPECT_NEAR(static_cast<double>(done_by_1us), 150.0, 5.0);
}

TEST(FrontEnd, ReadyTimeRespected) {
  Simulator sim;
  FrontEnd fe(&sim, Rate::Mpps(100), Rate::PerSec(0));
  const int ep = fe.AddEndpoint();
  EXPECT_EQ(fe.Process(FromNanos(100), ep, 1.0), FromNanos(110));
}

TEST(FrontEnd, FractionalUnits) {
  Simulator sim;
  FrontEnd fe(&sim, Rate::Mpps(100), Rate::PerSec(0));
  const int ep = fe.AddEndpoint();
  EXPECT_EQ(fe.Process(0, ep, 2.5), FromNanos(25));
}

}  // namespace
}  // namespace snicsim

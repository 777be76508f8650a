// Testbed construction is allocation-light: one paths-grid point (a
// BlueField SoC responder under the paper's eleven requester machines)
// built, started and torn down with a 1 ps window makes a bounded number
// of heap allocations, counted by this binary's operator new. Components
// are held by value and no server formats a name, so the count is a few
// per machine, not a few per DRAM bank.
#include <gtest/gtest.h>

#include "src/workload/harness.h"
#include "tests/common/allocation_counter.h"

namespace snicsim {
namespace {

TEST(TestbedSetup, PathsPointAllocatesLittle) {
  HarnessConfig cfg;  // 11 requester machines x 12 threads
  cfg.warmup = 1;
  cfg.window = 1;
  ASSERT_EQ(cfg.client_machines, 11);
  // The first call settles any one-time state; the second is counted.
  MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, 64, cfg);
  const uint64_t before = g_allocations;
  MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, 64, cfg);
  const uint64_t allocations = g_allocations - before;
  // 45 with libstdc++ 12: a few per requester machine (the machine, its
  // per-thread array), the server's fixed arrays, two for the fabric's
  // ports, and the event queue's growth. Token pools allocate nothing until
  // a first waiter, and the simulator builds no timer wheel because no
  // paths point arms a timer. A heap PcieLink per port made it 60.
  EXPECT_LE(allocations, 50u);
}

}  // namespace
}  // namespace snicsim

// Experiment setup is allocation-light beyond the paths grid too: one
// serving point and one rack point, each built, started and torn down with
// a 1 ps window, make a bounded number of heap allocations, counted by this
// binary's operator new. The shapes are snicbench's serve_tenants and
// rack_read workloads, whose per-point setup cost those benchmarks time.
#include <gtest/gtest.h>

#include "bench/serve_tenants_shape.h"
#include "src/governor/serving.h"
#include "src/topo/rack_kv.h"
#include "tests/common/allocation_counter.h"

namespace snicsim {
namespace {

TEST(ServingSetup, ServeTenantsPointAllocatesLittle) {
  governor::ServingRunConfig c = ServeTenantsShape();
  c.warmup = 1;
  c.window = 1;
  // The first call settles any one-time state; the second is counted.
  governor::RunServing(c);
  const uint64_t before = g_allocations;
  governor::RunServing(c);
  const uint64_t allocations = g_allocations - before;
  // 472 with libstdc++ 12 while the fleet allocated each of its 256 logical
  // clients on its own; 216 with them packed into one array; 150 once the
  // governor read its meters directly instead of through a per-server
  // metric registry; 147 since a histogram allocates no buckets until it
  // records; 140 since a fabric holds its ports in chunks. The rest is the
  // server, four client machines, the tenant pipelines and the event
  // queue's growth.
  EXPECT_LE(allocations, 170u);
}

// snicbench rack_read: eight servers, 80,000 closed-loop users on aggregate
// fleets, 64 Ki keys. A regression guard at today's count.
TEST(RackKvSetup, RackReadPointAllocatesLittle) {
  RackKvParams p;
  p.servers = 8;
  p.users = 80000;
  p.think_mean_us = 1000.0;
  p.zipf_theta = 0.99;
  p.layout.keys = 64 * 1024;
  p.layout.cached_keys = 8 * 1024;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.write_fraction = 0.05;
  p.window = 1;
  p.seed = 1;
  RunRackKv(p);
  const uint64_t before = g_allocations;
  RunRackKv(p);
  const uint64_t allocations = g_allocations - before;
  // 468 with libstdc++ 12 (709 while each server stack built a metric
  // registry for its governor, 493 while every histogram allocated its
  // buckets up front, 484 while each fabric port was its own heap cell):
  // eight server stacks. The aggregate fleets
  // hold no per-user records.
  EXPECT_LE(allocations, 560u);
}

}  // namespace
}  // namespace snicsim

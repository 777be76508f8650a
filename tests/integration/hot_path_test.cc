// The request hot path keeps per-request state in pooled records, not in
// nested closures. Two properties pin that down:
//  - no closure on the path outgrows SmallFunction's inline buffer, so
//    steady-state traffic boxes (heap-allocates) essentially nothing;
//  - every terminal path — a dropped burst, a crash-eaten serve, a
//    timeout — hands its records back, so a drained faulted run holds none.
#include <gtest/gtest.h>

#include <string>

#include "src/fault/plan.h"
#include "src/governor/serving.h"
#include "src/offload/tenant_config.h"
#include "src/sim/callback.h"
#include "src/topo/rack_kv.h"
#include "src/workload/harness.h"

namespace snicsim {
namespace {

// Fewer than one boxed closure per 1,000 completed requests.
void ExpectAlmostNoBoxing(uint64_t boxed, uint64_t completed, const std::string& what) {
  ASSERT_GT(completed, 0u) << what;
  EXPECT_LT(boxed * 1000, completed)
      << what << ": " << boxed << " boxed closures for " << completed << " requests";
}

HarnessConfig SmallHarness() {
  HarnessConfig c;
  c.client_machines = 2;
  c.warmup = FromMicros(10);
  c.window = FromMicros(60);
  return c;
}

TEST(HotPath, InboundPathsBoxNoClosures) {
  for (const ServerKind kind :
       {ServerKind::kRnicHost, ServerKind::kBluefieldHost, ServerKind::kBluefieldSoc}) {
    for (const Verb verb : {Verb::kRead, Verb::kWrite, Verb::kSend}) {
      const uint64_t before = SmallFunctionBoxedCount();
      const Measurement m = MeasureInboundPath(kind, verb, 64, SmallHarness());
      ExpectAlmostNoBoxing(SmallFunctionBoxedCount() - before, m.ops,
                           std::string(ServerKindName(kind)) + " " + VerbName(verb));
    }
  }
}

TEST(HotPath, LocalPathBoxesNoClosures) {
  const uint64_t before = SmallFunctionBoxedCount();
  const Measurement m =
      MeasureLocalPath(/*s2h=*/true, Verb::kRead, 64, LocalRequesterParams{}, SmallHarness());
  ExpectAlmostNoBoxing(SmallFunctionBoxedCount() - before, m.ops, "S2H READ");
}

governor::ServingRunConfig SmallServing() {
  governor::ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 128;
  c.fleet.seed = 42;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.policy = governor::PolicyKind::kGovernor;
  c.fleet.open_loop = true;
  c.fleet.open_mops = 1.0;
  c.resil.deadline = FromMicros(40);
  c.warmup = FromMicros(30);
  c.window = FromMicros(100);
  std::string error;
  EXPECT_TRUE(offload::ParseTenantSet(
      "cores=2,host_cores=2,seed=7,budget=0.05,"
      "tenant=victim:filter:1:0.3:2048:40,"
      "tenant=agg:compress:8:0.4:4096:0:0.2,"
      "tenant=kvtel:kv:2:0:1024:40",
      &c.tenants, &error))
      << error;
  return c;
}

TEST(HotPath, ServingWithTenantsBoxesNoClosures) {
  governor::ServingRunConfig c = SmallServing();
  c.fleet.open_mops = 8.0;
  c.window = FromMicros(300);
  const uint64_t before = SmallFunctionBoxedCount();
  const governor::ServingResult r = governor::RunServing(c);
  ExpectAlmostNoBoxing(SmallFunctionBoxedCount() - before, r.completed, "RunServing");
  EXPECT_EQ(r.live_records, 0u);
}

RackKvParams SmallRack() {
  RackKvParams p;
  p.servers = 3;
  p.users = 1500;
  p.think_mean_us = 500.0;
  p.zipf_theta = 0.9;
  p.layout.keys = 4096;
  p.layout.cached_keys = 1024;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.window = FromMicros(150);
  p.seed = 42;
  return p;
}

TEST(HotPath, RackBoxesNoClosures) {
  RackKvParams p = SmallRack();
  p.window = FromMicros(800);
  const uint64_t before = SmallFunctionBoxedCount();
  const RackKvResult r = RunRackKv(p);
  ExpectAlmostNoBoxing(SmallFunctionBoxedCount() - before, r.completed, "RunRackKv");
}

fault::FaultPlan Faults(const std::string& spec) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(fault::ParseFaultPlan(spec, &plan, &error)) << error;
  return plan;
}

// Drops (lost request and response bursts), a SoC crash (serves eaten
// with no reply), and a host stall (deferred path-③ completions), drained
// to quiescence: every record went back to its pool.
TEST(RequestRecords, FaultedServingRunReleasesEveryRecord) {
  governor::ServingRunConfig c = SmallServing();
  c.faults = Faults("seed=9,drop=0.05,crash=soc:40:90:10,stall=host:60:80");
  const governor::ServingResult r = governor::RunServing(c);
  EXPECT_GT(r.frames_dropped, 0u);
  EXPECT_GT(r.crash_drops, 0u);
  EXPECT_EQ(r.live_records, 0u);
}

TEST(RequestRecords, FaultedServingWithoutRetransmissionReleasesEveryRecord) {
  // With the transport timeout off, a lost copy is never retried: its
  // records are released by the drop itself, not by a later completion.
  governor::ServingRunConfig c = SmallServing();
  c.faults = Faults("seed=9,drop=0.05,crash=soc:40:90:10");
  c.client.transport_timeout = 0;
  const governor::ServingResult r = governor::RunServing(c);
  EXPECT_GT(r.frames_dropped, 0u);
  EXPECT_EQ(r.live_records, 0u);
}

TEST(RequestRecords, FaultedRackReleasesEveryRecord) {
  // RunRackKv checks every domain's engine holds no record after the drain
  // (the run aborts otherwise); serve timeouts settle the crash-eaten serves.
  RackKvParams p = SmallRack();
  p.faults = Faults("seed=9,drop=0.05,crash=soc:40:90:10,stall=host:60:80");
  const RackKvResult r = RunRackKv(p);
  EXPECT_GT(r.timeouts + r.serve_timeouts, 0u);
  EXPECT_EQ(r.generated, r.completed + r.failed + r.shed);
}

}  // namespace
}  // namespace snicsim

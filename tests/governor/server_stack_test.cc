// The per-server stack's bind rules (src/governor/server_stack.h): which
// optional layers a config builds, the path-③ sources the governor's budget
// gate meters, the stop edge of the stack's own clocks, and the endpoint
// names every fault query of the stack uses.
#include "src/governor/server_stack.h"

#include <gtest/gtest.h>

#include <string>

#include "src/fault/plan.h"
#include "src/offload/tenant_config.h"

namespace snicsim {
namespace governor {
namespace {

// One sketch tenant arriving at 1 Mops, and a one-segment flat plan.
constexpr char kOneTenant[] = "tenant=bg:sketch:1:1:512:0";
constexpr char kFlatPlan[] = "version=1,duration=100,seg=0:1";

offload::TenantSetConfig Tenants(const std::string& text) {
  offload::TenantSetConfig cfg;
  std::string error;
  EXPECT_TRUE(offload::ParseTenantSet(text, &cfg, &error)) << error;
  return cfg;
}

trace::TracePlan Plan(const std::string& text) {
  trace::TracePlan plan;
  std::string error;
  EXPECT_TRUE(trace::ParseTracePlan(text, &plan, &error)) << error;
  return plan;
}

struct Rig {
  Rig(const offload::TenantSetConfig& tenants, const trace::TracePlan& plan)
      : stack(&sim, tp, kv::ServingConfig::FromTestbed(tp, kv::ServingLayout()),
              fault::FaultPlan(), resilience::ResilienceConfig(), tenants, plan) {}

  uint64_t Generated() const { return stack.tenants->Results().tenants[0].generated; }

  Simulator sim;
  const TestbedParams tp;
  ServerStack stack;
};

TEST(ServerStack, EmptyConfigsBuildNoOptionalLayer) {
  Rig rig{offload::TenantSetConfig{}, trace::TracePlan{}};
  EXPECT_EQ(rig.stack.resil, nullptr);
  EXPECT_EQ(rig.stack.tenants, nullptr);
  EXPECT_EQ(rig.stack.trace, nullptr);
  EXPECT_EQ(rig.stack.injector, nullptr);
}

TEST(ServerStack, BudgetGateSumsEveryPath3SourceFromTheFirstEpoch) {
  double repair_bytes = 0.0;  // the repair plane's meter, bumped below
  // A compression tenant's items start on the host and cross to the SoC.
  Rig rig(Tenants("tenant=zip:compress:1:2:512:0"), trace::TracePlan{});
  AdaptiveGovernor* gov = rig.stack.AttachGovernor(GovernorConfig(), ClientParams(),
                                                   [&] { return repair_bytes; });
  const kv::ServingExecutor& exec = rig.stack.exec;
  const offload::TenantManager& tenants = *rig.stack.tenants;
  int epochs = 0;
  double sources = 0.0;
  double rate = 0.0;
  gov->SetEpochHook([&](SimTime) {
    if (++epochs > 1) {
      return;
    }
    EXPECT_GT(exec.path3_bytes(), 0u);
    EXPECT_GT(tenants.path3_bytes_total(), 0u);
    EXPECT_GT(repair_bytes, 0.0);
    sources = static_cast<double>(exec.path3_bytes()) +
              static_cast<double>(tenants.path3_bytes_total()) + repair_bytes;
    rate = gov->path3_rate_gbps();
  });
  rig.stack.tenants->Start();
  // One SoC miss (rank past the SoC-resident set) served over path ③.
  const kv::ServingLayout& layout = exec.config().layout;
  PcieLink* client = rig.stack.fabric.AddPort("client", rig.tp.bluefield_nic.network_bandwidth);
  rig.stack.bf->nic().HandleRequest(rig.stack.bf->soc_ep(), Verb::kSend,
                                    layout.Pack(layout.cached_keys, 0), 64, 1.0,
                                    rig.stack.fabric.Route(rig.stack.bf->port(), client),
                                    [](SimTime) {});
  rig.sim.At(FromMicros(2), [&] { repair_bytes = 4096.0; });
  rig.sim.RunUntil(GovernorConfig().epoch + 1);
  ASSERT_EQ(epochs, 1);
  // bytes per epoch -> Gbps.
  EXPECT_DOUBLE_EQ(rate, sources * 8.0 / (ToMicros(GovernorConfig().epoch) * 1e3));
}

TEST(ServerStack, StopIssuingEndsTheTickAndTheTenantStream) {
  Rig rig(Tenants(kOneTenant), Plan(kFlatPlan));
  rig.stack.AttachGovernor(GovernorConfig(), ClientParams());
  rig.stack.tenants->Start();
  uint64_t at_stop = 0;
  rig.sim.At(FromMicros(20), [&] {
    rig.stack.StopIssuing();
    at_stop = rig.Generated();
  });
  // Either clock left running would re-arm itself past the horizon.
  rig.sim.RunUntil(FromMicros(1000));
  EXPECT_TRUE(rig.sim.empty());
  EXPECT_GT(at_stop, 0u);
  EXPECT_EQ(rig.Generated(), at_stop);
}

TEST(ServerStack, TheTraceDrivesTheTenantStream) {
  // bg=0 pauses the background stream until the 50 us boundary.
  Rig paused(Tenants(kOneTenant), Plan("version=1,duration=100,seg=0:1:0:0:0,seg=50:1"));
  Rig flat(Tenants(kOneTenant), Plan(kFlatPlan));
  for (Rig* rig : {&paused, &flat}) {
    rig->stack.tenants->Start();
    rig->sim.RunUntil(FromMicros(40));
  }
  EXPECT_EQ(paused.Generated(), 0u);
  EXPECT_GT(flat.Generated(), 0u);
}

// When one SoC serve and one path-③ READ, both issued on a stack named
// `name` under the fault plan `faults`, complete.
struct SocTimes {
  SimTime serve = -1;
  SimTime local = -1;
};

SocTimes ProbeSoc(const std::string& name, const std::string& faults) {
  fault::FaultPlan plan;
  std::string error;
  EXPECT_TRUE(fault::ParseFaultPlan(faults, &plan, &error)) << error;
  Simulator sim;
  const TestbedParams tp;
  ServerStack stack(&sim, tp, kv::ServingConfig::FromTestbed(tp, kv::ServingLayout()), plan,
                    resilience::ResilienceConfig(), offload::TenantSetConfig(),
                    trace::TracePlan(), name);
  BluefieldServer& bf = *stack.bf;
  // Each endpoint's name is its fault domain.
  EXPECT_EQ(bf.host_ep()->params().name, name + ".host");
  EXPECT_EQ(bf.soc_ep()->params().name, name + ".soc");
  SocTimes t;
  // A get of rank 0, which is SoC-resident, arrives on the SoC endpoint.
  PcieLink* client = stack.fabric.AddPort("client", tp.bluefield_nic.network_bandwidth);
  bf.nic().HandleRequest(bf.soc_ep(), Verb::kSend, stack.exec.config().layout.Pack(0, 0), 64,
                         1.0, stack.fabric.Route(bf.port(), client),
                         [&t](SimTime delivered) { t.serve = delivered; });
  // The SoC reads 64 B of host memory through the NIC (an S2H READ).
  sim.At(FromMicros(1), [&] {
    bf.nic().ExecuteLocalOp(bf.soc_ep(), bf.host_ep(), Verb::kRead, 0, 64,
                            [&t](SimTime done) { t.local = done; });
  });
  sim.Run();
  return t;
}

// A plan scoped to one rack server's SoC stalls that server's serving
// executor and its path-③ completions alike, and no other server's; the
// bare leaf and the single-server name reach the SoC as well.
TEST(ServerStack, ScopedStallReachesServeAndPath3Completions) {
  const SimTime end = FromMicros(50);
  const SocTimes s1 = ProbeSoc("rack.s1", "");
  const SocTimes s2 = ProbeSoc("rack.s2", "");
  const SocTimes single = ProbeSoc("bf_srv", "");
  ASSERT_GT(s1.serve, 0);
  ASSERT_LT(s1.serve, end);
  ASSERT_GT(s1.local, 0);
  ASSERT_LT(s1.local, end);

  for (const std::string plan : {"stall=rack.s1.soc:0:50", "stall=rack.s1:0:50"}) {
    const SocTimes hit = ProbeSoc("rack.s1", plan);
    EXPECT_GT(hit.serve, end) << plan;
    EXPECT_EQ(hit.local, end) << plan;
    const SocTimes miss = ProbeSoc("rack.s2", plan);
    EXPECT_EQ(miss.serve, s2.serve) << plan;
    EXPECT_EQ(miss.local, s2.local) << plan;
  }
  for (const std::string name : {"rack.s1", "rack.s2"}) {
    const SocTimes leaf = ProbeSoc(name, "stall=soc:0:50");
    EXPECT_GT(leaf.serve, end) << name;
    EXPECT_EQ(leaf.local, end) << name;
  }
  const SocTimes named = ProbeSoc("bf_srv", "stall=bf_srv.soc:0:50");
  EXPECT_GT(named.serve, end);
  EXPECT_EQ(named.local, end);
  EXPECT_EQ(ProbeSoc("bf_srv", "stall=rack.s1.soc:0:50").local, single.local);
}

}  // namespace
}  // namespace governor
}  // namespace snicsim

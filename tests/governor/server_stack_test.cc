// The per-server stack's bind rules (src/governor/server_stack.h): which
// optional layers a config builds, the order the governor's live registry
// lists the path-③ meters in, and the stop edge of the stack's own clocks.
#include "src/governor/server_stack.h"

#include <gtest/gtest.h>

#include <string>

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

TEST(ServerStack, GovernorRegistryListsTenantCrossingsBeforeTheExecutor) {
  Rig rig(Tenants(kOneTenant), Plan(kFlatPlan));
  ASSERT_NE(rig.stack.tenants, nullptr);
  ASSERT_NE(rig.stack.trace, nullptr);
  rig.stack.AttachGovernor(GovernorConfig(), ClientParams());
  const auto& rows = rig.stack.live_reg.entries();
  size_t tenant_path3 = rows.size();
  size_t first_serve = rows.size();
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].instance == "tenant" && rows[i].leaf == "path3_bytes") {
      tenant_path3 = i;
    }
    if (rows[i].instance == "serve" && first_serve == rows.size()) {
      first_serve = i;
    }
  }
  ASSERT_LT(tenant_path3, rows.size()) << "tenant.path3_bytes is not registered";
  ASSERT_LT(first_serve, rows.size()) << "the executor registered no rows";
  EXPECT_LT(tenant_path3, first_serve);
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

}  // namespace
}  // namespace governor
}  // namespace snicsim

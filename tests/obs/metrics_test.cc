#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "src/governor/server_stack.h"
#include "src/kvstore/serving.h"
#include "src/offload/tenant_config.h"
#include "src/resilience/resilience.h"
#include "src/topo/rack_kv.h"
#include "src/topo/server.h"
#include "src/topo/testbed_params.h"
#include "src/workload/client.h"
#include "src/workload/fleet.h"
#include "src/workload/local_requester.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace {

TEST(MetricsRegistry, RegistersAndSamplesAtDumpTime) {
  MetricsRegistry reg;
  double v = 1.0;
  ASSERT_TRUE(reg.Register("nic", "ops", "count", "ops served", [&] { return v; }));
  v = 42.0;  // gauges sample live state: the dump must see the update
  std::ostringstream os;
  reg.WriteJson(os);
  EXPECT_NE(os.str().find("\"nic.ops\": {\"value\": 42, \"unit\": \"count\"}"),
            std::string::npos)
      << os.str();
}

TEST(MetricsRegistry, RejectsDuplicateFullNames) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.Register("a.b", "c", "count", "", [] { return 0.0; }));
  EXPECT_FALSE(reg.Register("a.b", "c", "count", "", [] { return 0.0; }));
  // Same leaf under a different instance is fine.
  EXPECT_TRUE(reg.Register("a.d", "c", "count", "", [] { return 0.0; }));
  EXPECT_EQ(reg.entries().size(), 2u);
}

TEST(MetricsRegistry, NonIntegralValuesUseCompactFloat) {
  MetricsRegistry reg;
  ASSERT_TRUE(reg.Register("link", "utilization", "fraction", "", [] { return 0.25; }));
  std::ostringstream os;
  reg.WriteJson(os);
  EXPECT_NE(os.str().find("\"value\": 0.25"), std::string::npos) << os.str();
}

TEST(MetricsRegistry, JsonIsDeterministicAndParsesAsObject) {
  auto build = [](MetricsRegistry* reg) {
    reg->Register("a", "x", "count", "h1", [] { return 1.0; });
    reg->Register("b", "y\"z", "us", "h2", [] { return 2.5; });
  };
  MetricsRegistry r1, r2;
  build(&r1);
  build(&r2);
  std::ostringstream o1, o2;
  r1.WriteJson(o1);
  r2.WriteJson(o2);
  EXPECT_EQ(o1.str(), o2.str());
  // Escaped quote must survive in the key.
  EXPECT_NE(o1.str().find("b.y\\\"z"), std::string::npos);
}

// The full metric catalog of a real topology must be documented: every leaf
// name registered by any component has to appear in DESIGN.md's
// Observability chapter, and every rack counter needs its own catalog row.
// Adding a metric without documenting it fails here.
TEST(MetricsCatalog, EveryRegisteredLeafIsDocumented) {
  Simulator sim;
  const TestbedParams tp;
  // Attach a fault injector so the conditional counters (client reliability
  // layer + the faults. component) are part of the audited catalog too.
  fault::FaultPlan plan;
  plan.drop_rate = 0.01;
  plan.crashes.push_back({"soc", FromMicros(10), FromMicros(20), FromMicros(5)});
  // The serving/resilience stack registers more conditional leaves: the
  // executor's crash counters (faults set), the fleet's shed/deadline
  // ledger (manager set), and the manager's own "resil" component.
  resilience::ResilienceConfig rc;
  rc.deadline = FromMicros(40);
  rc.shedding = true;
  rc.hedging = true;
  rc.breakers = true;
  // A trace plan pulls the conditional "trace" component (thinning /
  // forced-scan counters) into the audited catalog, and the tenant control
  // plane's "tenant" component rides the same audit; the stack builds both.
  trace::TracePlan tplan;
  std::string tperr;
  ASSERT_TRUE(trace::ParseTracePlan("duration=100,seg=0:1", &tplan, &tperr)) << tperr;
  offload::TenantSetConfig tcfg;
  std::string terr;
  ASSERT_TRUE(offload::ParseTenantSet("tenant=t0:sketch:1:1:512:0", &tcfg, &terr)) << terr;
  governor::ServerStack stack(&sim, tp, kv::ServingConfig::FromTestbed(tp, kv::ServingLayout()),
                              plan, rc, tcfg, tplan);
  ASSERT_NE(stack.tenants, nullptr);
  ASSERT_NE(stack.trace, nullptr);
  RnicServer rnic(&sim, &stack.fabric, tp);
  ClientMachine cli(&sim, &stack.fabric, ClientParams(), "cli0");
  LocalRequester req(&sim, &stack.bf->nic(), stack.bf->host_ep(), stack.bf->soc_ep(),
                     LocalRequesterParams::Host(), "h2s");
  ClientFleet fleet(&sim, &stack.fabric, FleetParams());
  fleet.SetResilience(stack.resil.get());
  fleet.SetTrace(stack.trace.get());

  MetricsRegistry reg;
  rnic.RegisterMetrics(&reg);
  stack.bf->RegisterMetrics(&reg);
  cli.RegisterMetrics(&reg);
  req.RegisterMetrics(&reg);
  stack.injector->RegisterMetrics(&reg);
  stack.exec.RegisterMetrics(&reg);
  fleet.RegisterMetrics(&reg);
  stack.resil->RegisterMetrics(&reg);
  stack.tenants->RegisterMetrics(&reg);
  ASSERT_GT(reg.entries().size(), 30u);  // the graph is fully instrumented

  std::ifstream design(std::string(SNICSIM_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(design.good()) << "DESIGN.md not found under " << SNICSIM_SOURCE_DIR;
  std::stringstream buf;
  buf << design.rdbuf();
  const std::string doc = buf.str();

  std::set<std::string> undocumented;
  for (const auto& e : reg.entries()) {
    // Leaves are documented as `leaf` in the catalog table.
    if (doc.find("`" + e.leaf + "`") == std::string::npos) {
      undocumented.insert(e.leaf);
    }
    EXPECT_FALSE(e.unit.empty()) << e.instance << "." << e.leaf << " has no unit";
  }
  EXPECT_TRUE(undocumented.empty())
      << "undocumented metric leaves (add them to DESIGN.md's Observability "
         "catalog): "
      << [&] {
           std::string s;
           for (const auto& l : undocumented) s += l + " ";
           return s;
         }();

  // The rack dump (RunRackKv's metrics_path) registers one rack.<name> leaf
  // per declared counter; each needs its own catalog row, with its unit.
  MetricsRegistry rack_reg;
  const RackKvResult rack;
  rack.RegisterMetrics(&rack_reg);
  ASSERT_GT(rack_reg.entries().size(), 50u);
  for (const auto& e : rack_reg.entries()) {
    EXPECT_EQ(e.instance, "rack");
    EXPECT_FALSE(e.unit.empty()) << "rack." << e.leaf << " has no unit";
    const std::string row = "| `" + e.leaf + "` | " + e.unit + " | rack-scale KV";
    EXPECT_NE(doc.find(row), std::string::npos)
        << "rack." << e.leaf << " needs a DESIGN.md catalog row starting '" << row << "'";
  }
}

}  // namespace
}  // namespace snicsim

// The component graph whose metrics the catalog audit registers: one
// BlueField serving stack with every conditional component switched on, an
// RNIC server, a client machine, a local requester and a client fleet.
// Shared by the catalog test and the registration allocation pin, so both
// register the same rows.
#ifndef TESTS_OBS_CATALOG_GRAPH_H_
#define TESTS_OBS_CATALOG_GRAPH_H_

#include <string>

#include "src/common/log.h"
#include "src/governor/server_stack.h"
#include "src/kvstore/serving.h"
#include "src/obs/metrics.h"
#include "src/offload/tenant_config.h"
#include "src/resilience/resilience.h"
#include "src/topo/server.h"
#include "src/topo/testbed_params.h"
#include "src/workload/client.h"
#include "src/workload/fleet.h"
#include "src/workload/local_requester.h"
#include "src/workload/trace/trace.h"

namespace snicsim {

// A fault injector pulls in the conditional counters of the client
// reliability layer, the executor's crash counters and the faults.
// component.
inline fault::FaultPlan CatalogFaults() {
  fault::FaultPlan plan;
  plan.drop_rate = 0.01;
  plan.crashes.push_back({"soc", FromMicros(10), FromMicros(20), FromMicros(5)});
  return plan;
}

// A resilience manager pulls in the fleet's shed/deadline ledger and the
// manager's own resil. component.
inline resilience::ResilienceConfig CatalogResilience() {
  resilience::ResilienceConfig rc;
  rc.deadline = FromMicros(40);
  rc.shedding = true;
  rc.hedging = true;
  rc.breakers = true;
  return rc;
}

// A trace plan pulls in the trace. component (thinning / forced-scan
// counters); a tenant set the tenant. component.
inline trace::TracePlan CatalogTrace() {
  trace::TracePlan plan;
  std::string err;
  SNIC_CHECK(trace::ParseTracePlan("duration=100,seg=0:1", &plan, &err));
  return plan;
}

inline offload::TenantSetConfig CatalogTenants() {
  offload::TenantSetConfig cfg;
  std::string err;
  SNIC_CHECK(offload::ParseTenantSet("tenant=t0:sketch:1:1:512:0", &cfg, &err));
  return cfg;
}

struct CatalogGraph {
  CatalogGraph() {
    SNIC_CHECK(stack.tenants != nullptr);
    SNIC_CHECK(stack.trace != nullptr);
    fleet.SetResilience(stack.resil.get());
    fleet.SetTrace(stack.trace.get());
  }

  void Register(MetricsRegistry* reg) {
    rnic.RegisterMetrics(reg);
    stack.bf->RegisterMetrics(reg);
    cli.RegisterMetrics(reg);
    req.RegisterMetrics(reg);
    stack.injector->RegisterMetrics(reg);
    stack.exec.RegisterMetrics(reg);
    fleet.RegisterMetrics(reg);
    stack.resil->RegisterMetrics(reg);
    stack.tenants->RegisterMetrics(reg);
  }

  Simulator sim;
  const TestbedParams tp;
  governor::ServerStack stack{&sim,
                              tp,
                              kv::ServingConfig::FromTestbed(tp, kv::ServingLayout()),
                              CatalogFaults(),
                              CatalogResilience(),
                              CatalogTenants(),
                              CatalogTrace()};
  RnicServer rnic{&sim, &stack.fabric, tp};
  ClientMachine cli{&sim, &stack.fabric, ClientParams(), "cli0"};
  LocalRequester req{&sim, &stack.bf->nic(), stack.bf->host_ep(), stack.bf->soc_ep(),
                     LocalRequesterParams::Host(), "h2s"};
  ClientFleet fleet{&sim, &stack.fabric, FleetParams()};
};

}  // namespace snicsim

#endif  // TESTS_OBS_CATALOG_GRAPH_H_

// One serving machine, wired once: the per-server stack under both the
// single-server testbed (RunServing) and every rack domain (RunRackKv).
//
// The machine itself is a Testbed (src/topo/testbed.h) with a BlueField
// card: Fabric, BluefieldServer and, for a non-empty plan, the
// FaultInjector installed on the simulator; every clock arms through the
// simulator's own TimerWheel. The stack's `name` names the server, whose
// endpoints "<name>.host" and "<name>.soc" are the fault domains every
// layer of the stack queries ("bf_srv.soc" alone, "rack.s<d>.soc" in a
// rack). The stack adds the ServingExecutor, then
// each optional layer only for a non-empty config, so an empty one stays
// byte-identical to a build without the layer: the ResilienceManager, the
// TenantManager and the load-trace TraceDriver.
// Bind rules, kept here and nowhere else:
//  - resilience is bound to the executor, and to the governor on attach;
//  - kv-kind tenants ride the executor's served stream (SetServeObserver),
//    and the tenants' background streams follow the trace;
//  - AttachGovernor binds the governor's meters — the executor's pool
//    busy times and path-③ bytes, the tenants' path-③ bytes and the
//    caller's repair-bytes sampler — and arms the epoch tick, so the
//    budget gate sees every path-③ source from the first epoch;
//  - StopIssuing ends the governor tick, then the tenant streams.
// The observability sinks attach through Testbed::AttachSinks (RunServing
// does; a rack domain never traces). The fleets, the autoscaler and extra
// fabric ports stay with the caller; the caller binds its fleet to `trace`.
#ifndef SRC_GOVERNOR_SERVER_STACK_H_
#define SRC_GOVERNOR_SERVER_STACK_H_

#include <memory>
#include <string>

#include "src/governor/governor.h"
#include "src/kvstore/serving.h"
#include "src/offload/tenancy.h"
#include "src/resilience/resilience.h"
#include "src/topo/testbed.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace governor {

struct ServerStack : Testbed {
  ServerStack(Simulator* simulator, const TestbedParams& testbed,
              const kv::ServingConfig& serving, const fault::FaultPlan& faults,
              const resilience::ResilienceConfig& resil_cfg,
              const offload::TenantSetConfig& tenant_cfg, const trace::TracePlan& plan,
              const std::string& name = "bf_srv");
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  // Builds the governor over the executor's config and binds it. Call
  // once. `repair_path3_bytes` meters the rack repair plane's migration
  // fetches; null for a machine without one.
  AdaptiveGovernor* AttachGovernor(const GovernorConfig& cfg, const ClientParams& client,
                                   MetricDelta::Sampler repair_path3_bytes = nullptr);

  // The quiesce edge of the stack's own clocks; work in flight drains.
  void StopIssuing();

  const TestbedParams params;  // what the machine was built from
  kv::ServingExecutor exec;
  std::unique_ptr<resilience::ResilienceManager> resil;
  std::unique_ptr<trace::TraceDriver> trace;        // non-empty plan only
  std::unique_ptr<offload::TenantManager> tenants;  // non-empty tenant set only
  std::unique_ptr<AdaptiveGovernor> gov;
};

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_SERVER_STACK_H_

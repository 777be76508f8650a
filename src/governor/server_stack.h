// One serving machine, wired once: the per-server stack under both the
// single-server testbed (RunServing) and every rack domain (RunRackKv).
//
// The machine itself is a Testbed (src/topo/testbed.h) with a BlueField
// card: Fabric, BluefieldServer and, for a non-empty plan, the
// FaultInjector installed on the simulator; every clock arms through the
// simulator's own TimerWheel. The stack adds the ServingExecutor, then the
// ResilienceManager only for a non-empty config, so an empty one stays
// byte-identical to a build without the layer.
// Bind rules, kept here and nowhere else:
//  - resilience is bound to the executor, and to the governor on attach;
//  - AttachGovernor adds the executor's meters to `live_reg`, then
//    BindMetrics arms the epoch tick. Callers register their own path-③
//    meters ("tenant.path3_bytes", "repair.path3_bytes") before it, so the
//    budget gate sees them from the first epoch.
// The observability sinks attach through Testbed::AttachSinks (RunServing
// does; a rack domain never traces). Tenants, fleets, trace drivers, the
// autoscaler and extra fabric ports stay with the caller.
#ifndef SRC_GOVERNOR_SERVER_STACK_H_
#define SRC_GOVERNOR_SERVER_STACK_H_

#include <memory>
#include <string>

#include "src/governor/governor.h"
#include "src/kvstore/serving.h"
#include "src/obs/metrics.h"
#include "src/resilience/resilience.h"
#include "src/topo/testbed.h"

namespace snicsim {
namespace governor {

struct ServerStack : Testbed {
  ServerStack(Simulator* simulator, const TestbedParams& testbed,
              const kv::ServingConfig& serving, const fault::FaultPlan& faults,
              const resilience::ResilienceConfig& resil_cfg,
              const std::string& name = "bf_srv");
  ServerStack(const ServerStack&) = delete;
  ServerStack& operator=(const ServerStack&) = delete;

  // Builds the governor over the executor's config and binds it. Call
  // once, after the caller's own live_reg entries.
  AdaptiveGovernor* AttachGovernor(const GovernorConfig& cfg,
                                   const TestbedParams& testbed,
                                   const ClientParams& client);

  kv::ServingExecutor exec;
  std::unique_ptr<resilience::ResilienceManager> resil;
  MetricsRegistry live_reg;  // sampled by the governor's tick, never dumped
  std::unique_ptr<AdaptiveGovernor> gov;
};

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_SERVER_STACK_H_

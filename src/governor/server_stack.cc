#include "src/governor/server_stack.h"

#include "src/common/log.h"

namespace snicsim {
namespace governor {

ServerStack::ServerStack(Simulator* simulator, const TestbedParams& testbed,
                         const kv::ServingConfig& serving,
                         const fault::FaultPlan& faults,
                         const resilience::ResilienceConfig& resil_cfg,
                         const std::string& name)
    : Testbed(simulator, testbed, ServerCard::kBluefield, faults, name),
      exec(sim, bf.get(), serving) {
  if (!resil_cfg.empty()) {
    resil = std::make_unique<resilience::ResilienceManager>(resil_cfg);
    exec.BindResilience(resil.get());
  }
}

AdaptiveGovernor* ServerStack::AttachGovernor(const GovernorConfig& cfg,
                                              const TestbedParams& testbed,
                                              const ClientParams& client) {
  SNIC_CHECK(gov == nullptr);
  const kv::ServingConfig& serving = exec.config();
  gov = std::make_unique<AdaptiveGovernor>(sim, cfg, &serving.layout, serving,
                                           testbed, client,
                                           serving.layout.class_bytes);
  if (resil != nullptr) {
    gov->BindResilience(resil.get());
  }
  exec.RegisterMetrics(&live_reg);
  gov->BindMetrics(live_reg);
  return gov.get();
}

}  // namespace governor
}  // namespace snicsim

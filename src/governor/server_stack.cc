#include "src/governor/server_stack.h"

#include <utility>

#include "src/common/log.h"

namespace snicsim {
namespace governor {

ServerStack::ServerStack(Simulator* simulator, const TestbedParams& testbed,
                         const kv::ServingConfig& serving,
                         const fault::FaultPlan& faults,
                         const resilience::ResilienceConfig& resil_cfg,
                         const offload::TenantSetConfig& tenant_cfg,
                         const trace::TracePlan& plan, const std::string& name)
    : Testbed(simulator, testbed, ServerCard::kBluefield, faults, name),
      params(testbed),
      exec(sim, bf.get(), serving) {
  if (!resil_cfg.empty()) {
    resil = std::make_unique<resilience::ResilienceManager>(resil_cfg);
    exec.BindResilience(resil.get());
  }
  if (!tenant_cfg.empty()) {
    tenants = std::make_unique<offload::TenantManager>(sim, bf.get(), injector.get(),
                                                       tenant_cfg);
    exec.SetServeObserver(
        [tm = tenants.get()](int ep, uint32_t bytes) { tm->OnKvServed(ep, bytes); });
  }
  if (!plan.empty()) {
    trace = std::make_unique<trace::TraceDriver>(plan);
    if (tenants != nullptr) {
      tenants->SetTrace(trace.get());
    }
  }
}

AdaptiveGovernor* ServerStack::AttachGovernor(const GovernorConfig& cfg,
                                              const ClientParams& client,
                                              MetricDelta::Sampler repair_path3_bytes) {
  SNIC_CHECK(gov == nullptr);
  const kv::ServingConfig& serving = exec.config();
  gov = std::make_unique<AdaptiveGovernor>(sim, cfg, &serving.layout, serving, params,
                                           client, serving.layout.class_bytes);
  if (resil != nullptr) {
    gov->BindResilience(resil.get());
  }
  kv::ServingExecutor* const e = &exec;
  AdaptiveGovernor::Meters meters;
  meters.host_busy_us = [e] { return ToMicros(e->host_cpu().busy_time()); };
  meters.soc_busy_us = [e] { return ToMicros(e->soc_cpu().busy_time()); };
  meters.serve_path3_bytes = [e] { return static_cast<double>(e->path3_bytes()); };
  if (const offload::TenantManager* const tm = tenants.get(); tm != nullptr) {
    meters.tenant_path3_bytes = [tm] { return static_cast<double>(tm->path3_bytes_total()); };
  }
  meters.repair_path3_bytes = std::move(repair_path3_bytes);
  gov->BindMeters(std::move(meters));
  return gov.get();
}

void ServerStack::StopIssuing() {
  if (gov != nullptr) {
    gov->StopTicking();
  }
  if (tenants != nullptr) {
    tenants->StopIssuing();
  }
}

}  // namespace governor
}  // namespace snicsim

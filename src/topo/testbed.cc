#include "src/topo/testbed.h"

#include "src/common/log.h"

namespace snicsim {

Testbed::Testbed(Simulator* simulator, const TestbedParams& params, ServerCard card,
                 const fault::FaultPlan& faults, const std::string& server_name)
    : sim(simulator),
      fabric(sim, params.network_link_propagation, params.network_switch_forward),
      rnic(card == ServerCard::kRnic ? std::make_unique<RnicServer>(sim, &fabric, params)
                                     : nullptr),
      bf(card == ServerCard::kBluefield
             ? std::make_unique<BluefieldServer>(sim, &fabric, params, server_name)
             : nullptr) {
  // With an empty plan every component's fault hook stays a null test and
  // the run is bit-identical to a build without the fault layer.
  if (!faults.empty()) {
    injector = std::make_unique<fault::FaultInjector>(faults);
    sim->set_faults(injector.get());
  }
}

void Testbed::AttachSinks(const std::string& trace_path, const std::string& metrics_path) {
  trace_path_ = trace_path;
  metrics_path_ = metrics_path;
  if (!trace_path.empty()) {
    tracer = std::make_unique<Tracer>(Tracer::kDefaultCapacity);
    sim->set_tracer(tracer.get());
  }
}

void Testbed::WriteSinks(const std::function<void(MetricsRegistry*)>& more) {
  if (tracer != nullptr) {
    SNIC_CHECK(tracer->WriteChromeJsonFile(trace_path_));
  }
  if (metrics_path_.empty()) {
    return;
  }
  MetricsRegistry registry;
  if (rnic != nullptr) {
    rnic->RegisterMetrics(&registry);
  }
  if (bf != nullptr) {
    bf->RegisterMetrics(&registry);
  }
  more(&registry);
  SNIC_CHECK(registry.WriteJsonFile(metrics_path_));
}

}  // namespace snicsim

// One experiment's machine, wired once (paper §2.4: a fresh testbed per
// experiment): the InfiniBand fabric, exactly one server and — only when
// asked for — the FaultInjector and the Tracer, each installed on the
// simulator. Every Measure* entry point of the paper harness
// (src/workload/harness.cc) builds one, and governor::ServerStack derives
// from it, so RunServing and every rack domain wire the machine the same
// way. Timers arm through the simulator's own wheel (Simulator::timers()).
//
// Construction order: Fabric, the server, then the FaultInjector for a
// non-empty plan; AttachSinks adds the Tracer for a non-empty trace path.
// Nothing here schedules an event, and no component reads a hook at
// construction, so the caller's load (clients, requesters, fleets) may be
// built afterwards. An empty plan and empty sink paths construct neither an
// injector, a tracer nor a metrics registry.
#ifndef SRC_TOPO_TESTBED_H_
#define SRC_TOPO_TESTBED_H_

#include <functional>
#include <memory>
#include <string>

#include "src/fault/injector.h"
#include "src/fault/plan.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/topo/fabric.h"
#include "src/topo/server.h"
#include "src/topo/testbed_params.h"

namespace snicsim {

// The card in the server's slot (the paper swaps cards in the same slot).
enum class ServerCard { kRnic, kBluefield };

struct Testbed {
  // `server_name` names a BlueField server (a rack names one per domain);
  // an RNIC server keeps its default name.
  Testbed(Simulator* simulator, const TestbedParams& params, ServerCard card,
          const fault::FaultPlan& faults, const std::string& server_name = "bf_srv");
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Installs a Tracer of Tracer::kDefaultCapacity for a non-empty
  // `trace_path` and remembers both paths for WriteSinks. Call before the
  // run.
  void AttachSinks(const std::string& trace_path, const std::string& metrics_path);

  // Writes the trace (when one is attached) and, for a non-empty metrics
  // path, the server's rows followed by whatever `more` registers. Call
  // before the load is torn down: metric gauges sample live state.
  void WriteSinks(const std::function<void(MetricsRegistry*)>& more);

  Simulator* const sim;
  Fabric fabric;
  std::unique_ptr<RnicServer> rnic;      // exactly one of rnic / bf is set
  std::unique_ptr<BluefieldServer> bf;
  std::unique_ptr<fault::FaultInjector> injector;  // non-empty plan only
  std::unique_ptr<Tracer> tracer;                  // non-empty trace path only

 private:
  std::string trace_path_;
  std::string metrics_path_;
};

}  // namespace snicsim

#endif  // SRC_TOPO_TESTBED_H_

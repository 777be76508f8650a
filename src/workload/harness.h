// Measurement harness shared by the integration tests and every bench.
//
// One call = one experiment: it builds a fresh testbed (fabric + server +
// requesters), runs warmup + a steady-state window, and returns throughput,
// latency percentiles, and PCIe hardware-counter rates — the same
// methodology as the paper (§2.4: one requester machine for latency, up to
// eleven to saturate for peak throughput; counters from [29]).
#ifndef SRC_WORKLOAD_HARNESS_H_
#define SRC_WORKLOAD_HARNESS_H_

#include <string>

#include "src/common/units.h"
#include "src/fault/plan.h"
#include "src/nic/verb.h"
#include "src/topo/testbed_params.h"
#include "src/workload/client.h"
#include "src/workload/local_requester.h"

namespace snicsim {

// Which responder a client path targets.
enum class ServerKind {
  kRnicHost,       // RNIC ①
  kBluefieldHost,  // SNIC ①
  kBluefieldSoc,   // SNIC ②
};

constexpr const char* ServerKindName(ServerKind k) {
  switch (k) {
    case ServerKind::kRnicHost:
      return "RNIC(1)";
    case ServerKind::kBluefieldHost:
      return "SNIC(1)";
    case ServerKind::kBluefieldSoc:
      return "SNIC(2)";
  }
  return "?";
}

struct HarnessConfig {
  TestbedParams testbed = TestbedParams::Default();
  ClientParams client;
  int client_machines = 11;  // the paper's saturation setup
  SimTime warmup = FromMicros(60);
  SimTime window = FromMicros(150);
  uint64_t address_range = 10ull * 1024 * kMiB;  // paper default: 10 GB

  // Observability sinks. When `trace_path` is non-empty, the experiment runs
  // with a Tracer attached and exports Chrome trace_event JSON there; when
  // `metrics_path` is non-empty, the final counter state of every component
  // is dumped there as JSON. Both files are byte-identical across runs.
  std::string trace_path;
  std::string metrics_path;

  // Fault schedule for this experiment (src/fault/plan.h). Empty (the
  // default) means no injector is even created: the run is bit-identical
  // to a fault-free build. Each Measure* call owns its injector, so sweep
  // points never share fault state and parallel sweeps stay deterministic.
  fault::FaultPlan faults;

  static HarnessConfig Latency() {
    // One requester, one thread, one outstanding op: unloaded latency.
    HarnessConfig c;
    c.client_machines = 1;
    c.client.threads = 1;
    c.client.window = 1;
    c.window = FromMicros(400);
    return c;
  }
};

struct Measurement {
  double mreqs = 0.0;
  double gbps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t ops = 0;
  // SmartNIC hardware-counter rates over the window (0 for RNIC/pcie1).
  double pcie0_mpps = 0.0;
  double pcie1_mpps = 0.0;
  double pcie_total_mpps = 0.0;
  // Fault-injection outcome over the whole run (0 when faults are off).
  uint64_t retransmits = 0;
  uint64_t op_failures = 0;
  uint64_t frames_dropped = 0;
  // Simulated events dispatched over the whole run (sim.processed()), warmup
  // included. A host-cost figure, not a result: no fingerprint, golden or
  // --check line reads it.
  uint64_t events = 0;
};

// Inbound client -> responder experiment (paths RNIC①, SNIC①, SNIC②).
Measurement MeasureInboundPath(ServerKind kind, Verb verb, uint32_t payload,
                               const HarnessConfig& config = HarnessConfig());

// Clients split across both BlueField endpoints (SNIC ①+②).
Measurement MeasureConcurrentInbound(Verb verb, uint32_t payload,
                                     const HarnessConfig& config = HarnessConfig());

// Path ③ (host <-> SoC). `s2h` selects the SoC as requester.
Measurement MeasureLocalPath(bool s2h, Verb verb, uint32_t payload,
                             const LocalRequesterParams& requester,
                             const HarnessConfig& config = HarnessConfig());

// SNIC ① + ③(H2S) interference experiment (paper §4): inter-machine clients
// saturate path ①, then the host CPU drives H2S traffic. Returns the
// path-① measurement (the victim).
Measurement MeasureInterference(Verb verb, uint32_t payload, bool enable_path3,
                                const HarnessConfig& config = HarnessConfig());

// Flow-combination experiment (paper Fig. 5): `verb_a` from half the
// clients, `verb_b` from the other half, both 4 KB-class payloads; returns
// total payload Gbps (both directions summed).
double MeasureFlowCombination(ServerKind kind, Verb verb_a, Verb verb_b, uint32_t payload,
                              const HarnessConfig& config = HarnessConfig());

// Fig. 5's path-③ bars: opposite-direction host<->SoC flows.
double MeasureLocalFlowCombination(bool opposite_directions, uint32_t payload,
                                   const HarnessConfig& config = HarnessConfig());

}  // namespace snicsim

#endif  // SRC_WORKLOAD_HARNESS_H_

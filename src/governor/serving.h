// One-call KV serving experiment: fleet + BlueField server + executor +
// path policy, measured over a warmup/window pair and then *drained*.
//
// Unlike the echo harness (src/workload/harness.h) an experiment here does
// not stop at the window edge: at warmup+window the fleet stops issuing and
// the governor stops ticking, then the simulation runs dry. That makes
// conservation exact — issued == completed + failed, per path — which is
// what the governor property tests pin.
//
// Determinism contract: a ServingRunConfig fully determines the run. All
// randomness flows from (fleet seed, client id) streams plus the governor's
// own counted ε-draws, so ServingResult::Fingerprint() is byte-identical
// across processes, sweep orders, and --jobs levels.
#ifndef SRC_GOVERNOR_SERVING_H_
#define SRC_GOVERNOR_SERVING_H_

#include <string>
#include <vector>

#include "src/fault/plan.h"
#include "src/governor/autoscaler.h"
#include "src/governor/governor.h"
#include "src/governor/policy.h"
#include "src/obs/trace.h"
#include "src/offload/tenancy.h"
#include "src/resilience/resilience.h"
#include "src/topo/testbed_params.h"
#include "src/workload/fleet.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace governor {

enum class PolicyKind {
  kStaticHost,  // every request on ① (the paper's RNIC-style deployment)
  kStaticSoc,   // every request on ② (naive full offload)
  kOracle,      // full-knowledge greedy (upper envelope)
  kGovernor,    // the adaptive governor
};

constexpr const char* PolicyKindName(PolicyKind k) {
  switch (k) {
    case PolicyKind::kStaticHost:
      return "static-host";
    case PolicyKind::kStaticSoc:
      return "static-soc";
    case PolicyKind::kOracle:
      return "oracle";
    case PolicyKind::kGovernor:
      return "governor";
  }
  return "?";
}

struct ServingRunConfig {
  TestbedParams testbed = TestbedParams::Default();
  ClientParams client;  // per requester machine (fleet.machine is overwritten)
  FleetParams fleet;
  kv::ServingLayout layout;
  SizeMixture mix;  // parallel to layout.class_bytes
  double zipf_theta = 0.99;
  // Serving-pool size overrides (0 = take the testbed value). Shrinking the
  // host pool is how tests and sweeps create serving-side pressure without
  // needing a proportionally bigger fleet.
  int host_cores = 0;
  int soc_cores = 0;
  PolicyKind policy = PolicyKind::kGovernor;
  GovernorConfig governor;
  SimTime warmup = FromMicros(60);
  SimTime window = FromMicros(200);

  // Fault schedule (src/fault/plan.h). Empty => no injector exists and the
  // run is bit-identical to a fault-free build.
  fault::FaultPlan faults;

  // Overload-protection / failover layer (src/resilience). Empty => no
  // manager exists and the run is bit-identical to a resilience-free build.
  resilience::ResilienceConfig resil;

  // Multi-tenant offload pipelines sharing this server's SoC
  // (src/offload/tenancy.h). Empty => no TenantManager exists and the run
  // is bit-identical to a tenant-free build (pinned by the tenants golden
  // test's KV-only case).
  offload::TenantSetConfig tenants;

  // Non-stationary load trace (src/workload/trace). Empty => no
  // TraceDriver exists and the run is bit-identical to a trace-free build
  // (pinned by the autoscaler golden test). With the governor policy a
  // trace also attaches the epoch SloMonitor, so every arm of a
  // static-vs-autoscaled comparison shares one violation ledger.
  trace::TracePlan trace;

  // Epoch autoscaler over the serving-SoC / tenant-pool core split
  // (src/governor/autoscaler.h). Requires a non-empty trace, the governor
  // policy, and a tenant plane with at least one pool; disabled => no
  // autoscaler exists and provisioning stays static.
  ScaleConfig scale;

  // Event cores for the simulation (--sim-threads). The serving testbed is
  // a single domain — one BlueField server, one Simulator — so any value is
  // accepted with byte-identical output (DESIGN.md §12); the flag exists so
  // serving benches compose uniformly with the multi-domain ones.
  int sim_threads = 1;

  // Observability sinks (same semantics as HarnessConfig).
  std::string trace_path;
  std::string metrics_path;
  size_t trace_capacity = Tracer::kDefaultCapacity;
};

struct ServingResult {
  std::string policy;

  // Steady-state window measurement (value bytes = goodput).
  double mreqs = 0.0;
  double gbps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t ops = 0;

  // Whole-run conservation counters (exact after the drain):
  // generated == (issued - hedges) + shed, issued == completed + failed +
  // cancelled.
  uint64_t generated = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> path_issued;     // [kPathHost, kPathSoc]
  std::vector<uint64_t> path_completed;
  std::vector<uint64_t> path_failed;

  // Serving-side split.
  uint64_t soc_hits = 0;
  uint64_t soc_misses = 0;
  uint64_t path3_bytes = 0;

  // Policy introspection (zero for policies without the signal).
  uint64_t hol_gated = 0;
  uint64_t budget_spills = 0;
  uint64_t explored = 0;
  uint64_t draws = 0;
  double share_soc = 0.0;                // routed-② fraction, whole run
  std::vector<double> class_share_soc;   // per size class, window ops only

  // Fault-layer outcome (zero when faults are off).
  uint64_t retransmits = 0;
  uint64_t op_failures = 0;
  uint64_t frames_dropped = 0;

  // Resilience-layer outcome (zero when the resilience config is empty).
  // With deadlines on, `mreqs`/`gbps` above count only in-deadline
  // completions — they are *goodput*, and good + late == completed.
  uint64_t shed = 0;
  uint64_t cancelled = 0;
  uint64_t good = 0;
  uint64_t late = 0;
  uint64_t deadline_failed = 0;
  std::vector<uint64_t> path_shed;
  std::vector<uint64_t> path_cancelled;
  uint64_t shed_codel = 0;
  uint64_t shed_bucket = 0;
  uint64_t shed_deadline = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t hedge_cancels = 0;
  uint64_t breaker_trips = 0;
  uint64_t breaker_reopens = 0;
  uint64_t breaker_probes = 0;
  uint64_t breaker_denied = 0;
  uint64_t resil_draws = 0;
  uint64_t crash_drops = 0;
  uint64_t rewarm_misses = 0;
  // Failover timeline of the SoC endpoint's breaker: when it first tripped
  // and the largest evidence-to-trip gap (-1 each when it never tripped).
  double soc_trip_us = -1.0;
  double soc_trip_gap_us = -1.0;

  // Per-tenant outcome (empty when the tenant config is empty). Carried
  // outside Fingerprint() — which committed goldens pin — and digested by
  // its own TenantSetResult::Fingerprint(); replay comparisons of tenant
  // runs join both digests.
  offload::TenantSetResult tenants;

  // Trace-run outcome: the epoch SLO ledger with per-phase splits plus the
  // autoscaler's action counters (zero when no trace is attached). Also
  // outside Fingerprint() for the same golden-stability reason; trace
  // replay comparisons join trace.Fingerprint() too.
  TraceRunResult trace;

  // Per-request records (NIC engine, endpoint DMA ops, client flights and
  // fleet copies) still held after the drain: 0 unless some terminal path
  // (a drop, a crash, a timeout) failed to release its record. Outside
  // Fingerprint(), like the two above.
  uint64_t live_records = 0;

  // Canonical digest of every field above except `tenants`, `trace` and
  // `live_records` ("%.17g" doubles): two runs are replay-equal iff their
  // fingerprints are string-equal (tenant runs additionally compare
  // tenants.Fingerprint()).
  std::string Fingerprint() const;
};

ServingResult RunServing(const ServingRunConfig& config);

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_SERVING_H_

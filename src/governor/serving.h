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

  // Observability sinks (same semantics as HarnessConfig).
  std::string trace_path;
  std::string metrics_path;
};

// The ServingResult counters, one row each: type, name, initial value, help.
// The fields and Fingerprint() (after "policy|") are generated from them in
// row order, the byte order the serving goldens pin. Per-path vectors are
// indexed [kPathHost, kPathSoc].
#define SNICSIM_SERVING_COUNTERS(X)                                                                \
  /* Window measurement; with deadlines on, of in-deadline completions. */                         \
  X(double, mreqs, 0, "window completions, Mreqs/s")                                               \
  X(double, gbps, 0, "window value goodput, Gbit/s")                                               \
  X(double, p50_us, 0, "window median latency")                                                    \
  X(double, p99_us, 0, "window 99th-percentile latency")                                           \
  X(uint64_t, ops, 0, "window operations measured")                                                \
  /* Whole-run conservation counters, exact after the drain (LedgerBreaks). */                     \
  X(uint64_t, generated, 0, "requests generated by the fleet")                                     \
  X(uint64_t, issued, 0, "wire copies issued (a hedge adds one)")                                  \
  X(uint64_t, completed, 0, "wire copies completed")                                               \
  X(uint64_t, failed, 0, "wire copies the reliability layer gave up on")                           \
  X(std::vector<uint64_t>, path_issued, {}, "issued, per path")                                    \
  X(std::vector<uint64_t>, path_completed, {}, "completed, per path")                              \
  X(std::vector<uint64_t>, path_failed, {}, "failed, per path")                                    \
  /* Serving-side split. */                                                                        \
  X(uint64_t, soc_hits, 0, "SoC gets served from SoC DRAM")                                        \
  X(uint64_t, soc_misses, 0, "SoC gets that fetched the value over path 3")                        \
  X(uint64_t, path3_bytes, 0, "value bytes fetched host->SoC for SoC misses")                      \
  /* Policy introspection (zero for policies without the signal). */                               \
  X(uint64_t, hol_gated, 0, "SoC routes vetoed by the HoL gate")                                   \
  X(uint64_t, budget_spills, 0, "SoC routes spilled by the path-3 budget")                         \
  X(uint64_t, explored, 0, "governor epsilon-exploration routes")                                  \
  X(uint64_t, draws, 0, "policy RNG draws")                                                        \
  X(double, share_soc, 0, "fraction of issued routed to path 2, whole run")                        \
  X(std::vector<double>, class_share_soc, {}, "path-2 fraction per size class, window")            \
  /* Fault-layer outcome (zero when faults are off). */                                            \
  X(uint64_t, retransmits, 0, "client retransmits, all machines")                                  \
  X(uint64_t, op_failures, 0, "client ops failed after retries")                                   \
  X(uint64_t, frames_dropped, 0, "frames the injector dropped")                                    \
  /* Resilience-layer outcome (zero when the resilience config is empty). */                       \
  X(uint64_t, shed, 0, "requests refused by admission control")                                    \
  X(uint64_t, cancelled, 0, "hedge copies cancelled after the race settled")                       \
  X(uint64_t, good, 0, "completions within the deadline budget")                                   \
  X(uint64_t, late, 0, "completions past the deadline budget")                                     \
  X(uint64_t, deadline_failed, 0, "failures with the deadline budget exhausted")                   \
  X(std::vector<uint64_t>, path_shed, {}, "shed, per path")                                        \
  X(std::vector<uint64_t>, path_cancelled, {}, "cancelled, per path")                              \
  X(uint64_t, shed_codel, 0, "requests shed by CoDel")                                             \
  X(uint64_t, shed_bucket, 0, "requests shed by the token bucket")                                 \
  X(uint64_t, shed_deadline, 0, "requests whose deadline expired before admission")                \
  X(uint64_t, hedges, 0, "duplicate requests launched onto the second endpoint")                   \
  X(uint64_t, hedge_wins, 0, "hedged requests won by the duplicate copy")                          \
  X(uint64_t, hedge_cancels, 0, "hedge copies cancelled (resilience side)")                        \
  X(uint64_t, breaker_trips, 0, "circuit breakers tripped closed -> open")                         \
  X(uint64_t, breaker_reopens, 0, "half-open probe rounds that re-tripped")                        \
  X(uint64_t, breaker_probes, 0, "probe requests admitted while half-open")                        \
  X(uint64_t, breaker_denied, 0, "routes the governor's breaker view denied")                      \
  X(uint64_t, resil_draws, 0, "hedge-jitter RNG draws")                                            \
  X(uint64_t, crash_drops, 0, "gets dropped by an endpoint crash")                                 \
  X(uint64_t, rewarm_misses, 0, "SoC gets that missed during post-crash rewarm")                   \
  /* Failover timeline of the SoC endpoint's breaker, in us (-1: never). */                        \
  X(double, soc_trip_us, -1, "first trip")                                                         \
  X(double, soc_trip_gap_us, -1, "largest evidence-to-trip gap")

struct ServingResult {
  std::string policy;
#define SNICSIM_SERVING_FIELD(type, name, init, help) type name = init;
  SNICSIM_SERVING_COUNTERS(SNICSIM_SERVING_FIELD)
#undef SNICSIM_SERVING_FIELD

  // Outside Fingerprint(), whose bytes the goldens pin: the per-tenant outcome
  // (empty without tenants) and the trace-run outcome (zero without a trace),
  // each digested by its own Fingerprint(), the per-request records still
  // held after the drain (0 unless a drop, crash or timeout path leaked one),
  // and the simulated events dispatched by the whole run, drain included.
  offload::TenantSetResult tenants;
  TraceRunResult trace;
  uint64_t live_records = 0;
  uint64_t events = 0;

  // One line per broken ledger identity after the drain ("generated 9 !=
  // issued 8 - hedges 0 + shed 0"), empty when closed: generated == issued -
  // hedges + shed, issued == completed + failed + cancelled, and with
  // `deadlines` (a resilience manager's counters) good + late == completed
  // and shed == shed_codel + shed_bucket + shed_deadline.
  std::vector<std::string> LedgerBreaks(bool deadlines) const;

  // Canonical digest of the counters ("%.17g" doubles): runs are replay-equal
  // iff their fingerprints are string-equal.
  std::string Fingerprint() const;

  // The digest a --check replay compares: Fingerprint(), tenants.Fingerprint()
  // and trace.Fingerprint() joined by '|'. The last two are constant for a
  // tenant-free, trace-free run.
  std::string ReplayDigest() const;
};

// Calls f(name, &ServingResult::<name>) for every counter, in row order.
template <typename F>
void ForEachServingCounter(F&& f) {
#define SNICSIM_SERVING_VISIT(type, name, init, help) f(#name, &ServingResult::name);
  SNICSIM_SERVING_COUNTERS(SNICSIM_SERVING_VISIT)
#undef SNICSIM_SERVING_VISIT
}
#undef SNICSIM_SERVING_COUNTERS

ServingResult RunServing(const ServingRunConfig& config);

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_SERVING_H_

// The adaptive path-selection governor — the online policy that routes
// each KV request to client→host (①) or client→SoC (②), using the paper's
// advices as hard gates and measured feedback for everything else.
//
// Decision inputs, in the order they are consulted:
//  1. Advice #2 gate: payloads at or beyond the NIC's HoL-blocking
//     threshold never go to the SoC endpoint (its 128 B PCIe MTU turns one
//     large READ into a TLP storm that blocks everyone). Gated requests
//     are never explored — an all-large workload routes byte-identically
//     to static-host.
//  2. §4 P−N budget: SoC misses pull the value over path ③. When the
//     epoch-sampled path-③ byte rate exceeds SafePath3BudgetGbps, non-
//     resident ranks are pinned to the host path.
//  3. SoC-core budget: at most `soc_inflight_cap` requests may be in
//     flight to the SoC; overflow spills to the host instead of building
//     ARM queues.
//  4. Score comparison: per-(path, size-class) latency EWMAs (analytic
//     priors from latency_model.h until the first observation — including
//     the doorbell-batch MMIO amortization of Advice #4), plus an
//     occupancy penalty from the governor's own in-flight accounting and
//     the epoch-sampled CPU busy-time of both serving pools, plus a
//     fault penalty from per-path failure EWMAs and bound per-path
//     error-rate samplers.
//  5. ε-exploration across the *admissible* paths only, drawn from the
//     governor's private seeded Rng. Every draw is counted (draws()), so
//     a run's routing is replayable from (seed, draw count) exactly like
//     the fault layer — and byte-identical at any sweep --jobs level.
#ifndef SRC_GOVERNOR_GOVERNOR_H_
#define SRC_GOVERNOR_GOVERNOR_H_

#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/governor/policy.h"
#include "src/governor/stats.h"
#include "src/model/bounds.h"
#include "src/resilience/resilience.h"
#include "src/workload/client.h"

namespace snicsim {
namespace governor {

struct GovernorConfig {
  uint64_t seed = 0xf00dULL;
  double explore_eps = 0.02;  // exploration rate over admissible requests
  SimTime epoch = FromMicros(10);  // meter sampling period
  // In-flight cap for path ②; 0 derives it from the SoC pool's service
  // parameters (cores * per-core pipeline depth, doubled for headroom).
  int soc_inflight_cap = 0;
};

class AdaptiveGovernor : public RoutePolicy {
 public:
  AdaptiveGovernor(Simulator* sim, const GovernorConfig& cfg,
                   const kv::ServingLayout* layout, const kv::ServingConfig& serving,
                   const TestbedParams& tp, const ClientParams& client,
                   const std::vector<uint32_t>& class_bytes);

  // Binds the epoch sampler to cumulative meters (null: unmetered) and
  // starts the periodic tick. Optional: without it the governor runs on
  // completion feedback alone. The budget gate's path-③ rate sums serving
  // misses, tenant crossings and the rack repair plane's migration fetches,
  // which is what throttles serving onto path ① while a shard is rebuilt.
  struct Meters {
    MetricDelta::Sampler host_busy_us;  // serving pools' busy time
    MetricDelta::Sampler soc_busy_us;
    MetricDelta::Sampler serve_path3_bytes;
    MetricDelta::Sampler tenant_path3_bytes;
    MetricDelta::Sampler repair_path3_bytes;
  };
  void BindMeters(Meters meters);

  // Per-path error-rate feed (task-level fault awareness): the sampler
  // returns the fraction of the path's delivered completions that were
  // errors, in [0, 1]. Sampled each epoch; the rate is charged to the
  // path's score as a latency penalty.
  void BindErrorRate(int path, std::function<double()> sampler);

  // Hooks the resilience layer in: the governor's epoch tick drives the
  // circuit breakers (OnEpoch), an open breaker makes its endpoint
  // inadmissible (counted breaker_denied), and every routing decision is
  // reported for half-open probe accounting. Null keeps routing
  // byte-identical to the resilience-free governor.
  void BindResilience(resilience::ResilienceManager* resil) { resil_ = resil; }

  // Invoked once per epoch tick, after the sampled signals update and the
  // breakers advance — the clock the epoch autoscaler runs on, so scaling
  // decisions and routing see the same per-epoch deltas. Null (the
  // default) leaves the tick byte-identical to a hook-free build.
  void SetEpochHook(std::function<void(SimTime)> hook);

  // Ends the periodic epoch tick, so a run can drain to an empty event
  // queue (exact conservation) instead of being cut off mid-flight.
  void StopTicking() { stopped_ = true; }

  int Route(const KvRequest& req) override;
  void OnComplete(int path, const KvRequest& req, SimTime latency, bool ok) override;
  void OnShed(int path, const KvRequest& req) override;
  uint64_t draws() const override { return draws_; }
  const char* name() const override { return "governor"; }

  // Introspection (property tests pin these).
  int soc_inflight_cap() const { return soc_cap_; }
  uint64_t routed(int path) const { return routed_[static_cast<size_t>(path)]; }
  uint64_t hol_gated() const { return hol_gated_; }
  uint64_t budget_spills() const { return budget_spills_; }
  uint64_t explored() const { return explored_; }
  uint64_t breaker_denied() const { return breaker_denied_; }
  const PathPriors& priors() const { return priors_; }
  // The path-③ rate (Gbps) the budget gate saw at the last epoch.
  double path3_rate_gbps() const { return path3_rate_gbps_; }

 private:
  void Tick();
  // Arms the first epoch tick; later binds leave the clock as it is.
  void StartTicking();
  // Arms the next epoch tick through the simulator's timer wheel, so the
  // periodic clock shares wheel slots with every other wheel client instead
  // of costing a queued event per epoch.
  void ScheduleTick();
  double Penalty(int path) const;

  Simulator* sim_;
  GovernorConfig cfg_;
  const kv::ServingLayout* layout_;
  PathPriors priors_;
  Rng rng_;
  uint64_t draws_ = 0;

  uint64_t hol_gate_bytes_;
  double path3_budget_gbps_;
  int soc_cap_;
  double host_service_us_;
  double soc_service_us_;
  int host_cores_;
  int soc_cores_;

  // Feedback state.
  std::vector<Ewma> host_lat_us_;  // per size class
  std::vector<Ewma> soc_lat_us_;
  Ewma fail_rate_[kPathCount];
  int inflight_[kPathCount] = {0, 0};
  uint64_t routed_[kPathCount] = {0, 0};
  uint64_t hol_gated_ = 0;
  uint64_t budget_spills_ = 0;
  uint64_t explored_ = 0;
  uint64_t breaker_denied_ = 0;
  resilience::ResilienceManager* resil_ = nullptr;

  // Epoch-sampled signals.
  MetricDelta host_busy_us_;
  MetricDelta soc_busy_us_;
  MetricDelta serve_path3_bytes_;
  MetricDelta tenant_path3_bytes_;
  MetricDelta repair_path3_bytes_;
  double host_util_ = 0.0;
  double soc_util_ = 0.0;
  double path3_rate_gbps_ = 0.0;
  bool ticking_ = false;
  bool stopped_ = false;
  std::function<void(SimTime)> epoch_hook_;
  std::function<double()> error_rate_[kPathCount];
  double error_penalty_us_[kPathCount] = {0.0, 0.0};
};

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_GOVERNOR_H_

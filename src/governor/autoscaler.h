// Epoch-driven SoC resource autoscaling and SLO accounting for
// trace-driven (non-stationary) serving runs.
//
// The serving plane and the tenant offload plane compete for one scarce
// SoC core budget: the ServingExecutor's SoC pool answers path-② GETs
// while the tenant arbiter pool runs compaction-style background
// pipelines. A static split of that budget loses somewhere on a diurnal
// trace — the day's flash crowd wants serving cores the night's
// compaction holds, and vice versa. The EpochAutoscaler closes the loop:
// each governor epoch it samples both pools' busy-time deltas (the same
// per-epoch signal discipline the governor's own utilization sampler
// uses), and when one side runs hot while the other idles it moves one
// core across the split and swaps the tenant WRR weight set. A hold-down
// counter enforces hysteresis so a constant-load trace produces no
// flapping (pinned by tests/governor/autoscaler_test.cc).
//
// The SloMonitor rides the same epoch clock and is deliberately separate:
// *every* arm of a static-vs-autoscaled comparison needs identical
// violation accounting, so the monitor attaches whenever a trace is
// attached while the autoscaler attaches only when scaling is enabled.
// An epoch is in violation when the fleet's bad-outcome fraction (late +
// deadline-failed + shed over all settled work) or any tenant's SLO-miss
// fraction exceeds the budget; violation time is attributed to the trace
// segment the epoch started in, giving the per-phase SLO-violation-
// minutes surface bench/sec_trace --check compares.
//
// Determinism: neither class draws randomness. Decisions are pure
// functions of epoch-sampled counters, so trace runs replay byte-
// identically at any --jobs, and a disabled ScaleConfig (enabled == false)
// creates no autoscaler at all.
#ifndef SRC_GOVERNOR_AUTOSCALER_H_
#define SRC_GOVERNOR_AUTOSCALER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace governor {

struct ScaleConfig {
  bool enabled = false;
  // Tolerated bad-outcome fraction per epoch for the SloMonitor. Read even
  // when `enabled` is false: the static arms of a comparison must account
  // violations with exactly the same budget the autoscaled arm uses.
  double slo_budget = 0.01;
  // Pool-size floors: a move never leaves either side below its minimum.
  int min_serving_cores = 1;
  int min_pool_cores = 1;
  // Dead band: a core moves only when one side's epoch utilization is
  // above `util_high` while the other's is below `util_low`.
  double util_high = 0.85;
  double util_low = 0.55;
  // Hysteresis: epochs to hold after an action before acting again.
  int hold_epochs = 3;
  // Tenant WRR weight sets (tenant index in config order) applied when the
  // split tilts toward serving (scarce: background tenants yield) and when
  // it tilts back (ample). Empty = no weight retuning.
  std::vector<int> weights_scarce;
  std::vector<int> weights_ample;

  bool empty() const { return !enabled; }
};

// Per-trace-segment slice of the SLO ledger, one row per counter (type, name,
// initial value, help); the fields and TraceRunResult::Fingerprint() are
// generated from the rows. `generated`/`shed` are the fleet's per-phase
// ledger, overlaid by RunServing: summed over phases they are the totals.
#define SNICSIM_PHASE_COUNTERS(X)                                                                  \
  X(uint64_t, epochs, 0, "governor epochs that started in this segment")                           \
  X(uint64_t, violation_epochs, 0, "of those, epochs past the SLO budget")                         \
  X(double, violation_us, 0, "violation_epochs * epoch length")                                    \
  X(uint64_t, generated, 0, "fleet requests generated in this segment")                            \
  X(uint64_t, shed, 0, "fleet requests shed in this segment")

struct PhaseResult {
#define SNICSIM_PHASE_FIELD(type, name, init, help) type name = init;
  SNICSIM_PHASE_COUNTERS(SNICSIM_PHASE_FIELD)
#undef SNICSIM_PHASE_FIELD
};

// Calls f(name, &PhaseResult::<name>) for every counter, in row order.
template <typename F>
void ForEachPhaseCounter(F&& f) {
#define SNICSIM_PHASE_VISIT(type, name, init, help) f(#name, &PhaseResult::name);
  SNICSIM_PHASE_COUNTERS(SNICSIM_PHASE_VISIT)
#undef SNICSIM_PHASE_VISIT
}
#undef SNICSIM_PHASE_COUNTERS

// Everything a trace-driven run adds on top of ServingResult, one row per
// counter: type, name, initial value, unit, whether the --metrics dump
// carries it as scale.<name>, help. The fields, Fingerprint() (then every
// phase's) and the scale rows are generated from the rows, in row order.
#define SNICSIM_TRACE_COUNTERS(X)                                                                  \
  X(uint64_t, epochs, 0, "count", false, "governor epochs sampled")                                \
  X(uint64_t, violation_epochs, 0, "count", true, "governor epochs past the SLO budget")           \
  X(double, violation_us, 0, "us", false, "epochs in violation * epoch length")                    \
  X(uint64_t, actions_up, 0, "count", true, "cores moved tenant pool -> serving")                  \
  X(uint64_t, actions_down, 0, "count", true, "cores moved serving -> tenant pool")                \
  X(uint64_t, weight_updates, 0, "count", true, "tenant WRR weight retunes on scaling")            \
  X(int, final_serving_cores, 0, "cores", false, "serving SoC cores after the drain")

struct TraceRunResult {
#define SNICSIM_TRACE_FIELD(type, name, init, unit, dumped, help) type name = init;
  SNICSIM_TRACE_COUNTERS(SNICSIM_TRACE_FIELD)
#undef SNICSIM_TRACE_FIELD
  std::vector<PhaseResult> phases;  // indexed by trace segment

  std::string Fingerprint() const;

  // One scale.<name> gauge per dumped counter, sampling this result.
  void RegisterMetrics(MetricsRegistry* reg) const;
};

struct TraceCounterInfo {
  const char* name;
  const char* unit;
  bool dumped;
};

// Calls f(info, &TraceRunResult::<name>) for every counter, in row order.
template <typename F>
void ForEachTraceCounter(F&& f) {
#define SNICSIM_TRACE_VISIT(type, name, init, unit, dumped, help)                                  \
  f(TraceCounterInfo{#name, unit, dumped}, &TraceRunResult::name);
  SNICSIM_TRACE_COUNTERS(SNICSIM_TRACE_VISIT)
#undef SNICSIM_TRACE_VISIT
}

// The scale.<name> rows of the --metrics dump: the counters marked dumped,
// in row order.
#define SNICSIM_TRACE_METRIC_true(name, unit)                                                      \
  {#name, unit, [](const TraceRunResult& r) { return static_cast<double>(r.name); }},
#define SNICSIM_TRACE_METRIC_false(name, unit)
#define SNICSIM_TRACE_METRIC(type, name, init, unit, dumped, help)                                 \
  SNICSIM_TRACE_METRIC_##dumped(name, unit)
inline constexpr MetricsRegistry::Row<TraceRunResult> kTraceMetricRows[] = {
    SNICSIM_TRACE_COUNTERS(SNICSIM_TRACE_METRIC)};
#undef SNICSIM_TRACE_METRIC
#undef SNICSIM_TRACE_METRIC_false
#undef SNICSIM_TRACE_METRIC_true
#undef SNICSIM_TRACE_COUNTERS

// Epoch SLO accounting over a trace. All counter feeds are cumulative;
// the monitor differences them itself.
class SloMonitor {
 public:
  struct Signals {
    // Fleet deadline ledger (good + late == completed).
    std::function<uint64_t()> good;
    std::function<uint64_t()> late;
    std::function<uint64_t()> deadline_failed;
    std::function<uint64_t()> shed;
    // Tenant SLO ledger; null when no tenant plane exists.
    std::function<uint64_t()> tenant_checked;
    std::function<uint64_t()> tenant_violations;
  };

  // `slo_budget` is the tolerated bad-outcome fraction per epoch.
  SloMonitor(const trace::TraceDriver* driver, Signals signals,
             double slo_budget, SimTime epoch);

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  // Called once per governor epoch tick at time `now`.
  void OnEpoch(SimTime now);

  // Snapshot of the SLO ledger (scaling-action fields left zero; the
  // harness overlays the autoscaler's counters).
  const TraceRunResult& result() const { return r_; }

 private:
  const trace::TraceDriver* driver_;
  Signals sig_;
  double slo_budget_;
  SimTime epoch_;
  uint64_t prev_good_ = 0;
  uint64_t prev_late_ = 0;
  uint64_t prev_dl_failed_ = 0;
  uint64_t prev_shed_ = 0;
  uint64_t prev_tchecked_ = 0;
  uint64_t prev_tviol_ = 0;
  TraceRunResult r_;
};

// Moves cores across the serving-SoC / tenant-pool split once per epoch.
class EpochAutoscaler {
 public:
  struct Actuators {
    // Serving SoC pool (kv::ServingExecutor::soc_cpu()).
    std::function<int()> serving_cores;
    std::function<void(int)> set_serving_cores;
    std::function<SimTime()> serving_busy;  // cumulative busy time
    // Tenant arbiter pool (offload::TenantManager pool 0).
    std::function<int()> pool_cores;
    std::function<void(int)> set_pool_cores;
    std::function<SimTime()> pool_busy;  // cumulative granted service
    // Optional tenant-weight actuator; null = weights not retuned.
    std::function<void(int, int)> set_tenant_weight;
  };

  EpochAutoscaler(const ScaleConfig& cfg, Actuators act, SimTime epoch);

  EpochAutoscaler(const EpochAutoscaler&) = delete;
  EpochAutoscaler& operator=(const EpochAutoscaler&) = delete;

  // Called once per governor epoch tick at time `now`.
  void OnEpoch(SimTime now);

  uint64_t actions_up() const { return actions_up_; }
  uint64_t actions_down() const { return actions_down_; }
  uint64_t weight_updates() const { return weight_updates_; }

 private:
  void ApplyWeights(bool scarce);

  ScaleConfig cfg_;
  Actuators act_;
  SimTime epoch_;
  SimTime prev_serving_busy_ = 0;
  SimTime prev_pool_busy_ = 0;
  int hold_ = 0;
  uint64_t actions_up_ = 0;
  uint64_t actions_down_ = 0;
  uint64_t weight_updates_ = 0;
};

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_AUTOSCALER_H_

#include "src/governor/governor.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/sim/timer_wheel.h"

namespace snicsim {
namespace governor {

namespace {
// Weight of the analytic unloaded prior kept in every score comparison
// (see the shared-bottleneck note in Route).
constexpr double kPriorBias = 1.0;
// Smoothing of the latency and failure EWMAs.
constexpr double kEwmaAlpha = 0.2;
// Score penalties (us) per unit failure EWMA and per unit sampled error rate.
constexpr double kFailurePenaltyUs = 100.0;
constexpr double kErrorRatePenaltyUs = 100.0;
}  // namespace

AdaptiveGovernor::AdaptiveGovernor(Simulator* sim, const GovernorConfig& cfg,
                                   const kv::ServingLayout* layout,
                                   const kv::ServingConfig& serving,
                                   const TestbedParams& tp, const ClientParams& client,
                                   const std::vector<uint32_t>& class_bytes)
    : sim_(sim),
      cfg_(cfg),
      layout_(layout),
      priors_(PathPriors::Compute(class_bytes, tp, client, serving)),
      rng_(cfg.seed),
      hol_gate_bytes_(tp.bluefield_nic.hol_threshold),
      path3_budget_gbps_(SafePath3BudgetGbps(tp)),
      host_service_us_(ToMicros(serving.host_lookup)),
      soc_service_us_(ToMicros(serving.soc_lookup)),
      host_cores_(serving.host_cores),
      soc_cores_(serving.soc_cores) {
  SNIC_CHECK(sim != nullptr);
  SNIC_CHECK(layout != nullptr);
  host_lat_us_.assign(class_bytes.size(), Ewma(kEwmaAlpha));
  soc_lat_us_.assign(class_bytes.size(), Ewma(kEwmaAlpha));
  fail_rate_[kPathHost] = Ewma(kEwmaAlpha);
  fail_rate_[kPathSoc] = Ewma(kEwmaAlpha);
  if (cfg_.soc_inflight_cap > 0) {
    soc_cap_ = cfg_.soc_inflight_cap;
  } else {
    // Each ARM core pipelines roughly (notify + lookup) / lookup requests
    // before queueing dominates; give 8x headroom so the default cap is a
    // guardrail against pathological pile-up, not the operating point —
    // when the SoC genuinely carries more throughput than the host pool,
    // a tight cap would spill the surplus onto the slower path and lose to
    // static-soc outright.
    const double per_core =
        ToMicros(serving.soc_notify + serving.soc_lookup) / ToMicros(serving.soc_lookup);
    soc_cap_ = std::max(1, static_cast<int>(8.0 * serving.soc_cores * per_core));
  }
}

void AdaptiveGovernor::BindMeters(Meters meters) {
  host_busy_us_.Bind(std::move(meters.host_busy_us));
  soc_busy_us_.Bind(std::move(meters.soc_busy_us));
  serve_path3_bytes_.Bind(std::move(meters.serve_path3_bytes));
  tenant_path3_bytes_.Bind(std::move(meters.tenant_path3_bytes));
  repair_path3_bytes_.Bind(std::move(meters.repair_path3_bytes));
  StartTicking();
}

void AdaptiveGovernor::BindErrorRate(int path, std::function<double()> sampler) {
  SNIC_CHECK_GE(path, 0);
  SNIC_CHECK_LT(path, kPathCount);
  error_rate_[path] = std::move(sampler);
  StartTicking();
}

void AdaptiveGovernor::SetEpochHook(std::function<void(SimTime)> hook) {
  epoch_hook_ = std::move(hook);
  StartTicking();
}

void AdaptiveGovernor::StartTicking() {
  if (!ticking_) {
    ticking_ = true;
    ScheduleTick();
  }
}

void AdaptiveGovernor::ScheduleTick() { sim_->timers().In(cfg_.epoch, [this] { Tick(); }); }

void AdaptiveGovernor::Tick() {
  if (stopped_) {
    return;
  }
  const double epoch_us = ToMicros(cfg_.epoch);
  // Unbound meters sample as 0.
  host_util_ = std::min(1.0, host_busy_us_.Sample() / (epoch_us * host_cores_));
  soc_util_ = std::min(1.0, soc_busy_us_.Sample() / (epoch_us * soc_cores_));
  // bytes per epoch -> Gbps; tenant crossings and repair-plane migration
  // streams spend the same budget.
  path3_rate_gbps_ = (serve_path3_bytes_.Sample() + tenant_path3_bytes_.Sample() +
                      repair_path3_bytes_.Sample()) *
                     8.0 / (epoch_us * 1e3);
  for (int p = 0; p < kPathCount; ++p) {
    if (error_rate_[p]) {
      error_penalty_us_[p] = error_rate_[p]() * kErrorRatePenaltyUs;
    }
  }
  if (resil_ != nullptr) {
    // The breakers advance on the governor's clock: a sick endpoint is
    // tripped out of the admissible set within one epoch of the evidence.
    resil_->OnEpoch(sim_->now());
  }
  if (epoch_hook_) {
    epoch_hook_(sim_->now());
  }
  ScheduleTick();
}

double AdaptiveGovernor::Penalty(int path) const {
  double us = fail_rate_[path].ValueOr(0.0) * kFailurePenaltyUs + error_penalty_us_[path];
  if (path == kPathHost) {
    // Marginal queueing estimate: my own outstanding requests, served at
    // the pool's aggregate rate, plus the epoch utilization signal.
    us += inflight_[kPathHost] * host_service_us_ / host_cores_;
    us += host_service_us_ * host_util_ * host_util_;
  } else {
    us += inflight_[kPathSoc] * soc_service_us_ / soc_cores_;
    us += soc_service_us_ * soc_util_ * soc_util_;
  }
  return us;
}

int AdaptiveGovernor::Route(const KvRequest& req) {
  const size_t cls = static_cast<size_t>(req.size_class);
  SNIC_CHECK_LT(cls, host_lat_us_.size());

  // 1. Advice #2: HoL-scale payloads never touch the SoC endpoint, and are
  // never explored — the gate is absolute.
  if (req.bytes >= hol_gate_bytes_) {
    ++hol_gated_;
    if (resil_ != nullptr) {
      resil_->OnRouted(kPathHost);
    }
    ++routed_[kPathHost];
    ++inflight_[kPathHost];
    return kPathHost;
  }

  const bool resident = layout_->SocResident(req.rank);
  // 2. §4 P−N budget: misses ride path ③; once its measured rate eats the
  // safe budget, non-resident ranks are pinned to the host.
  const bool path3_ok = path3_rate_gbps_ < path3_budget_gbps_;
  // 3. SoC-core budget.
  const bool soc_open = inflight_[kPathSoc] < soc_cap_;
  bool soc_admissible = (resident || path3_ok) && soc_open;
  // 4. Circuit breakers (resilience layer, consulted before the score): an
  // open breaker removes its endpoint from the admissible set outright.
  if (soc_admissible && resil_ != nullptr &&
      !resil_->EndpointAvailable(kPathSoc)) {
    soc_admissible = false;
    ++breaker_denied_;
  }
  const bool host_alive =
      resil_ == nullptr || resil_->EndpointAvailable(kPathHost);

  int pick = kPathHost;
  if (soc_admissible && !host_alive) {
    // Host breaker open with the SoC admissible: fail over deterministically
    // — exploring a broken endpoint would just burn its half-open probes.
    ++breaker_denied_;
    pick = kPathSoc;
  } else if (soc_admissible) {
    // The measured EWMAs alone cannot break a shared-bottleneck tie: once
    // the NIC/PCIe1 fabric saturates, both paths' latencies equalize at
    // *any* split, yet the SoC leg still burns more shared capacity per
    // byte (128 B TLP segmentation). A fraction of the analytic unloaded
    // prior therefore stays in the score permanently, so large classes
    // drift host-ward when the measurements tie.
    const double soc_prior =
        resident ? priors_.soc_hit_us[cls] : priors_.soc_miss_us[cls];
    const double host_score = host_lat_us_[cls].ValueOr(priors_.host_us[cls]) +
                              Penalty(kPathHost) +
                              kPriorBias * priors_.host_us[cls];
    const double soc_score = soc_lat_us_[cls].ValueOr(soc_prior) +
                             Penalty(kPathSoc) + kPriorBias * soc_prior;
    pick = soc_score < host_score ? kPathSoc : kPathHost;
    // 5. ε-exploration, only across admissible paths, one counted draw per
    // eligible request.
    ++draws_;
    if (rng_.NextDouble() < cfg_.explore_eps) {
      ++explored_;
      pick = pick == kPathSoc ? kPathHost : kPathSoc;
    }
  } else if (!soc_open) {
    ++budget_spills_;
  }

  if (resil_ != nullptr) {
    resil_->OnRouted(pick);
  }
  ++routed_[pick];
  ++inflight_[pick];
  return pick;
}

void AdaptiveGovernor::OnShed(int path, const KvRequest& req) {
  (void)req;
  // Admission refused the request after Route() counted it in flight; the
  // slot frees immediately (routed_ keeps counting decisions, like draws_).
  SNIC_CHECK_GE(inflight_[path], 1);
  --inflight_[path];
}

void AdaptiveGovernor::OnComplete(int path, const KvRequest& req, SimTime latency,
                                  bool ok) {
  const size_t cls = static_cast<size_t>(req.size_class);
  SNIC_CHECK_GE(inflight_[path], 1);
  --inflight_[path];
  fail_rate_[path].Observe(ok ? 0.0 : 1.0);
  if (!ok) {
    return;  // no latency signal from an abandoned op
  }
  const double us = ToMicros(latency);
  if (path == kPathHost) {
    host_lat_us_[cls].Observe(us);
  } else {
    soc_lat_us_[cls].Observe(us);
  }
}

}  // namespace governor
}  // namespace snicsim

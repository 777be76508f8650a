#include "src/governor/autoscaler.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/common/spec.h"
#include "src/obs/metrics.h"

namespace snicsim {
namespace governor {

std::string TraceRunResult::Fingerprint() const {
  std::string s;
  ForEachTraceCounter(
      [&](const TraceCounterInfo&, auto field) { AppendCounter(&s, this->*field); });
  for (const PhaseResult& p : phases) {
    ForEachPhaseCounter([&](const char*, auto field) { AppendCounter(&s, p.*field); });
  }
  return s;
}

void TraceRunResult::RegisterMetrics(MetricsRegistry* reg) const {
  reg->Register("scale", *this, kTraceMetricRows);
}

SloMonitor::SloMonitor(const trace::TraceDriver* driver, Signals signals,
                       double slo_budget, SimTime epoch)
    : driver_(driver),
      sig_(std::move(signals)),
      slo_budget_(slo_budget),
      epoch_(epoch) {
  SNIC_CHECK(driver_ != nullptr);
  SNIC_CHECK(sig_.good != nullptr);
  SNIC_CHECK(sig_.late != nullptr);
  SNIC_CHECK(sig_.deadline_failed != nullptr);
  SNIC_CHECK(sig_.shed != nullptr);
  SNIC_CHECK_GT(epoch_, 0);
  r_.phases.assign(static_cast<size_t>(driver_->segment_count()),
                   PhaseResult());
}

void SloMonitor::OnEpoch(SimTime now) {
  const uint64_t good = sig_.good();
  const uint64_t late = sig_.late();
  const uint64_t dlf = sig_.deadline_failed();
  const uint64_t shed = sig_.shed();
  const uint64_t d_good = good - prev_good_;
  const uint64_t d_bad =
      (late - prev_late_) + (dlf - prev_dl_failed_) + (shed - prev_shed_);
  prev_good_ = good;
  prev_late_ = late;
  prev_dl_failed_ = dlf;
  prev_shed_ = shed;

  bool violated = false;
  const uint64_t settled = d_good + d_bad;
  if (settled > 0 && static_cast<double>(d_bad) >
                         slo_budget_ * static_cast<double>(settled)) {
    violated = true;
  }
  if (sig_.tenant_checked && sig_.tenant_violations) {
    const uint64_t tc = sig_.tenant_checked();
    const uint64_t tv = sig_.tenant_violations();
    const uint64_t d_tc = tc - prev_tchecked_;
    const uint64_t d_tv = tv - prev_tviol_;
    prev_tchecked_ = tc;
    prev_tviol_ = tv;
    if (d_tc > 0 &&
        static_cast<double>(d_tv) > slo_budget_ * static_cast<double>(d_tc)) {
      violated = true;
    }
  }

  // The epoch covers [now - epoch, now); attribute it to the segment it
  // started in (epochs past the trace end clamp to the last segment).
  const SimTime start = now >= epoch_ ? now - epoch_ : 0;
  PhaseResult& phase =
      r_.phases[static_cast<size_t>(driver_->SegmentAt(start))];
  ++r_.epochs;
  ++phase.epochs;
  if (violated) {
    ++r_.violation_epochs;
    ++phase.violation_epochs;
    r_.violation_us += ToMicros(epoch_);
    phase.violation_us += ToMicros(epoch_);
  }
}

EpochAutoscaler::EpochAutoscaler(const ScaleConfig& cfg, Actuators act,
                                 SimTime epoch)
    : cfg_(cfg), act_(std::move(act)), epoch_(epoch) {
  SNIC_CHECK(cfg_.enabled);
  SNIC_CHECK(act_.serving_cores != nullptr);
  SNIC_CHECK(act_.set_serving_cores != nullptr);
  SNIC_CHECK(act_.serving_busy != nullptr);
  SNIC_CHECK(act_.pool_cores != nullptr);
  SNIC_CHECK(act_.set_pool_cores != nullptr);
  SNIC_CHECK(act_.pool_busy != nullptr);
  SNIC_CHECK_GT(epoch_, 0);
  SNIC_CHECK_GE(cfg_.min_serving_cores, 1);
  SNIC_CHECK_GE(cfg_.min_pool_cores, 1);
  SNIC_CHECK_GT(cfg_.util_high, cfg_.util_low);
}

void EpochAutoscaler::ApplyWeights(bool scarce) {
  const std::vector<int>& weights =
      scarce ? cfg_.weights_scarce : cfg_.weights_ample;
  if (act_.set_tenant_weight) {
    for (size_t t = 0; t < weights.size(); ++t) {
      act_.set_tenant_weight(static_cast<int>(t), weights[t]);
      ++weight_updates_;
    }
  }
}

void EpochAutoscaler::OnEpoch(SimTime /*now*/) {
  // Utilizations are busy-time deltas over the epoch against the core
  // counts in effect while it ran (sampled before any action below).
  const int sc = act_.serving_cores();
  const int pc = act_.pool_cores();
  const SimTime sb = act_.serving_busy();
  const SimTime pb = act_.pool_busy();
  const double denom = static_cast<double>(epoch_);
  const double s_util =
      static_cast<double>(sb - prev_serving_busy_) / (denom * sc);
  const double p_util = static_cast<double>(pb - prev_pool_busy_) / (denom * pc);
  prev_serving_busy_ = sb;
  prev_pool_busy_ = pb;

  if (hold_ > 0) {
    --hold_;
    return;
  }
  if (s_util > cfg_.util_high && p_util < cfg_.util_low &&
      pc > cfg_.min_pool_cores) {
    // Serving is the bottleneck and background work idles: move one core
    // toward serving and make background pipelines yield their share.
    act_.set_pool_cores(pc - 1);
    act_.set_serving_cores(sc + 1);
    ApplyWeights(/*scarce=*/true);
    ++actions_up_;
    hold_ = cfg_.hold_epochs;
    return;
  }
  if (p_util > cfg_.util_high && s_util < cfg_.util_low &&
      sc > cfg_.min_serving_cores) {
    act_.set_serving_cores(sc - 1);
    act_.set_pool_cores(pc + 1);
    ApplyWeights(/*scarce=*/false);
    ++actions_down_;
    hold_ = cfg_.hold_epochs;
    return;
  }
}

}  // namespace governor
}  // namespace snicsim

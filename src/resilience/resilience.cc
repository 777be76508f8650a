#include "src/resilience/resilience.h"

#include <cmath>
#include <utility>

#include "src/common/log.h"

namespace snicsim {
namespace resilience {

ResilienceManager::ResilienceManager(const ResilienceConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed) {}

int ResilienceManager::Check(int ep) {
  SNIC_CHECK_GE(ep, 0);
  SNIC_CHECK_LT(ep, kEndpointCount);
  return ep;
}

void ResilienceManager::BindQueueSignal(int ep, QueueSignal backlog) {
  eps_[Check(ep)].backlog = std::move(backlog);
}

bool ResilienceManager::Admit(int ep, int cls, SimTime deadline, SimTime now) {
  Endpoint& e = eps_[Check(ep)];
  // A request whose budget is already gone never earns queue space.
  if (deadline > 0 && now >= deadline) {
    ++shed_deadline_;
    return false;
  }
  if (!cfg_.shedding) {
    return true;
  }
  // CoDel-style controller on the exact pool backlog (CodelState carries
  // the semantics; see resilience.h).
  if (e.backlog) {
    const int level = e.codel.Observe(e.backlog(), cfg_.codel_target,
                                      cfg_.codel_interval, now);
    if (cls < level) {
      ++shed_codel_;
      return false;
    }
  }
  // Token bucket rate cap (TokenBucketState, resilience.h).
  if (cfg_.bucket_mops > 0.0 &&
      !e.bucket.TryTake(cfg_.bucket_mops, cfg_.bucket_depth, now)) {
    ++shed_bucket_;
    return false;
  }
  return true;
}

bool ResilienceManager::EndpointAvailable(int ep) const {
  if (!cfg_.breakers) {
    return true;
  }
  const Endpoint& e = eps_[Check(ep)];
  switch (e.state) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      return e.probes_left > 0;
  }
  return true;
}

void ResilienceManager::OnRouted(int ep) {
  if (!cfg_.breakers) {
    return;
  }
  Endpoint& e = eps_[Check(ep)];
  if (e.state == BreakerState::kHalfOpen && e.probes_left > 0) {
    --e.probes_left;
    ++breaker_probes_used_;
  }
}

void ResilienceManager::Trip(Endpoint& e, SimTime now, bool reopen) {
  e.state = BreakerState::kOpen;
  e.open_epochs_left = cfg_.breaker_open_epochs;
  if (reopen) {
    ++breaker_reopens_;
  } else {
    ++breaker_trips_;
    if (e.first_trip_at < 0) {
      e.first_trip_at = now;
    }
    if (e.first_bad_at >= 0) {
      e.max_trip_gap = std::max(e.max_trip_gap, now - e.first_bad_at);
    }
  }
}

void ResilienceManager::OnEpoch(SimTime now) {
  if (!cfg_.breakers) {
    return;
  }
  for (int p = 0; p < kEndpointCount; ++p) {
    Endpoint& e = eps_[p];
    const uint64_t total = e.window_total;
    const uint64_t bad = e.window_bad;
    const bool rate_bad =
        total > 0 && static_cast<double>(bad) / static_cast<double>(total) >=
                         cfg_.breaker_threshold;
    switch (e.state) {
      case BreakerState::kClosed:
        if (total >= static_cast<uint64_t>(cfg_.breaker_min_samples) && rate_bad) {
          Trip(e, now, /*reopen=*/false);
        }
        break;
      case BreakerState::kOpen:
        if (--e.open_epochs_left <= 0) {
          e.state = BreakerState::kHalfOpen;
          e.probes_left = cfg_.breaker_probes;
        }
        break;
      case BreakerState::kHalfOpen:
        if (total > 0 && rate_bad) {
          Trip(e, now, /*reopen=*/true);
        } else if (total > 0) {
          // Probes came back healthy: close and forget the bad spell.
          e.state = BreakerState::kClosed;
          e.first_bad_at = -1;
        } else {
          // Nothing was routed here this epoch — refill the probe budget
          // and keep listening.
          e.probes_left = cfg_.breaker_probes;
        }
        break;
    }
    e.window_total = 0;
    e.window_bad = 0;
  }
}

void ResilienceManager::OnOutcome(int ep, SimTime latency, bool ok,
                                  bool deadline_met, SimTime now) {
  Endpoint& e = eps_[Check(ep)];
  const bool bad = !ok || !deadline_met;
  ++e.window_total;
  if (bad) {
    ++e.window_bad;
    if (e.first_bad_at < 0) {
      e.first_bad_at = now;
    }
  }
  if (ok) {
    // Jacobson-style mean/dev estimators feeding the hedge delay.
    const double us = ToMicros(latency);
    if (!e.lat_primed) {
      e.lat_primed = true;
      e.lat_mean_us = us;
      e.lat_dev_us = us / 2.0;
    } else {
      const double err = us - e.lat_mean_us;
      e.lat_mean_us += err / 8.0;
      e.lat_dev_us += (std::abs(err) - e.lat_dev_us) / 4.0;
    }
  }
}

bool ResilienceManager::HedgeEligible(int routed_ep, uint32_t bytes) const {
  if (!cfg_.hedging || bytes > cfg_.hedge_max_bytes) {
    return false;
  }
  return EndpointAvailable(OtherEndpoint(Check(routed_ep)));
}

SimTime ResilienceManager::HedgeDelay(int routed_ep) {
  const Endpoint& e = eps_[Check(routed_ep)];
  double us = cfg_.hedge_multiplier * (e.lat_mean_us + 2.0 * e.lat_dev_us);
  us = std::max(us, ToMicros(cfg_.hedge_min_delay));
  // One counted draw per hedge decision, like the governor's epsilon.
  ++draws_;
  const double u = rng_.NextDouble();
  us *= 1.0 + cfg_.hedge_jitter * (2.0 * u - 1.0);
  return FromMicros(us);
}

void ResilienceManager::RegisterMetrics(MetricsRegistry* reg) {
  using R = ResilienceManager;
  static constexpr MetricsRegistry::Row<R> kRows[] = {
      {"shed_total", "count", [](const R& r) -> double { return r.shed_total(); }},
      {"shed_codel", "count", [](const R& r) -> double { return r.shed_codel_; }},
      {"shed_bucket", "count", [](const R& r) -> double { return r.shed_bucket_; }},
      {"shed_deadline", "count", [](const R& r) -> double { return r.shed_deadline_; }},
      {"hedges", "count", [](const R& r) -> double { return r.hedges_; }},
      {"hedge_wins", "count", [](const R& r) -> double { return r.hedge_wins_; }},
      {"hedge_cancels", "count", [](const R& r) -> double { return r.hedge_cancels_; }},
      {"breaker_trips", "count", [](const R& r) -> double { return r.breaker_trips_; }},
      {"breaker_reopens", "count", [](const R& r) -> double { return r.breaker_reopens_; }},
      {"breaker_probes", "count", [](const R& r) -> double { return r.breaker_probes_used_; }},
      {"draws", "count", [](const R& r) -> double { return r.draws_; }},
  };
  reg->Register("resil", *this, kRows);
}

}  // namespace resilience
}  // namespace snicsim

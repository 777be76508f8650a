// Overload protection and endpoint failover for the KV serving path.
//
// A ResilienceManager is the per-experiment home of four cooperating
// mechanisms, all deterministic:
//
//  (a) Deadline budgets — every request is stamped with an absolute
//      deadline at issue (StampDeadline). The budget is checked at
//      admission (Admit), before a hedge launches, and at retransmit time
//      in the client's retransmission engine (ClientMachine::Post,
//      which verbs QPs post through too): expired work fails instead of
//      retransmitting again.
//  (b) Admission control — per-endpoint CoDel-style controllers fed by the
//      ServingExecutor's exact pool backlog (BindQueueSignal), plus a
//      token-bucket rate limiter. When the windowed minimum queue delay
//      stays above the target, the shed level escalates and the lowest
//      size classes are refused first (class index == priority: class 0 is
//      shed before class 1). Shedding turns the throughput collapse past
//      the saturation knee into a goodput plateau.
//  (c) Hedged requests — small GETs may be duplicated onto the second path
//      after a latency-estimate-based delay (mean + 2*dev EWMAs per
//      endpoint) with a seeded, draw-counted jitter. First completion
//      wins; the loser is cancelled and counted.
//  (d) Circuit breakers — one per endpoint, closed -> open -> half-open,
//      advanced on the governor's epoch tick (OnEpoch). A breaker trips
//      when the windowed error/deadline-miss rate crosses the threshold,
//      draining traffic off a sick endpoint before the latency EWMAs see
//      it; half-open re-admits a bounded probe trickle per epoch.
//
// Determinism contract: the only randomness is the hedge jitter, drawn
// from the manager's private seeded Rng with every draw counted (draws()),
// exactly like the governor's epsilon-exploration. Everything else is a
// pure function of sim-time-ordered calls, so fingerprints are
// byte-identical across --jobs levels and under faults. An empty config
// (empty() == true) means the harness creates no manager at all and the
// run is bit-identical to a resilience-free build.
#ifndef SRC_RESILIENCE_RESILIENCE_H_
#define SRC_RESILIENCE_RESILIENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"

namespace snicsim {
namespace resilience {

// Serving endpoints, index-compatible with the governor's path constants
// (kPathHost / kPathSoc) without depending on the governor layer.
inline constexpr int kEndpointHost = 0;
inline constexpr int kEndpointSoc = 1;
inline constexpr int kEndpointCount = 2;

struct ResilienceConfig {
  // Per-request latency budget; 0 disables deadlines entirely.
  SimTime deadline = 0;

  // --- admission control (CoDel + token bucket) ---
  bool shedding = false;
  SimTime codel_target = FromMicros(15);    // acceptable standing queue delay
  SimTime codel_interval = FromMicros(30);  // windowed-minimum horizon
  double bucket_mops = 0.0;                 // per-endpoint admit rate; 0 = off
  double bucket_depth = 64.0;               // burst tokens

  // --- hedged requests ---
  bool hedging = false;
  uint32_t hedge_max_bytes = 4096;  // only small GETs are hedged
  double hedge_multiplier = 3.0;    // delay = mult * (mean + 2*dev)
  SimTime hedge_min_delay = FromMicros(4);
  double hedge_jitter = 0.25;       // +/- fraction, one counted draw per hedge

  // --- circuit breakers ---
  bool breakers = false;
  double breaker_threshold = 0.5;  // windowed bad-outcome rate that trips
  int breaker_min_samples = 8;     // outcomes needed before a trip decision
  int breaker_open_epochs = 2;     // epochs spent fully open
  int breaker_probes = 8;          // probe budget per half-open epoch

  uint64_t seed = 0x5eedULL;

  // An empty config injects nothing; the harness then skips creating a
  // manager entirely so the simulation is bit-identical to a
  // resilience-free build.
  bool empty() const {
    return deadline == 0 && !shedding && !hedging && !breakers;
  }
};

// Reusable admission primitives. ResilienceManager instantiates one of each
// per serving endpoint; the tenant control plane (src/offload/tenancy.h)
// instantiates one of each per *tenant*, which is how the §11 mechanisms
// become per-tenant without forking their arithmetic.
//
// CoDel-style controller state: track the windowed minimum queue delay; if
// even the *minimum* over a full interval sits above target, the pool has a
// standing queue (not a burst) and the shed level rises by one class. A
// window whose minimum falls back under half the target de-escalates by one.
struct CodelState {
  // Shed levels beyond the largest plausible class count add nothing; the
  // cap only bounds how long de-escalation takes after a burst.
  static constexpr int kMaxLevel = 8;

  SimTime interval_end = 0;
  SimTime min_delay = std::numeric_limits<SimTime>::max();
  int level = 0;  // value classes below this index are shed

  // Feeds one queue-delay observation at `now`; returns the current level.
  int Observe(SimTime delay, SimTime target, SimTime interval, SimTime now) {
    min_delay = std::min(min_delay, delay);
    if (interval_end == 0) {
      interval_end = now + interval;
    } else if (now >= interval_end) {
      if (min_delay > target) {
        level = std::min(level + 1, kMaxLevel);
      } else if (min_delay <= target / 2) {
        level = std::max(level - 1, 0);
      }
      // Non-stationary arrivals can leave whole intervals with no
      // observations at all (a diurnal trough after a flash crowd). The
      // escalated level from the busy phase would otherwise persist
      // through the lull — one de-escalation per *arrival* regardless of
      // the gap length — and shed the first requests of the next phase
      // against a queue that has long drained. Credit one de-escalation
      // per fully-missed interval: an empty interval's minimum delay is
      // vacuously zero.
      if (level > 0 && now >= interval_end + interval) {
        const SimTime gap = now - interval_end;
        const int64_t missed = static_cast<int64_t>(gap / interval);
        level = static_cast<int>(
            std::max<int64_t>(0, static_cast<int64_t>(level) - missed));
      }
      min_delay = std::numeric_limits<SimTime>::max();
      interval_end = now + interval;
    }
    return level;
  }
};

// Deterministic token bucket: a hard rate cap near capacity, the plateau
// backstop when the integer shed level alone oscillates around the knee.
struct TokenBucketState {
  double tokens = 0.0;
  SimTime at = 0;
  bool primed = false;

  // One admission attempt against `mops` requests/us with `depth` burst
  // tokens. False means the request is shed.
  bool TryTake(double mops, double depth, SimTime now) {
    if (!primed) {
      primed = true;
      tokens = depth;
      at = now;
    }
    tokens = std::min(depth, tokens + ToMicros(now - at) * mops);
    at = now;
    if (tokens < 1.0) {
      return false;
    }
    tokens -= 1.0;
    return true;
  }

  // Amount-metered take for rate-limited background streams (the rack
  // repair plane's migration throttle meters bytes through this). Refills
  // at `rate` units/us toward `depth`, then removes `amount` — which may
  // exceed depth, driving the bucket negative so the deficit is repaid at
  // `rate`. Returns how long the caller must wait before issuing the *next*
  // take (0 while credit remains). Pure arithmetic, no draws: pacing delays
  // are an exact function of the byte sequence, which keeps migration
  // byte-identical across (--jobs, --sim-threads).
  SimTime TakeAmount(double rate, double depth, double amount, SimTime now) {
    if (!primed) {
      primed = true;
      tokens = depth;
      at = now;
    }
    tokens = std::min(depth, tokens + ToMicros(now - at) * rate);
    at = now;
    tokens -= amount;
    if (tokens >= 0.0) {
      return 0;
    }
    return FromMicros(-tokens / rate);
  }
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

class ResilienceManager {
 public:
  explicit ResilienceManager(const ResilienceConfig& cfg);

  ResilienceManager(const ResilienceManager&) = delete;
  ResilienceManager& operator=(const ResilienceManager&) = delete;

  const ResilienceConfig& config() const { return cfg_; }

  // Exact queue-delay signal for one endpoint's serving pool (the
  // ServingExecutor binds its MultiServer::Backlog here).
  using QueueSignal = std::function<SimTime()>;
  void BindQueueSignal(int ep, QueueSignal backlog);

  // --- deadlines ---
  // Absolute deadline for a request issued now (0 when deadlines are off).
  SimTime StampDeadline(SimTime now) const {
    return cfg_.deadline > 0 ? now + cfg_.deadline : 0;
  }

  // --- admission (called once per request, after routing) ---
  // False => the request is shed (never issued); the cause is counted.
  // `cls` is the size-class index; lower classes are shed first.
  bool Admit(int ep, int cls, SimTime deadline, SimTime now);

  // --- circuit breakers ---
  // Pure query: can new (non-forced) work be routed to `ep` right now?
  bool EndpointAvailable(int ep) const;
  // Accounting for a routing decision: consumes one half-open probe.
  void OnRouted(int ep);
  // Advances every breaker one epoch (driven by the governor's tick).
  void OnEpoch(SimTime now);
  BreakerState breaker_state(int ep) const { return eps_[Check(ep)].state; }

  // --- outcome feed (exactly once per request, terminal) ---
  void OnOutcome(int ep, SimTime latency, bool ok, bool deadline_met,
                 SimTime now);

  // --- hedging ---
  bool HedgeEligible(int routed_ep, uint32_t bytes) const;
  // Seeded jittered delay before the duplicate launches; one counted draw.
  SimTime HedgeDelay(int routed_ep);
  static int OtherEndpoint(int ep) { return ep == kEndpointHost ? kEndpointSoc : kEndpointHost; }
  void OnHedgeLaunched() { ++hedges_; }
  void OnHedgeWin() { ++hedge_wins_; }
  void OnHedgeCancel() { ++hedge_cancels_; }

  // --- counters ---
  uint64_t shed_total() const { return shed_codel_ + shed_bucket_ + shed_deadline_; }
  uint64_t shed_codel() const { return shed_codel_; }
  uint64_t shed_bucket() const { return shed_bucket_; }
  uint64_t shed_deadline() const { return shed_deadline_; }
  uint64_t hedges() const { return hedges_; }
  uint64_t hedge_wins() const { return hedge_wins_; }
  uint64_t hedge_cancels() const { return hedge_cancels_; }
  uint64_t breaker_trips() const { return breaker_trips_; }
  uint64_t breaker_reopens() const { return breaker_reopens_; }
  uint64_t breaker_probes_used() const { return breaker_probes_used_; }
  uint64_t draws() const { return draws_; }
  int shed_level(int ep) const { return eps_[Check(ep)].codel.level; }

  // Failover introspection: when did `ep`'s breaker first trip, and how
  // long after the first bad outcome of that window did the trip land?
  // (-1 when it never tripped.)
  SimTime first_trip_at(int ep) const { return eps_[Check(ep)].first_trip_at; }
  SimTime max_trip_gap(int ep) const { return eps_[Check(ep)].max_trip_gap; }

  // Exposes every counter above under component "resil" (leaf catalog:
  // DESIGN.md section 6.2).
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  struct Endpoint {
    // admission
    QueueSignal backlog;
    CodelState codel;
    TokenBucketState bucket;
    // breaker
    BreakerState state = BreakerState::kClosed;
    uint64_t window_total = 0;
    uint64_t window_bad = 0;
    int open_epochs_left = 0;
    int probes_left = 0;
    // hedging latency estimate (us)
    double lat_mean_us = 0.0;
    double lat_dev_us = 0.0;
    bool lat_primed = false;
    // failover introspection
    SimTime first_bad_at = -1;
    SimTime first_trip_at = -1;
    SimTime max_trip_gap = -1;
  };

  static int Check(int ep);
  void Trip(Endpoint& e, SimTime now, bool reopen);

  ResilienceConfig cfg_;
  Rng rng_;
  Endpoint eps_[kEndpointCount];

  uint64_t shed_codel_ = 0;
  uint64_t shed_bucket_ = 0;
  uint64_t shed_deadline_ = 0;
  uint64_t hedges_ = 0;
  uint64_t hedge_wins_ = 0;
  uint64_t hedge_cancels_ = 0;
  uint64_t breaker_trips_ = 0;
  uint64_t breaker_reopens_ = 0;
  uint64_t breaker_probes_used_ = 0;
  uint64_t draws_ = 0;
};

}  // namespace resilience
}  // namespace snicsim

#endif  // SRC_RESILIENCE_RESILIENCE_H_

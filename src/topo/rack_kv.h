// Rack-scale sharded KV serving: N BlueField servers, each a parallel-sim
// domain running the full per-server stack, fronted by consistent-hash
// sharding with primary+follower replication and shard failover.
//
// Topology. Every domain owns a complete serving machine — Fabric,
// BluefieldServer (SmartNIC model), ServingExecutor on both endpoints,
// AdaptiveGovernor routing host (①) vs SoC (②, misses ride ③),
// ResilienceManager admission control, FaultInjector, and the domain
// simulator's TimerWheel for every timeout and epoch clock — plus
// the *home* side: an AggregateFleet generating this domain's share of the
// rack's user population in O(in-flight) memory, the shard map, and a
// failover view of every other server. Domains exchange request/reply,
// replication, and probe messages through ParallelSimulator::Post with the
// rack link latency as the conservative lookahead.
//
// The request planes — routing and failover, serving and replication,
// membership change and migration, integrity — are described at the top of
// their own files (src/topo/rack_kv_internal.h lists them).
//
// Every field of RackKvResult, including the replay digest, is
// byte-identical at any --jobs x --sim-threads combination (DESIGN.md §12);
// request state is materialized only while in flight, so the peak resident
// client state is O(in-flight), not O(users) — both are asserted by
// bench/rack_scale --check at a 1M-user point.
#ifndef SRC_TOPO_RACK_KV_H_
#define SRC_TOPO_RACK_KV_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/units.h"
#include "src/fault/plan.h"
#include "src/kvstore/layout.h"
#include "src/obs/metrics.h"
#include "src/resilience/resilience.h"
#include "src/sim/domain.h"
#include "src/topo/testbed_params.h"
#include "src/workload/trace/trace.h"

namespace snicsim {

struct RackKvParams {
  int servers = 4;  // >= 2 (replication needs a distinct follower)
  // Rack-wide closed-loop user population, split across (server, class)
  // buckets by largest remainder; memory stays O(in-flight) regardless.
  uint64_t users = 100000;
  double think_mean_us = 1000.0;  // per-user exponential think time
  double zipf_theta = 0.99;       // key skew, in (0, 1)
  kv::ServingLayout layout;       // keys, SoC-resident span, class table
  std::vector<double> mix = {0.70, 0.25, 0.05};  // value-class weights
  double write_fraction = 0.1;    // writes replicate to the follower
  int replicas = 2;               // 1 disables replication

  SimTime rack_link_latency = FromMicros(2);  // one-way; == the lookahead
  SimTime request_timeout = FromMicros(25);   // home retry clock
  int max_attempts = 8;
  SimTime repl_timeout = FromMicros(30);

  SimTime governor_epoch = FromMicros(50);  // also the failover probe period

  SimTime window = FromMicros(400);  // issue horizon; then drain to empty
  uint64_t seed = 1;
  int sim_threads = 1;
  bool materialize_fleet = false;  // O(users) reference mode (tests only)
  TestbedParams testbed;
  fault::FaultPlan faults;
  resilience::ResilienceConfig resil;  // empty() => no manager at all
  std::string metrics_path;  // dump the rack.* catalog when non-empty

  // Membership-change & repair plane (DESIGN.md §16). Default-off: with
  // enabled=false none of the machinery below allocates, no extra events or
  // draws occur, and a run is byte-identical to one on a membership-free
  // build.
  struct MembershipParams {
    bool enabled = false;
    // Permanent-loss detection: a down-marked server still unresponsive on
    // its K-th consecutive probe epoch is removed from the ring (governor
    // epochs double as the probe clock).
    int permloss_epochs = 3;
    // Migration token-bucket rate in Gbps. <= 0 derives a quarter of
    // SafePath3BudgetGbps(testbed): the repair plane's reserved share of
    // the same intra-machine budget the governor polices for serving.
    double migration_gbps = 0.0;
    int migrate_batch = 64;  // keys per migration range
    // Anti-entropy scrubber: ranks integrity-verified per governor epoch per
    // server (0 disables the scrubber; allocating the integrity store when
    // > 0). The walk itself is draw-free and event-free — only a detection
    // schedules repair traffic.
    uint64_t scrub_keys_per_epoch = 0;
  };
  MembershipParams membership;

  // Non-stationary load shape replayed through every domain's fleet
  // (src/workload/trace/trace.h): rate via exact peak-rate thinning, churn
  // as a draw-free rank rotation, scan bursts as one plan-gated draw per
  // issue. empty() => no trace machinery; a flat trace is byte-identical
  // to no trace at all.
  trace::TracePlan trace;
};

// How RunRackKv folds one counter over the server domains.
enum class RackMerge : uint8_t {
  kSum,       // add every domain's count
  kMax,       // keep the largest (-1 == never, for times)
  kEarliest,  // keep the smallest time that was ever set (-1 == never)
  kOnce,      // computed once per run from the whole rack, not per domain
};

// The rack counters, one row each: type, name, unit, merge rule, whether
// Fingerprint() covers it, help text. The RackKvResult fields, the
// per-domain merge, Fingerprint() and the rack.<name> rows of the --metrics
// dump are all generated from these rows, in row order — the fingerprint's
// byte order, so moving a row changes every fingerprint. `double` counters
// are simulated microseconds, -1 while the event has never happened.
#define SNICSIM_RACK_COUNTERS(X)                                                                   \
  /* Home side. */                                                                                 \
  X(uint64_t, generated, "count", kSum, true, "requests generated by the aggregate fleets")        \
  X(uint64_t, issued, "count", kSum, true, "dispatch attempts (>= generated; retries add)")        \
  X(uint64_t, completed, "count", kSum, true, "requests settled ok")                               \
  X(uint64_t, failed, "count", kSum, true, "requests that exhausted the retry budget")             \
  X(uint64_t, shed, "count", kSum, true, "requests refused by serving-side admission")             \
  X(uint64_t, timeouts, "count", kSum, true, "home request-timeout firings")                       \
  X(uint64_t, nacks, "count", kSum, true, "crash-refused arrivals bounced home")                   \
  X(uint64_t, stale_replies, "count", kSum, true, "replies that lost to a timeout decision")       \
  /* Serving side. */                                                                              \
  X(uint64_t, crash_refused, "count", kSum, true, "arrivals refused by a dead server")             \
  X(uint64_t, serve_timeouts, "count", kSum, true, "serves failed by the serving watchdog")        \
  X(uint64_t, late_serves, "count", kSum, true, "serve completions after the watchdog")            \
  X(uint64_t, host_gets, "count", kSum, true, "gets served on path 1 (host CPU)")                  \
  X(uint64_t, soc_gets, "count", kSum, true, "gets served on path 2 (SoC CPU)")                    \
  X(uint64_t, soc_hits, "count", kSum, true, "SoC gets served from SoC DRAM")                      \
  X(uint64_t, soc_misses, "count", kSum, true, "SoC gets that fetched over path 3")                \
  X(uint64_t, path3_bytes, "bytes", kSum, true, "value bytes moved host->SoC by misses")           \
  X(uint64_t, crash_drops, "count", kSum, true, "gets dropped by an endpoint crash window")        \
  X(uint64_t, rewarm_misses, "count", kSum, true, "SoC gets forced over path 3 by rewarm")         \
  /* Replication. */                                                                               \
  X(uint64_t, writes, "count", kSum, true, "served writes that replicate")                         \
  X(uint64_t, repl_pushed, "count", kSum, true, "replication pushes by acting primaries")          \
  X(uint64_t, repl_acked, "count", kSum, true, "replication pushes acked by the follower")         \
  X(uint64_t, repl_failed, "count", kSum, true, "replication pushes given up")                     \
  X(uint64_t, repl_applied, "count", kSum, true, "follower-side replica applies")                  \
  X(uint64_t, repl_stale, "count", kSum, true, "replication acks that lost to a timeout")          \
  /* Governor and resilience (zero without a manager), from the stacks. */                         \
  X(uint64_t, routed_host, "count", kSum, true, "requests the governor routed to path 1")          \
  X(uint64_t, routed_soc, "count", kSum, true, "requests the governor routed to path 2")           \
  X(uint64_t, hol_gated, "count", kSum, true, "SoC routes vetoed by the HoL gate")                 \
  X(uint64_t, budget_spills, "count", kSum, true, "SoC routes spilled by the path-3 budget")       \
  X(uint64_t, explored, "count", kSum, true, "governor epsilon-exploration routes")                \
  X(uint64_t, gov_draws, "count", kSum, true, "governor RNG draws")                                \
  X(uint64_t, breaker_denied, "count", kSum, true, "routes denied by an open breaker")             \
  X(uint64_t, shed_codel, "count", kSum, true, "admissions shed by CoDel")                         \
  X(uint64_t, shed_bucket, "count", kSum, true, "admissions shed by the token bucket")             \
  X(uint64_t, resil_draws, "count", kSum, true, "resilience RNG draws")                            \
  /* Failover. */                                                                                  \
  X(uint64_t, promotions, "count", kSum, true, "shard failovers (a home marked a server down)")    \
  X(uint64_t, rehomed, "count", kSum, true, "recoveries (a probe or reply re-homed a server)")     \
  X(uint64_t, probes, "count", kSum, true, "probes sent to down-marked servers")                   \
  /* Fleet and memory. peak_inflight sums the per-server fleet peaks, so it */                     \
  /* bounds the rack-wide concurrent peak from above. resident_client_bytes */                     \
  /* is derived from struct sizes, not simulation state. */                                        \
  X(uint64_t, fleet_draws, "count", kSum, true, "aggregate-fleet RNG draws")                       \
  X(uint64_t, peak_inflight, "count", kSum, true, "sum of per-server in-flight peaks")             \
  X(uint64_t, resident_client_bytes, "bytes", kSum, false, "fleet state + in-flight slabs")        \
  /* Parallel core accounting (thread-count invariant). */                                         \
  X(uint64_t, rounds, "count", kOnce, true, "conservative sync rounds")                            \
  X(uint64_t, merged, "count", kOnce, true, "cross-domain events merged")                          \
  X(uint64_t, processed, "count", kOnce, true, "events processed, all domains")                    \
  X(uint64_t, digest, "hash", kOnce, true, "replay digest of the merge and every domain")          \
  /* Failover timings. */                                                                           \
  X(double, max_promote_gap_us, "us", kMax, true, "worst first-evidence -> promote gap")           \
  X(double, first_promote_at_us, "us", kEarliest, true, "first promotion")                         \
  X(double, first_rehome_at_us, "us", kEarliest, true, "first re-home")                            \
  /* Home-measured end-to-end latency. */                                                          \
  X(int64_t, p50_ps, "ps", kOnce, true, "median request latency")                                  \
  X(int64_t, p99_ps, "ps", kOnce, true, "99th-percentile request latency")                         \
  X(int64_t, max_ps, "ps", kOnce, true, "worst request latency")                                   \
  /* Membership and repair (zero unless membership.enabled). */                                    \
  X(uint64_t, removals, "count", kSum, true, "ring removals executed, all domains")                \
  X(uint64_t, member_epoch, "count", kMax, true, "highest membership epoch reached")               \
  X(uint64_t, stale_epoch_bounces, "count", kSum, true, "requests bounced: stale epoch")           \
  X(uint64_t, retry_replies, "count", kSum, true, "evidence-free retry replies settled")           \
  X(uint64_t, ranges_started, "count", kSum, true, "migration ranges started")                     \
  X(uint64_t, ranges_completed, "count", kSum, true, "migration ranges completed")                 \
  X(uint64_t, ranges_failed, "count", kSum, true, "migration ranges given up")                     \
  X(uint64_t, keys_migrated, "count", kSum, true, "pushes acked at the migrating survivor")        \
  X(uint64_t, keys_installed, "count", kSum, true, "installs applied at the new owner")            \
  X(uint64_t, keys_lost, "count", kSum, true, "ranks with both replicas gone at removal")          \
  X(uint64_t, migration_waits, "count", kSum, true, "token-bucket pacer deferrals")                \
  X(uint64_t, repair_path3_bytes, "bytes", kSum, true, "migration fetch bytes over path 3")        \
  X(double, membership_change_at_us, "us", kEarliest, true, "first removal executed")              \
  X(double, repair_done_at_us, "us", kMax, true, "last migration range completed")                 \
  X(double, last_failed_start_us, "us", kMax, true, "start of the latest failed request")          \
  /* Integrity (zero without corrupt events or a scrubber). */                                     \
  X(uint64_t, integrity_checks, "count", kSum, true, "integrity verifies, serve + scrub")          \
  X(uint64_t, corrupted_keys, "count", kSum, true, "value flips injected by corrupt=")             \
  X(uint64_t, corrupt_propagated, "count", kSum, true, "migrated while the sole copy was bad")     \
  X(uint64_t, read_repair_detected, "count", kSum, true, "corruption caught on a serve")           \
  X(uint64_t, scrub_checked, "count", kSum, true, "ranks verified by the scrubber")                \
  X(uint64_t, scrub_detected, "count", kSum, true, "corruption caught by the scrubber")            \
  X(uint64_t, repaired_read, "count", kSum, true, "healed from the replica (serve path)")          \
  X(uint64_t, repaired_scrub, "count", kSum, true, "healed from the replica (scrubber)")           \
  X(uint64_t, repaired_write, "count", kSum, true, "overwritten by a fresh write/install")         \
  X(uint64_t, repair_unavailable, "count", kSum, true, "heals with no clean live replica")         \
  X(uint64_t, corrupt_remaining, "count", kSum, true, "still-bad stored values at drain")          \
  X(uint64_t, undetected_corrupt_serves, "count", kSum, true, "bad values served (always 0)")      \
  /* Trace shaping (zero without a trace plan). */                                                 \
  X(uint64_t, scan_forced, "count", kSum, true, "requests upgraded by a scan burst")

struct RackKvResult {
#define SNICSIM_RACK_FIELD(type, name, unit, merge, fingerprinted, help)                           \
  type name = std::is_floating_point_v<type> ? -1 : 0;
  SNICSIM_RACK_COUNTERS(SNICSIM_RACK_FIELD)
#undef SNICSIM_RACK_FIELD
  // Per-server completed counts (load-concentration dominance checks).
  std::vector<uint64_t> server_completed;
  // Completions bucketed by governor-epoch index of their settle time —
  // the goodput-during-migration series sec_membership's floor check reads.
  std::vector<uint64_t> completed_by_epoch;

  // One line per broken ledger identity after the drain ("repl_pushed 9 !=
  // repl_acked 7 + repl_failed 1"), empty when all five close:
  // generated == completed + failed + shed, repl_pushed == repl_acked +
  // repl_failed, ranges_started == ranges_completed + ranges_failed,
  // keys_migrated == keys_installed, and corrupted_keys + corrupt_propagated
  // == repaired_read + repaired_scrub + repaired_write + corrupt_remaining.
  // Dead servers keep their corrupt values and corrupt_remaining counts them,
  // so the last one closes under permloss+corrupt too.
  std::vector<std::string> LedgerBreaks() const;
  bool Conserved() const { return LedgerBreaks().empty(); }

  // Every fingerprinted counter, then both series, fixed formatting — the
  // byte-compare unit for the (--jobs, --sim-threads) grid.
  std::string Fingerprint() const;

  // One rack.<name> gauge per counter, sampling this result.
  void RegisterMetrics(MetricsRegistry* reg) const;
};

struct RackCounterInfo {
  const char* name;
  const char* unit;
  RackMerge merge;
  bool fingerprinted;
};

// Calls f(info, &RackKvResult::<name>) for every counter, in declaration
// order.
template <typename F>
void ForEachRackCounter(F&& f) {
#define SNICSIM_RACK_VISIT(type, name, unit, merge, fingerprinted, help)                           \
  f(RackCounterInfo{#name, unit, RackMerge::merge, fingerprinted}, &RackKvResult::name);
  SNICSIM_RACK_COUNTERS(SNICSIM_RACK_VISIT)
#undef SNICSIM_RACK_VISIT
}

// The rack.<name> rows of the --metrics dump: every counter, in row order.
inline constexpr MetricsRegistry::Row<RackKvResult> kRackMetricRows[] = {
#define SNICSIM_RACK_METRIC(type, name, unit, merge, fingerprinted, help)                          \
  {#name, unit, [](const RackKvResult& r) { return static_cast<double>(r.name); }},
    SNICSIM_RACK_COUNTERS(SNICSIM_RACK_METRIC)
#undef SNICSIM_RACK_METRIC
};
#undef SNICSIM_RACK_COUNTERS

RackKvResult RunRackKv(const RackKvParams& params);

}  // namespace snicsim

#endif  // SRC_TOPO_RACK_KV_H_

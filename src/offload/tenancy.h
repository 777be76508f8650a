// Multi-tenant SmartNIC-as-a-service control plane.
//
// A TenantManager consolidates several tenants' offload pipelines onto one
// BlueField server: each tenant's stage chain (src/offload/stages.h) is
// scheduled onto a shared SoC core pool through a deterministic
// weighted-round-robin arbiter (src/offload/arbiter.h), host-side stages
// share one host core pool, and placement-boundary crossings ship items
// over path ③ through the same NicEngine the serving plane uses, so tenant
// traffic and KV traffic contend for the real intra-machine budget. A stage
// answers stall and crash windows on the name of the server endpoint on its
// side ("bf_srv.soc", "rack.s1.host"), the same fault domain the serving
// executor and the NIC engine query.
//
// Isolation is enforced by making the §11 resilience primitives
// *per-tenant*: every tenant owns a TokenBucketState (its admission cap, in
// Mops) and a CodelState fed by its own head-of-line delay on the SoC pool,
// shedding its lowest value classes first when its standing queue grows.
// The per-tenant conservation ledger
//
//     generated == admitted + shed            (shed == shed_codel + shed_bucket)
//     admitted  == completed + failed         (after drain)
//
// closes exactly on every run, faulted or not, and TenantResult::
// Fingerprint() digests every counter so replays are byte-comparable.
//
// Determinism contract: tenant arrival streams are open-loop with fixed
// spacing (1/mops us), per-item filter decisions are hashes of
// (set seed ^ FNV(tenant id), item seq) — no shared RNG stream — and the
// WRR arbiter decides from queue occupancy alone. Consequently (a) the same
// seed replays byte-identically at any --jobs level, and
// (b) tenants on disjoint pools with no crossings are invisible to each
// other: merging them into one TenantManager reproduces their solo
// fingerprints byte-for-byte (the metamorphic law pinned by
// tests/offload/tenancy_property_test.cc). An empty TenantSetConfig creates
// no manager at all, so tenant-free serving runs are byte-identical to
// pre-tenancy builds (pinned by tests/golden/tenants_golden_test.cc).
#ifndef SRC_OFFLOAD_TENANCY_H_
#define SRC_OFFLOAD_TENANCY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/fault/injector.h"
#include "src/obs/metrics.h"
#include "src/offload/arbiter.h"
#include "src/offload/stages.h"
#include "src/offload/tenant_config.h"
#include "src/resilience/resilience.h"
#include "src/sim/server.h"
#include "src/topo/server.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace offload {

// Everything one tenant did, one row per counter (type, name, initial value,
// help); the fields and Fingerprint() (after "id|kind|") are generated from
// the rows. Pool indices are deliberately absent so a tenant's digest is
// invariant under re-homing onto a different (still disjoint) pool.
#define SNICSIM_TENANT_COUNTERS(X)                                                                 \
  X(uint64_t, generated, 0, "items generated (+ one per served GET for kv)")                       \
  X(uint64_t, admitted, 0, "items past both per-tenant admission gates")                           \
  X(uint64_t, shed, 0, "items refused at admission (shed_codel + shed_bucket)")                    \
  X(uint64_t, shed_codel, 0, "items shed by the tenant's CoDel controller")                        \
  X(uint64_t, shed_bucket, 0, "items refused by the tenant's admission cap")                       \
  X(uint64_t, completed, 0, "items whose stage chain finished")                                    \
  X(uint64_t, failed, 0, "items killed in flight by a crash window")                               \
  X(uint64_t, filtered, 0, "items dropped by a scan stage (completed, not failed)")                \
  X(uint64_t, slo_checked, 0, "completions checked against the SLO")                               \
  X(uint64_t, violations, 0, "checked completions past the SLO")                                   \
  X(uint64_t, crossings, 0, "placement-boundary hops over path 3")                                 \
  X(uint64_t, path3_bytes, 0, "bytes those crossings moved")                                       \
  X(uint64_t, grants, 0, "SoC-pool WRR grants")                                                    \
  X(double, p50_us, 0, "median item latency")                                                      \
  X(double, p99_us, 0, "99th-percentile item latency")                                             \
  X(double, busy_us, 0, "SoC-pool service time granted")

struct TenantResult {
  std::string id;
  TenantKind kind = TenantKind::kSketch;
#define SNICSIM_TENANT_FIELD(type, name, init, help) type name = init;
  SNICSIM_TENANT_COUNTERS(SNICSIM_TENANT_FIELD)
#undef SNICSIM_TENANT_FIELD

  // Closed iff both ledger identities hold (see file header).
  bool LedgerClosed() const {
    return generated == admitted + shed && shed == shed_codel + shed_bucket &&
           admitted == completed + failed;
  }
  double ViolationFraction() const {
    return slo_checked == 0
               ? 0.0
               : static_cast<double>(violations) / static_cast<double>(slo_checked);
  }
  std::string Fingerprint() const;
};

// Calls f(name, &TenantResult::<name>) for every counter, in row order.
template <typename F>
void ForEachTenantCounter(F&& f) {
#define SNICSIM_TENANT_VISIT(type, name, init, help) f(#name, &TenantResult::name);
  SNICSIM_TENANT_COUNTERS(SNICSIM_TENANT_VISIT)
#undef SNICSIM_TENANT_VISIT
}
#undef SNICSIM_TENANT_COUNTERS

struct TenantSetResult {
  std::vector<TenantResult> tenants;

  bool AllLedgersClosed() const {
    return std::all_of(tenants.begin(), tenants.end(),
                       [](const TenantResult& t) { return t.LedgerClosed(); });
  }
  const TenantResult* Find(const std::string& id) const {
    for (const TenantResult& t : tenants) {
      if (t.id == id) {
        return &t;
      }
    }
    return nullptr;
  }
  // Concatenation of per-tenant digests, in config order.
  std::string Fingerprint() const;
};

class TenantManager {
 public:
  // `inj` may be null (fault-free run). Each side's fault domain is the
  // name of the server's endpoint on that side.
  TenantManager(Simulator* sim, BluefieldServer* server,
                fault::FaultInjector* inj, const TenantSetConfig& cfg);

  TenantManager(const TenantManager&) = delete;
  TenantManager& operator=(const TenantManager&) = delete;

  const TenantSetConfig& config() const { return cfg_; }

  // Attaches a non-stationary trace *before* Start: each non-kv tenant's
  // deterministic arrival spacing is divided by the segment's bg
  // multiplier (compaction-style background phases), and bg == 0 pauses
  // the stream until the next segment boundary. No draws are involved, so
  // a flat trace (bg == 1 everywhere) replays byte-identically.
  void SetTrace(const trace::TraceDriver* trace) { trace_ = trace; }

  // Begins every non-kv tenant's open-loop arrival stream (first item one
  // spacing after now). Items already in flight at StopIssuing() drain to
  // completion before the sim goes quiet, which is what closes the ledger.
  void Start();
  void StopIssuing();

  // Epoch-autoscaler actuators and signals, forwarded to the pool
  // arbiters: re-provision a pool's core count (retire-debt shrink, no
  // in-flight work killed), retune one tenant's WRR weight (tenant index
  // in config order), and read a pool's cumulative granted service time
  // for per-epoch utilization deltas.
  void SetPoolCores(int pool, int cores);
  void SetTenantWeight(int tenant, int weight);
  int PoolCores(int pool) const;
  SimTime PoolBusy(int pool) const;

  // Serving-path feed for kv-kind tenants: one sketch item per served GET
  // (OnKvServed, from the ServingExecutor) and SLO accounting on the
  // request's own terminal latency (OnKvOutcome, from the client fleet).
  void OnKvServed(int path, uint32_t bytes);
  void OnKvOutcome(SimTime latency, bool ok);

  // Aggregate ledgers across tenants — the SloMonitor's and the governor's
  // per-epoch feeds (cheap cumulative sums, no Results() materialization).
  uint64_t slo_checked_total() const { return Total(&TenantResult::slo_checked); }
  uint64_t violations_total() const { return Total(&TenantResult::violations); }
  uint64_t path3_bytes_total() const { return Total(&TenantResult::path3_bytes); }

  // Exposes aggregate counters under component "tenant" (leaf catalog:
  // DESIGN.md section 6.2).
  void RegisterMetrics(MetricsRegistry* reg);

  TenantSetResult Results() const;

 private:
  struct Tenant {
    TenantSpec spec;
    std::vector<TenantStage> chain;
    Placement entry = Placement::kSoc;
    uint64_t hash_seed = 0;  // cfg.seed ^ FNV(id): private per-item stream
    int pool_local = 0;      // index within the pool's arbiter
    uint64_t seq = 0;
    resilience::CodelState codel;
    resilience::TokenBucketState bucket;
    TenantResult r;
    Histogram lat;
  };

  // One counter summed over every tenant's running result.
  uint64_t Total(uint64_t TenantResult::*field) const;
  void Arrive(int t);
  bool Admit(Tenant& tn, uint64_t seq);
  void Inject(Tenant& tn, SimTime born, uint32_t bytes);
  // Runs chain[idx] with the item currently at `loc` carrying `bytes`.
  void RunStage(int t, size_t idx, Placement loc, uint32_t bytes, SimTime born,
                uint64_t seq);
  void Finish(int t, Placement loc, uint32_t bytes, SimTime born);
  void Complete(Tenant& tn, SimTime born, SimTime done);
  // Ships the item across path ③ and calls `then(bytes)` on delivery.
  void Cross(int t, Placement from, uint32_t bytes,
             std::function<void(SimTime)> then);
  bool Dead(const std::string& domain, SimTime from, SimTime to) const;
  const std::string& DomainOf(Placement p) const {
    return (p == Placement::kHost ? server_->host_ep() : server_->soc_ep())->params().name;
  }

  Simulator* sim_;
  BluefieldServer* server_;
  fault::FaultInjector* inj_;
  TenantSetConfig cfg_;
  const trace::TraceDriver* trace_ = nullptr;
  bool issuing_ = false;

  std::vector<std::unique_ptr<WeightedArbiter>> pools_;
  std::unique_ptr<MultiServer> host_pool_;
  std::vector<Tenant> tenants_;
  uint64_t ship_seq_ = 0;
};

}  // namespace offload
}  // namespace snicsim

#endif  // SRC_OFFLOAD_TENANCY_H_

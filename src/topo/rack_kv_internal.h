// Internals of the rack-scale sharded KV (src/topo/rack_kv.h), shared by its
// plane files: rack_routing.cc, rack_serving.cc, rack_membership.cc and
// rack_integrity.cc, with RunRackKv in rack_kv.cc. Each per-request call
// chain stays inside one plane file; planes meet through the cross-domain
// messages and the few entry points declared below.
#ifndef SRC_TOPO_RACK_KV_INTERNAL_H_
#define SRC_TOPO_RACK_KV_INTERNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/governor/server_stack.h"
#include "src/resilience/resilience.h"
#include "src/sim/parallel.h"
#include "src/sim/pool.h"
#include "src/sim/timer_wheel.h"
#include "src/topo/rack_kv.h"
#include "src/topo/shard.h"
#include "src/workload/addr_gen.h"
#include "src/workload/aggregate_fleet.h"

namespace snicsim {
namespace rackkv {

// Fixed timing and retry budgets of the rack protocol (DESIGN.md §13, §16).
constexpr SimTime kRetryBackoff = FromMicros(5);   // before a re-dispatch or re-push
constexpr SimTime kServeTimeout = FromMicros(20);  // serving-side watchdog
constexpr int kReplMaxAttempts = 4;                // replication pushes per write
constexpr int kPromoteAfter = 2;  // consecutive fails that mark a server down
constexpr double kMigrationBurstBytes = 8192.0;  // migration token-bucket depth
constexpr int kRangeMaxAttempts = 3;             // per-range migration push budget

// Terminal status a serving domain reports home for one attempt. kRetry is
// the evidence-free flavor of kNack: the attempt must be re-dispatched (the
// server bounced a stale membership epoch, or detected corruption it could
// not heal in place) but the target server is healthy, so it must not feed
// the failover promoter.
enum class ReplyStatus : uint8_t { kOk, kShed, kNack, kRetry };

// One in-flight request, resident in its *home* domain's slab. While the
// request is at the serving domain the pointer travels inside a HomeRef as
// an opaque handle and is only dereferenced back home. `gen` (stamped by
// the GuardedPool) and `token` (bumped on every dispatch and every timeout
// decision) guard the handle against slab reuse and stale replies — the
// reply that loses the race to a timeout is counted, never double-settled.
struct HomeOp {
  uint64_t gen = 0;
  uint64_t token = 0;
  SimTime start = 0;
  int cls = 0;        // fleet population bucket (OnComplete must match)
  int serve_cls = 0;  // value class actually served (scan bursts upgrade it)
  uint64_t rank = 0;
  uint32_t bytes = 0;
  bool write = false;
  uint64_t user = 0;
  int attempts = 0;
  int target = 0;
  TimerWheel::TimerId timer = TimerWheel::kNoTimer;
};

// One attempt of a home request as it travels: the record and the (gen,
// token) it had when the attempt left home. Live() dereferences the record,
// so only the home domain may call it.
struct HomeRef {
  HomeOp* op = nullptr;
  uint64_t gen = 0;
  uint64_t token = 0;

  bool Live() const { return op->gen == gen && op->token == token; }
};

// One serve in progress at the serving domain. SettleServe frees it, so a
// NIC completion that arrives after the watchdog failed the serve finds
// `gen` moved, like a late HomeOp reply; settling also cancels the
// watchdog, so the watchdog always finds its serve open.
struct ServeCtx {
  uint64_t gen = 0;
  TimerWheel::TimerId watchdog = TimerWheel::kNoTimer;
  bool retry_on_fail = false;  // fail as kRetry (no failover evidence)
  bool write = false;
  int path = 0;
  SimTime arrived = 0;
  KvRequest req;  // req.client is the sending domain
  HomeRef home;   // opaque until it returns home
};
// resident_client_bytes counts every pooled ServeCtx, and rack_scale prints
// it: a larger record moves that bench's output.
static_assert(sizeof(ServeCtx) == 104);

// One replication push from the acting primary to the shard peer.
struct RepOp {
  uint64_t gen = 0;
  uint64_t token = 0;
  int attempts = 0;
  int peer = 0;
  uint64_t rank = 0;
  int cls = 0;
  uint32_t bytes = 0;
  TimerWheel::TimerId timer = TimerWheel::kNoTimer;
};

// Home-side failover view of one remote server.
struct ServerView {
  bool down = false;
  int consec_fail = 0;
  SimTime first_evidence = -1;
  int missed_epochs = 0;  // consecutive probe epochs spent down (permloss)
};

// One key-range migration stream from a surviving replica to the range's
// new owner. Pushes are ack-clocked (strictly serial per range) so the
// in-flight state per range is O(1); the per-domain token bucket paces the
// aggregate byte rate across all of a survivor's ranges.
struct MigOp {
  uint64_t gen = 0;
  int attempts = 0;
  int dest = 0;
  size_t next = 0;     // next index in `ranks` to push
  uint64_t acked = 0;  // installs acked back; == ranks.size() completes
  std::vector<uint64_t> ranks;
};

// One replica-read heal of a corrupt value, from serve-path detection
// (carries the serve to resume) or the scrubber (ctx == nullptr).
struct RepairOp {
  uint64_t gen = 0;
  uint64_t rank = 0;
  bool from_scrub = false;
  ServeCtx* ctx = nullptr;
  uint64_t ctx_gen = 0;
};

// Per-domain integrity shadow of the values this server stores: one flag
// per rank, set while the stored value is corrupt, and how many are set.
// A corrupt= flip sets it; a heal clears it; every local overwrite (served
// write, replica apply, migration install) lands a fresh value and clears
// it, unless a migration carried a corrupt sole copy.
struct IntegrityStore {
  std::vector<uint8_t> corrupt;
  uint64_t corrupt_count = 0;
  std::vector<uint8_t> repairing;  // de-dups concurrent repairs per rank
};

struct KvDomain;

// What every domain shares, read-only while the rack runs.
struct RackKv {
  ParallelSimulator* psim = nullptr;
  const HashRing* ring = nullptr;
  const ZipfDist* zipf = nullptr;
  std::vector<std::unique_ptr<KvDomain>> doms;

  // Another domain's handle: opaque here, dereferenced only on its domain.
  KvDomain* Dom(DomainId d) const { return doms[static_cast<size_t>(d)].get(); }
};

// Everything one server domain owns — serving machine, home-side fleet,
// failover, membership and integrity state, and its share of the rack
// counters. Touched only by the thread currently running the domain. Every
// plane function takes the domain it runs on.
struct KvDomain {
  KvDomain(RackKv& r, DomainId d, const RackKvParams& params,
           const kv::ServingConfig& serving)
      : rack(r),
        p(params),
        id(d),
        stack(r.psim->domain(d), params.testbed, serving, params.faults, params.resil,
              offload::TenantSetConfig{}, params.trace, "rack.s" + std::to_string(d)),
        uplink(stack.fabric.AddPort("rack.s" + std::to_string(d) + ".up",
                                    params.testbed.client_port_bandwidth)) {}

  RackKv& rack;
  const RackKvParams& p;
  const DomainId id;
  governor::ServerStack stack;  // the serving machine (src/governor/server_stack.h)
  PcieLink* uplink = nullptr;   // client-proxy port: the reply's wire leg
  std::unique_ptr<AggregateFleet> fleet;
  // This domain's rack counters, merged by RunRackKv. server_completed is
  // indexed by domain id; member_epoch is the live membership epoch.
  RackKvResult ctr;

  // Home side.
  GuardedPool<HomeOp> ops;
  std::vector<ServerView> views;
  Histogram latency;

  // Serving side and replication.
  GuardedPool<ServeCtx> serves;
  GuardedPool<RepOp> reps;

  // Membership & repair plane (allocated/used only when enabled).
  std::unique_ptr<HashRing> mring;  // this domain's mutable ring copy
  uint64_t live_mask = 0;
  GuardedPool<MigOp> migs;
  resilience::TokenBucketState mig_bucket;
  double mig_rate_bpus = 0.0;  // migration bucket refill, bytes/us

  // Integrity layer (allocated only with corrupt events or a scrubber).
  std::unique_ptr<IntegrityStore> integ;
  GuardedPool<RepairOp> repairs;
  uint64_t scrub_cursor = 0;
};

// The rack wire, written once: `cb` runs on domain `to` one rack link
// latency after `from`'s now. Records of `from` may ride along as opaque
// handles; a handle of `to` (RackKv::Dom) is what the closure works on.
template <typename F>
void Send(const KvDomain& from, DomainId to, F&& cb) {
  from.rack.psim->Post(from.id, to, from.stack.sim->now() + from.p.rack_link_latency,
                       std::forward<F>(cb));
}

// Cross-domain messages with many fields travel as one packed struct, so
// the closure that carries one stays inside SmallFunction's inline buffer:
// domain ids fit 16 bits and size classes 8 (RunRackKv checks both).
struct ServeMsg {  // Dispatch -> ServeArrival
  KvDomain* to;    // the serving domain
  HomeRef home;
  uint64_t rank;
  uint64_t mmask;
  uint32_t bytes;
  uint32_t mep;
  uint16_t src;
  uint8_t cls;
  bool write;
};
static_assert(sizeof(ServeMsg) <= SimCallback::kInlineBytes);

struct PushMsg {  // PushKey: survivor -> migration destination
  KvDomain* from;  // the survivor; opaque at the destination
  KvDomain* to;
  MigOp* m;
  uint64_t gen;
  uint64_t rank;
  uint64_t mmask;
  SimTime fetch_start;
  uint32_t mep;
  uint16_t d;  // from's id, where the ack goes
  uint8_t cls;
  bool src_bad;
};
static_assert(sizeof(PushMsg) <= SimCallback::kInlineBytes);

// Entry points called from outside their plane file. rack_routing.cc:
void IssueNew(KvDomain& dom, int cls, uint64_t user);
void ReplyHome(KvDomain& dom, HomeRef home, ReplyStatus status);
// rack_serving.cc:
void ServeArrival(const ServeMsg& msg);
void LaunchServe(KvDomain& dom, ServeCtx* ctx);
void SettleServe(KvDomain& dom, ServeCtx* ctx, bool ok, SimTime done);
// rack_membership.cc:
void EpochTick(KvDomain& dom);
void AdoptMembership(KvDomain& dom, uint32_t epoch, uint64_t mask);
// rack_integrity.cc:
void ApplyCorruption(KvDomain& dom, double fraction, uint64_t salt);
void ScrubTick(KvDomain& dom);
void StartRepair(KvDomain& dom, uint64_t rank, bool from_scrub, ServeCtx* ctx,
                 uint64_t ctx_gen);

// Crash queries on a server's endpoints, whose fault domains are their
// names ("rack.s<d>.host" / "rack.s<d>.soc"). The SoC runs the server's
// replication and repair engines.
inline bool SocCrashedNow(const KvDomain& dom) {
  return dom.stack.injector != nullptr &&
         dom.stack.injector->CrashedAt(dom.stack.bf->soc_ep()->params().name,
                                       dom.stack.sim->now());
}

// Whole-server liveness: the rack treats a server as reachable while either
// endpoint is up; the whole-shard crash scenario kills both.
inline bool ServerDeadNow(const KvDomain& dom) {
  return SocCrashedNow(dom) &&
         dom.stack.injector->CrashedAt(dom.stack.bf->host_ep()->params().name,
                                       dom.stack.sim->now());
}

// Did an SoC crash window or permanent loss cover [from, to)?
inline bool SocCrashKills(const KvDomain& dom, SimTime from, SimTime to) {
  return dom.stack.injector != nullptr &&
         dom.stack.injector->CrashKills(dom.stack.bf->soc_ep()->params().name, from, to);
}

// The ring a domain routes by: its own mutable copy under the membership
// plane, the shared immutable ring otherwise.
inline const HashRing& RingOf(const KvDomain& dom) {
  return dom.mring != nullptr ? *dom.mring : *dom.rack.ring;
}

inline bool IsCorrupt(const KvDomain& dom, uint64_t rank) {
  return dom.integ->corrupt[static_cast<size_t>(rank)] != 0;
}

// Sets or clears the flag at `rank`, keeping corrupt_count in step.
inline void SetCorrupt(KvDomain& dom, uint64_t rank, bool bad) {
  IntegrityStore& st = *dom.integ;
  uint8_t& flag = st.corrupt[static_cast<size_t>(rank)];
  if ((flag != 0) != bad) {
    flag = bad ? 1 : 0;
    st.corrupt_count = bad ? st.corrupt_count + 1 : st.corrupt_count - 1;
  }
}

// A fresh value lands at `rank` (served write, replica apply, or migration
// install). It is clean — unless the writer itself held a corrupt sole copy
// (`bad`, migration only), in which case the corruption travels and is
// accounted as propagated.
inline void InstallValue(KvDomain& dom, uint64_t rank, bool bad) {
  if (dom.integ == nullptr) {
    return;
  }
  const bool was_bad = IsCorrupt(dom, rank);
  SetCorrupt(dom, rank, bad);
  if (bad) {
    if (!was_bad) {
      ++dom.ctr.corrupt_propagated;
    }
  } else if (was_bad) {
    ++dom.ctr.repaired_write;
  }
}

// Deterministic value size for repair traffic: the class table keyed by
// rank (serving classes are a per-request draw, but repair must not draw).
inline int RepairClassOf(const KvDomain& dom, uint64_t rank) {
  return static_cast<int>(rank % dom.p.layout.class_bytes.size());
}

}  // namespace rackkv
}  // namespace snicsim

#endif  // SRC_TOPO_RACK_KV_INTERNAL_H_

#include "src/topo/rack_kv.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/spec.h"
#include "src/governor/governor.h"
#include "src/governor/policy.h"
#include "src/governor/server_stack.h"
#include "src/kvstore/serving.h"
#include "src/obs/metrics.h"
#include "src/sim/parallel.h"
#include "src/sim/pool.h"
#include "src/sim/timer_wheel.h"
#include "src/topo/shard.h"
#include "src/workload/addr_gen.h"
#include "src/workload/aggregate_fleet.h"
#include "src/workload/client.h"

namespace snicsim {
namespace {

// Terminal status a serving domain reports home for one attempt. kRetry is
// the evidence-free flavor of kNack: the attempt must be re-dispatched (the
// server bounced a stale membership epoch, or detected corruption it could
// not heal in place) but the target server is healthy, so it must not feed
// the failover promoter.
enum class ReplyStatus : uint8_t { kOk, kShed, kNack, kRetry };

// One in-flight request, resident in its *home* domain's slab. While the
// request is at the serving domain the pointer travels inside closures as
// an opaque handle and is only dereferenced back home. `gen` (bumped on
// every Alloc, zeroed on Free) and `token` (bumped on every dispatch and
// every timeout decision) guard the handle against slab reuse and stale
// replies — the reply that loses the race to a timeout is counted, never
// double-settled.
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

// One serve in progress at the serving domain: the watchdog and the NIC
// completion race through `settled`/`gen` exactly like HomeOp replies.
struct ServeCtx {
  uint64_t gen = 0;
  bool settled = false;
  bool retry_on_fail = false;  // fail as kRetry (no failover evidence)
  int path = 0;
  SimTime arrived = 0;
  KvRequest req;
  bool write = false;
  DomainId src = 0;
  HomeOp* op = nullptr;  // opaque until it returns home
  uint64_t op_gen = 0;
  uint64_t op_token = 0;
};

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

// Per-domain checksum shadow of the values this server stores. `stored` is
// the checksum on media; the expected value is a pure function of
// (rank, version), so corruption == any mismatch. `version` counts local
// overwrites (served writes, replica applies, migration installs), each of
// which lands a fresh, clean value.
struct IntegrityStore {
  std::vector<uint64_t> stored;
  std::vector<uint32_t> version;
  std::vector<uint8_t> repairing;  // de-dups concurrent repairs per rank
};

// Everything one server domain owns — serving machine, home-side fleet and
// failover state. Touched only by the thread currently running the domain.
struct KvDomain {
  KvDomain(DomainId d, Simulator* sim, const RackKvParams& p,
           const kv::ServingConfig& serving)
      : id(d),
        stack(sim, p.testbed, serving, p.faults, p.resil,
              "rack.s" + std::to_string(d)),
        uplink(stack.fabric.AddPort("rack.s" + std::to_string(d) + ".up",
                                    p.testbed.client_port_bandwidth)),
        host_domain(serving.host_domain),
        soc_domain(serving.soc_domain) {}

  DomainId id = 0;
  governor::ServerStack stack;  // the serving machine (src/governor/server_stack.h)
  PcieLink* uplink = nullptr;   // client-proxy port: the reply's wire leg
  std::unique_ptr<AggregateFleet> fleet;
  std::string host_domain;
  std::string soc_domain;

  // Home side.
  SlabPool<HomeOp> ops;
  uint64_t op_gen = 0;
  std::vector<ServerView> views;
  Histogram latency;
  uint64_t generated = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t timeouts = 0;
  uint64_t nacks = 0;
  uint64_t stale_replies = 0;
  uint64_t promotions = 0;
  uint64_t rehomed = 0;
  uint64_t probes = 0;
  SimTime max_promote_gap = -1;
  SimTime first_promote_at = -1;
  SimTime first_rehome_at = -1;

  // Serving side.
  SlabPool<ServeCtx> serves;
  uint64_t serve_gen = 0;
  uint64_t crash_refused = 0;
  uint64_t serve_timeouts = 0;
  uint64_t late_serves = 0;
  uint64_t shed_srv = 0;
  uint64_t server_completed = 0;  // serves settled ok at this domain

  // Replication.
  SlabPool<RepOp> reps;
  uint64_t rep_gen = 0;
  uint64_t writes = 0;
  uint64_t repl_pushed = 0;
  uint64_t repl_acked = 0;
  uint64_t repl_failed = 0;
  uint64_t repl_applied = 0;
  uint64_t repl_stale = 0;

  // Membership & repair plane (allocated/used only when enabled).
  std::unique_ptr<HashRing> mring;  // this domain's mutable ring copy
  uint64_t live_mask = 0;
  uint32_t member_epoch = 0;
  uint64_t removals = 0;
  uint64_t stale_epoch_bounces = 0;
  uint64_t retry_replies = 0;
  SlabPool<MigOp> migs;
  uint64_t mig_gen = 0;
  resilience::TokenBucketState mig_bucket;
  double mig_rate_bpus = 0.0;  // migration bucket refill, bytes/us
  uint64_t ranges_started = 0;
  uint64_t ranges_completed = 0;
  uint64_t ranges_failed = 0;
  uint64_t keys_migrated = 0;
  uint64_t keys_installed = 0;
  uint64_t keys_lost = 0;
  uint64_t migration_waits = 0;
  uint64_t repair_path3_bytes = 0;
  SimTime membership_change_at = -1;
  SimTime repair_done_at = -1;
  SimTime last_failed_start = -1;

  // Integrity layer (allocated only with corrupt events or a scrubber).
  std::unique_ptr<IntegrityStore> integ;
  SlabPool<RepairOp> repairs;
  uint64_t repair_gen = 0;
  uint64_t scrub_cursor = 0;
  uint64_t integrity_checks = 0;
  uint64_t corrupted_keys = 0;
  uint64_t corrupt_propagated = 0;
  uint64_t read_repair_detected = 0;
  uint64_t scrub_checked = 0;
  uint64_t scrub_detected = 0;
  uint64_t repaired_read = 0;
  uint64_t repaired_scrub = 0;
  uint64_t repaired_write = 0;
  uint64_t repair_unavailable = 0;
  uint64_t undetected_corrupt_serves = 0;

  // Trace shaping + goodput series.
  uint64_t scan_forced = 0;
  std::vector<uint64_t> completed_by_epoch;
};

struct RackKv {
  const RackKvParams* p = nullptr;
  ParallelSimulator* psim = nullptr;
  const HashRing* ring = nullptr;
  const ZipfDist* zipf = nullptr;
  const trace::TraceDriver* trace = nullptr;
  std::vector<std::unique_ptr<KvDomain>> doms;
};

// Cross-domain messages with many fields travel as one packed struct, so
// the closure that carries one stays inside SmallFunction's inline buffer:
// domain ids fit 16 bits and size classes 8 (RunRackKv checks both).
struct ServeMsg {  // Dispatch -> ServeArrival
  RackKv* rk;
  HomeOp* op;
  uint64_t gen;
  uint64_t token;
  uint64_t rank;
  uint64_t mmask;
  uint32_t bytes;
  uint32_t mep;
  uint16_t target;
  uint16_t src;
  uint8_t cls;
  bool write;
};
static_assert(sizeof(ServeMsg) <= SimCallback::kInlineBytes);

struct PushMsg {  // PushKey: survivor -> migration destination
  RackKv* rk;
  MigOp* m;
  uint64_t gen;
  uint64_t rank;
  uint64_t mmask;
  SimTime fetch_start;
  uint32_t bytes;
  uint32_t mep;
  uint16_t d;
  uint16_t dest;
  uint8_t cls;
  bool src_bad;
};
static_assert(sizeof(PushMsg) <= SimCallback::kInlineBytes);

void IssueNew(RackKv& r, DomainId d, int cls, uint64_t user);
void Dispatch(RackKv& r, DomainId d, HomeOp* op);
void OnTimeout(RackKv& r, DomainId d, HomeOp* op, uint64_t gen, uint64_t token);
void RetryOrFail(RackKv& r, DomainId d, HomeOp* op);
void FinishHome(RackKv& r, DomainId d, HomeOp* op, ReplyStatus status);
void ReplyHome(RackKv& r, DomainId d, HomeOp* op, uint64_t gen, uint64_t token,
               ReplyStatus status);
void Evidence(RackKv& r, DomainId d, int target);
void ServeArrival(RackKv& r, DomainId t, DomainId src, HomeOp* op,
                  uint64_t op_gen, uint64_t op_token, uint64_t rank, int cls,
                  uint32_t bytes, bool write, uint32_t mep, uint64_t mmask);
void LaunchServe(RackKv& r, DomainId t, ServeCtx* ctx);
void SettleServe(RackKv& r, DomainId t, ServeCtx* ctx, bool ok, SimTime done);
void Replicate(RackKv& r, DomainId t, uint64_t rank, int cls, uint32_t bytes);
void PushReplica(RackKv& r, DomainId t, RepOp* rep);
void EpochTick(RackKv& r, DomainId d);
void AdoptMembership(RackKv& r, DomainId d, uint32_t epoch, uint64_t mask);
void ApplyRemoval(RackKv& r, DomainId d, int s);
void StartRange(RackKv& r, DomainId d, int dest, std::vector<uint64_t> ranks);
void PushNextKey(RackKv& r, DomainId d, MigOp* m);
void PushKey(RackKv& r, DomainId d, MigOp* m, uint64_t rank, int cls,
             uint32_t bytes);
void InstallPushedKey(const PushMsg& msg);
void OnPushAck(RackKv& r, DomainId d, MigOp* m, uint64_t gen);
void OnPushNack(RackKv& r, DomainId d, MigOp* m, uint64_t gen);
void RangeFailed(RackKv& r, DomainId d, MigOp* m);
void ScrubTick(RackKv& r, DomainId d);
void StartRepair(RackKv& r, DomainId d, uint64_t rank, bool from_scrub,
                 ServeCtx* ctx, uint64_t ctx_gen);
void FinishRepair(RackKv& r, DomainId d, RepairOp* rp, uint64_t gen, bool ok);

// Whole-server liveness: the rack treats a server as reachable while either
// endpoint domain is up; the whole-shard crash scenario kills both.
bool ServerDeadNow(const KvDomain& dom) {
  return dom.stack.injector != nullptr &&
         dom.stack.injector->CrashedAt(dom.host_domain, dom.stack.sim->now()) &&
         dom.stack.injector->CrashedAt(dom.soc_domain, dom.stack.sim->now());
}

// The ring a domain routes by: its own mutable copy under the membership
// plane, the shared immutable ring otherwise.
const HashRing& RingOf(const RackKv& r, const KvDomain& dom) {
  return dom.mring != nullptr ? *dom.mring : *r.ring;
}

bool LiveInMask(const KvDomain& dom, int s) {
  return ((dom.live_mask >> s) & 1u) != 0;
}

// The per-value FNV checksum over (rank, version) — what a clean store
// holds. Corruption XORs noise into `stored`, so any verify catches it.
uint64_t ValueChecksum(uint64_t rank, uint32_t version) {
  uint64_t h = FnvMix(1469598103934665603ULL, rank);
  for (int i = 0; i < 4; ++i) {
    h = (h ^ ((static_cast<uint64_t>(version) >> (8 * i)) & 0xffu)) *
        1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kCorruptNoise = 0x5a5a5a5a5a5a5a5aULL;

bool IsCorrupt(const KvDomain& dom, uint64_t rank) {
  const IntegrityStore& st = *dom.integ;
  const size_t i = static_cast<size_t>(rank);
  return st.stored[i] != ValueChecksum(rank, st.version[i]);
}

// A fresh value lands at `rank` (served write, replica apply, or migration
// install). Bumps the version and stores the matching checksum — unless the
// writer itself held a corrupt sole copy (`bad`, migration only), in which
// case the corruption travels and is accounted as propagated.
void InstallValue(KvDomain& dom, uint64_t rank, bool bad) {
  if (dom.integ == nullptr) {
    return;
  }
  IntegrityStore& st = *dom.integ;
  const size_t i = static_cast<size_t>(rank);
  const bool was_bad = IsCorrupt(dom, rank);
  ++st.version[i];
  st.stored[i] = ValueChecksum(rank, st.version[i]);
  if (bad) {
    st.stored[i] ^= kCorruptNoise;
    if (!was_bad) {
      ++dom.corrupt_propagated;
    }
  } else if (was_bad) {
    ++dom.repaired_write;
  }
}

// Does this domain store `rank` under its current ring (primary or, with
// replication, follower)?
bool StoredHere(const RackKv& r, const KvDomain& dom, uint64_t rank) {
  const HashRing& ring = RingOf(r, dom);
  if (ring.PrimaryOf(rank) == static_cast<int>(dom.id)) {
    return true;
  }
  return r.p->replicas > 1 &&
         ring.FollowerOf(rank) == static_cast<int>(dom.id);
}

// A `corrupt=` event: flip each stored value with probability `fraction`,
// chosen by a keyed hash of (plan seed, domain, event time, rank) — fully
// deterministic, zero RNG draws.
void ApplyCorruption(RackKv& r, DomainId d, double fraction, uint64_t salt) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (dom.integ == nullptr) {
    return;
  }
  const uint64_t thresh =
      fraction >= 1.0 ? ~0ULL
                      : static_cast<uint64_t>(fraction * 18446744073709551616.0);
  for (uint64_t rank = 0; rank < r.p->layout.keys; ++rank) {
    if (!StoredHere(r, dom, rank) || SplitMix64(salt ^ rank) >= thresh ||
        IsCorrupt(dom, rank)) {
      continue;
    }
    dom.integ->stored[static_cast<size_t>(rank)] ^= kCorruptNoise;
    ++dom.corrupted_keys;
  }
}

// Deterministic value size for repair traffic: the class table keyed by
// rank (serving classes are a per-request draw, but repair must not draw).
int RepairClassOf(const RackKv& r, uint64_t rank) {
  return static_cast<int>(rank % r.p->layout.class_bytes.size());
}

void IssueNew(RackKv& r, DomainId d, int cls, uint64_t user) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  // Payload draws come from the fleet's class stream, in class event order,
  // so aggregate and materialized runs consume identical streams.
  uint64_t rank = r.zipf->RankOf(dom.fleet->Draw(cls));
  const bool write = dom.fleet->Draw(cls) < r.p->write_fraction;
  int serve_cls = cls;
  if (r.trace != nullptr) {
    // Working-set churn: a draw-free rank rotation — the trace shifts which
    // physical keys are hot without touching the draw stream (a zero-churn
    // trace is byte-identical to no trace at all).
    rank = (rank + r.trace->ChurnAt(dom.stack.sim->now())) % r.p->layout.keys;
    if (r.trace->has_scan() &&
        dom.fleet->Draw(cls) < r.trace->ScanAt(dom.stack.sim->now())) {
      // Scan burst: the request is upgraded to the largest value class.
      // `cls` (the fleet population bucket) is untouched — OnComplete must
      // return the user to the bucket it was drawn from.
      serve_cls = static_cast<int>(r.p->layout.class_bytes.size()) - 1;
      ++dom.scan_forced;
    }
  }
  ++dom.generated;
  HomeOp* op = dom.ops.Alloc();
  op->gen = ++dom.op_gen;
  op->token = 0;
  op->start = dom.stack.sim->now();
  op->cls = cls;
  op->serve_cls = serve_cls;
  op->rank = rank;
  op->bytes = r.p->layout.class_bytes[static_cast<size_t>(serve_cls)];
  op->write = write;
  op->user = user;
  op->attempts = 0;
  op->timer = TimerWheel::kNoTimer;
  Dispatch(r, d, op);
}

void Dispatch(RackKv& r, DomainId d, HomeOp* op) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  ++op->attempts;
  ++dom.issued;
  // Shard routing through the home's failover view: primary unless this
  // home has marked it down, then the ring's follower (the same follower
  // every home computes — no coordination). Under the membership plane the
  // home routes by its own ring copy and stamps its (epoch, mask) on the
  // request so the serving side can detect divergence.
  const HashRing& ring = RingOf(r, dom);
  const int primary = ring.PrimaryOf(op->rank);
  const int target = dom.views[static_cast<size_t>(primary)].down
                         ? ring.FollowerOf(op->rank)
                         : primary;
  op->target = target;
  const uint64_t gen = op->gen;
  const uint64_t token = ++op->token;
  RackKv* rk = &r;
  op->timer = dom.stack.wheel.In(r.p->request_timeout, [rk, d, op, gen, token] {
    OnTimeout(*rk, d, op, gen, token);
  });
  const ServeMsg msg{rk,
                     op,
                     gen,
                     token,
                     op->rank,
                     dom.live_mask,
                     op->bytes,
                     dom.member_epoch,
                     static_cast<uint16_t>(target),
                     static_cast<uint16_t>(d),
                     static_cast<uint8_t>(op->serve_cls),
                     op->write};
  r.psim->Post(d, static_cast<DomainId>(target),
               dom.stack.sim->now() + r.p->rack_link_latency, [msg] {
                 ServeArrival(*msg.rk, msg.target, msg.src, msg.op, msg.gen, msg.token,
                              msg.rank, msg.cls, msg.bytes, msg.write, msg.mep, msg.mmask);
               });
}

void OnTimeout(RackKv& r, DomainId d, HomeOp* op, uint64_t gen, uint64_t token) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (op->gen != gen || op->token != token) {
    return;  // a reply settled this attempt first
  }
  ++dom.timeouts;
  ++op->token;  // the in-flight attempt is dead; its late reply is stale
  op->timer = TimerWheel::kNoTimer;
  Evidence(r, d, op->target);
  RetryOrFail(r, d, op);
}

void RetryOrFail(RackKv& r, DomainId d, HomeOp* op) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (op->attempts >= r.p->max_attempts) {
    FinishHome(r, d, op, ReplyStatus::kNack);  // terminal failure
    return;
  }
  RackKv* rk = &r;
  const uint64_t gen = op->gen;
  const uint64_t token = op->token;
  dom.stack.wheel.In(r.p->retry_backoff, [rk, d, op, gen, token] {
    if (op->gen != gen || op->token != token) {
      return;  // freed or re-dispatched while backing off (cannot happen
               // today — the op is quiescent during backoff — but cheap)
    }
    Dispatch(*rk, d, op);
  });
}

void FinishHome(RackKv& r, DomainId d, HomeOp* op, ReplyStatus status) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  switch (status) {
    case ReplyStatus::kOk: {
      ++dom.completed;
      dom.latency.Record(dom.stack.sim->now() - op->start);
      // Settle-time epoch bucket: the goodput-during-migration series.
      const size_t idx =
          static_cast<size_t>(dom.stack.sim->now() / r.p->governor_epoch);
      if (dom.completed_by_epoch.size() <= idx) {
        dom.completed_by_epoch.resize(idx + 1, 0);
      }
      ++dom.completed_by_epoch[idx];
      break;
    }
    case ReplyStatus::kShed:
      ++dom.shed;
      break;
    case ReplyStatus::kNack:
      ++dom.failed;
      dom.last_failed_start = std::max(dom.last_failed_start, op->start);
      break;
    case ReplyStatus::kRetry:
      SNIC_CHECK(false);  // kRetry re-dispatches in ReplyHome, never lands here
      break;
  }
  dom.fleet->OnComplete(op->cls, op->user);
  op->gen = 0;
  dom.ops.Free(op);
}

void ReplyHome(RackKv& r, DomainId d, HomeOp* op, uint64_t gen, uint64_t token,
               ReplyStatus status) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (op->gen != gen || op->token != token) {
    ++dom.stale_replies;
    return;
  }
  if (op->timer != TimerWheel::kNoTimer) {
    dom.stack.wheel.Cancel(op->timer);
    op->timer = TimerWheel::kNoTimer;
  }
  ++op->token;  // no later message can settle this attempt again
  switch (status) {
    case ReplyStatus::kOk: {
      ServerView& v = dom.views[static_cast<size_t>(op->target)];
      v.consec_fail = 0;
      v.missed_epochs = 0;
      if (v.down) {
        // A data reply is as good as a probe ack: the server answered.
        v.down = false;
        ++dom.rehomed;
        if (dom.first_rehome_at < 0) {
          dom.first_rehome_at = dom.stack.sim->now();
        }
      }
      FinishHome(r, d, op, ReplyStatus::kOk);
      return;
    }
    case ReplyStatus::kShed:
      FinishHome(r, d, op, ReplyStatus::kShed);
      return;
    case ReplyStatus::kNack:
      ++dom.nacks;
      Evidence(r, d, op->target);
      RetryOrFail(r, d, op);
      return;
    case ReplyStatus::kRetry:
      // Evidence-free re-dispatch: the server is healthy but bounced the
      // attempt (stale membership epoch — the bounce carried the newer mask
      // and this home already adopted it — or unhealable corruption).
      ++dom.retry_replies;
      RetryOrFail(r, d, op);
      return;
  }
}

void Evidence(RackKv& r, DomainId d, int target) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  ServerView& v = dom.views[static_cast<size_t>(target)];
  if (v.down) {
    return;
  }
  if (v.consec_fail == 0) {
    v.first_evidence = dom.stack.sim->now();
  }
  ++v.consec_fail;
  if (v.consec_fail >= r.p->promote_after) {
    v.down = true;
    v.consec_fail = 0;
    ++dom.promotions;
    const SimTime gap = dom.stack.sim->now() - v.first_evidence;
    dom.max_promote_gap = std::max(dom.max_promote_gap, gap);
    if (dom.first_promote_at < 0) {
      dom.first_promote_at = dom.stack.sim->now();
    }
  }
}

void ServeArrival(RackKv& r, DomainId t, DomainId src, HomeOp* op,
                  uint64_t op_gen, uint64_t op_token, uint64_t rank, int cls,
                  uint32_t bytes, bool write, uint32_t mep, uint64_t mmask) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  RackKv* rk = &r;
  if (ServerDeadNow(dom)) {
    ++dom.crash_refused;
    // Nack home: faster failure evidence than waiting out the timeout.
    r.psim->Post(t, src, dom.stack.sim->now() + r.p->rack_link_latency,
                 [rk, src, op, op_gen, op_token] {
                   ReplyHome(*rk, src, op, op_gen, op_token, ReplyStatus::kNack);
                 });
    return;
  }
  if (r.p->membership.enabled) {
    if (mep < dom.member_epoch) {
      // The sender routed by an older ring: bounce with this server's
      // (epoch, mask). The home adopts before the retry re-dispatches, so
      // one bounce converges the pair — no failure evidence either way.
      ++dom.stale_epoch_bounces;
      const uint32_t e = dom.member_epoch;
      const uint64_t m = dom.live_mask;
      r.psim->Post(t, src, dom.stack.sim->now() + r.p->rack_link_latency,
                   [rk, src, op, op_gen, op_token, e, m] {
                     AdoptMembership(*rk, src, e, m);
                     ReplyHome(*rk, src, op, op_gen, op_token,
                               ReplyStatus::kRetry);
                   });
      return;
    }
    if (mep > dom.member_epoch) {
      // The sender is ahead: adopt its mask, then serve normally — under
      // the new ring this server is still the key's owner (the sender just
      // routed here).
      AdoptMembership(r, t, mep, mmask);
    }
  }
  KvRequest req;
  req.client = static_cast<uint64_t>(src);
  req.seq = op_token;
  req.rank = rank;
  req.size_class = cls;
  req.bytes = bytes;
  req.hdr = r.p->layout.Pack(rank, cls);
  const int path = dom.stack.gov->Route(req);
  if (dom.stack.resil != nullptr &&
      !dom.stack.resil->Admit(path, cls, /*deadline=*/0, dom.stack.sim->now())) {
    dom.stack.gov->OnShed(path, req);
    ++dom.shed_srv;
    r.psim->Post(t, src, dom.stack.sim->now() + r.p->rack_link_latency,
                 [rk, src, op, op_gen, op_token] {
                   ReplyHome(*rk, src, op, op_gen, op_token, ReplyStatus::kShed);
                 });
    return;
  }
  ServeCtx* ctx = dom.serves.Alloc();
  ctx->gen = ++dom.serve_gen;
  ctx->settled = false;
  ctx->retry_on_fail = false;
  ctx->path = path;
  ctx->arrived = dom.stack.sim->now();
  ctx->req = req;
  ctx->write = write;
  ctx->src = src;
  ctx->op = op;
  ctx->op_gen = op_gen;
  ctx->op_token = op_token;
  const uint64_t sgen = ctx->gen;
  // Crash windows eat in-flight serves inside the executor (the reply
  // evaporates with the endpoint); the watchdog turns that silence into a
  // deterministic failed-serve + nack so the governor's in-flight
  // accounting and the home ledger both stay closed.
  dom.stack.wheel.In(r.p->serve_timeout, [rk, t, ctx, sgen] {
    KvDomain& here = *rk->doms[static_cast<size_t>(t)];
    if (ctx->gen != sgen || ctx->settled) {
      return;
    }
    ++here.serve_timeouts;
    SettleServe(*rk, t, ctx, /*ok=*/false, here.stack.sim->now());
  });
  // Integrity: verify the stored checksum before serving a read. A corrupt
  // value never reaches the client — the serve parks on a replica-read
  // repair and resumes (or retries elsewhere) once the heal settles.
  // Writes skip the gate: they overwrite the value regardless.
  if (dom.integ != nullptr && !write) {
    ++dom.integrity_checks;
    if (IsCorrupt(dom, rank)) {
      ++dom.read_repair_detected;
      ctx->retry_on_fail = true;
      if (dom.integ->repairing[static_cast<size_t>(rank)] != 0) {
        // A repair for this rank is already in flight; bounce rather than
        // queue (the retry lands after the heal).
        SettleServe(r, t, ctx, /*ok=*/false, dom.stack.sim->now());
      } else {
        StartRepair(r, t, rank, /*from_scrub=*/false, ctx, sgen);
      }
      return;
    }
  }
  LaunchServe(r, t, ctx);
}

void LaunchServe(RackKv& r, DomainId t, ServeCtx* ctx) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  RackKv* rk = &r;
  const uint64_t sgen = ctx->gen;
  // Into the full SmartNIC model: FE -> PU -> DMA -> endpoint CPU
  // (ServingExecutor via the registered SendHandler) -> response over the
  // uplink. The request SEND is one header frame; the reply carries the
  // value and pays the wire.
  NicEndpoint* const ep = ctx->path == governor::kPathHost ? dom.stack.bf.host_ep()
                                                           : dom.stack.bf.soc_ep();
  PciePath back = dom.stack.fabric.Route(dom.stack.bf.port(), dom.uplink);
  dom.stack.bf.nic().HandleRequest(
      ep, Verb::kSend, ctx->req.hdr, r.p->request_bytes, /*fe_units=*/1.0,
      std::move(back),
      [rk, t, ctx, sgen](SimTime delivered) {
        KvDomain& here = *rk->doms[static_cast<size_t>(t)];
        if (ctx->gen != sgen || ctx->settled) {
          ++here.late_serves;  // the watchdog already failed this serve
          return;
        }
        SettleServe(*rk, t, ctx, /*ok=*/true, delivered);
      },
      /*req_id=*/ctx->op_token);
}

void SettleServe(RackKv& r, DomainId t, ServeCtx* ctx, bool ok, SimTime done) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  ctx->settled = true;
  if (ok && dom.integ != nullptr) {
    if (ctx->write) {
      // The served write lands a fresh value: version bump + clean checksum
      // (healing any corruption the old value carried).
      InstallValue(dom, ctx->req.rank, /*bad=*/false);
    } else if (IsCorrupt(dom, ctx->req.rank)) {
      // Corrupted mid-serve (a corrupt= window fired while the value was in
      // the pipeline): demote to an evidence-free retry and schedule the
      // heal. The client never sees the bad bytes.
      ++dom.read_repair_detected;
      ctx->retry_on_fail = true;
      ok = false;
      if (dom.integ->repairing[static_cast<size_t>(ctx->req.rank)] == 0) {
        StartRepair(r, t, ctx->req.rank, /*from_scrub=*/false, nullptr, 0);
      }
    }
    if (ok && IsCorrupt(dom, ctx->req.rank)) {
      ++dom.undetected_corrupt_serves;  // structurally unreachable
    }
  }
  const SimTime latency = done - ctx->arrived;
  dom.stack.gov->OnComplete(ctx->path, ctx->req, latency, ok);
  if (dom.stack.resil != nullptr) {
    dom.stack.resil->OnOutcome(ctx->path, latency, ok, /*deadline_met=*/ok,
                         dom.stack.sim->now());
  }
  if (ok) {
    ++dom.server_completed;
    if (ctx->write && r.p->replicas > 1) {
      ++dom.writes;
      Replicate(r, t, ctx->req.rank, ctx->req.size_class, ctx->req.bytes);
    }
  }
  RackKv* rk = &r;
  const DomainId src = ctx->src;
  HomeOp* const op = ctx->op;
  const uint64_t op_gen = ctx->op_gen;
  const uint64_t op_token = ctx->op_token;
  const ReplyStatus status =
      ok ? ReplyStatus::kOk
         : (ctx->retry_on_fail ? ReplyStatus::kRetry : ReplyStatus::kNack);
  r.psim->Post(t, src, dom.stack.sim->now() + r.p->rack_link_latency,
               [rk, src, op, op_gen, op_token, status] {
                 ReplyHome(*rk, src, op, op_gen, op_token, status);
               });
  ctx->gen = 0;
  dom.serves.Free(ctx);
}

void Replicate(RackKv& r, DomainId t, uint64_t rank, int cls, uint32_t bytes) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  ++dom.repl_pushed;
  RepOp* rep = dom.reps.Alloc();
  rep->gen = ++dom.rep_gen;
  rep->token = 0;
  rep->attempts = 0;
  rep->peer = RingOf(r, dom).ReplicaPeerOf(rank, static_cast<int>(t));
  rep->rank = rank;
  rep->cls = cls;
  rep->bytes = bytes;
  rep->timer = TimerWheel::kNoTimer;
  PushReplica(r, t, rep);
}

void PushReplica(RackKv& r, DomainId t, RepOp* rep) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  ++rep->attempts;
  const uint64_t gen = rep->gen;
  const uint64_t token = ++rep->token;
  RackKv* rk = &r;
  // The replication engine runs on the primary's SoC; a crashed SoC fails
  // the push outright (the restart path re-replicates by application-level
  // means outside this model).
  if (dom.stack.injector != nullptr &&
      dom.stack.injector->CrashedAt(dom.soc_domain, dom.stack.sim->now())) {
    ++dom.repl_failed;
    rep->gen = 0;
    dom.reps.Free(rep);
    return;
  }
  const SimTime fetch_start = dom.stack.sim->now();
  // Path ③: the SoC pulls the freshly-written value out of host DRAM
  // through the NIC engine (double PCIe1 crossing) before pushing it to the
  // follower over the wire.
  dom.stack.bf.nic().ExecuteLocalOp(
      dom.stack.bf.soc_ep(), dom.stack.bf.host_ep(), Verb::kRead,
      r.p->layout.Pack(rep->rank, rep->cls), rep->bytes,
      [rk, t, rep, gen, token, fetch_start](SimTime done) {
        KvDomain& here = *rk->doms[static_cast<size_t>(t)];
        if (rep->gen != gen || rep->token != token) {
          ++here.repl_stale;
          return;
        }
        if (here.stack.injector != nullptr &&
            here.stack.injector->CrashKills(here.soc_domain, fetch_start, done)) {
          ++here.repl_failed;
          rep->gen = 0;
          here.reps.Free(rep);
          return;
        }
        const int peer = rep->peer;
        const uint64_t rank = rep->rank;
        const int cls = rep->cls;
        const uint32_t bytes = rep->bytes;
        rep->timer = here.stack.wheel.In(rk->p->repl_timeout, [rk, t, rep, gen, token] {
          KvDomain& h = *rk->doms[static_cast<size_t>(t)];
          if (rep->gen != gen || rep->token != token) {
            return;
          }
          ++rep->token;  // the in-flight push is dead
          rep->timer = TimerWheel::kNoTimer;
          if (rep->attempts >= rk->p->repl_max_attempts) {
            ++h.repl_failed;
            rep->gen = 0;
            h.reps.Free(rep);
            return;
          }
          h.stack.wheel.In(rk->p->retry_backoff, [rk, t, rep, gen] {
            if (rep->gen != gen) {
              return;
            }
            PushReplica(*rk, t, rep);
          });
        });
        rk->psim->Post(
            t, static_cast<DomainId>(peer),
            here.stack.sim->now() + rk->p->rack_link_latency,
            [rk, t, peer, rep, gen, token, rank, cls, bytes] {
              // Follower side: apply into SoC memory, then ack.
              KvDomain& f = *rk->doms[static_cast<size_t>(peer)];
              if (f.stack.injector != nullptr &&
                  f.stack.injector->CrashedAt(f.soc_domain, f.stack.sim->now())) {
                return;  // dead follower: the primary's timer retries
              }
              const SimTime applied = f.stack.bf.soc_memory().Access(
                  f.stack.sim->now(), rk->p->layout.Pack(rank, cls), bytes,
                  /*is_write=*/true);
              f.stack.sim->At(applied, [rk, t, peer, rep, gen, token, rank] {
                KvDomain& ff = *rk->doms[static_cast<size_t>(peer)];
                ++ff.repl_applied;
                InstallValue(ff, rank, /*bad=*/false);
                rk->psim->Post(
                    static_cast<DomainId>(peer), t,
                    ff.stack.sim->now() + rk->p->rack_link_latency,
                    [rk, t, rep, gen, token] {
                      KvDomain& h = *rk->doms[static_cast<size_t>(t)];
                      if (rep->gen != gen || rep->token != token) {
                        ++h.repl_stale;
                        return;
                      }
                      if (rep->timer != TimerWheel::kNoTimer) {
                        h.stack.wheel.Cancel(rep->timer);
                        rep->timer = TimerWheel::kNoTimer;
                      }
                      ++h.repl_acked;
                      rep->gen = 0;
                      h.reps.Free(rep);
                    });
              });
            });
      },
      /*req_id=*/token);
}

void EpochTick(RackKv& r, DomainId d) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  RackKv* rk = &r;
  // Probe every down-marked server once per epoch; the first ack re-homes.
  // Under the membership plane each down epoch also counts toward permanent
  // loss: the K-th consecutive missed epoch removes the server from this
  // domain's ring (every live domain reaches the same verdict on its own
  // probe clock; epoch stamping reconciles any skew between them).
  for (int s = 0; s < r.p->servers; ++s) {
    if (s == d) {
      continue;
    }
    ServerView& v = dom.views[static_cast<size_t>(s)];
    if (r.p->membership.enabled && !LiveInMask(dom, s)) {
      continue;  // already removed: no probes, no further evidence
    }
    if (!v.down) {
      continue;
    }
    if (r.p->membership.enabled) {
      ++v.missed_epochs;
      if (v.missed_epochs >= r.p->membership.permloss_epochs) {
        ApplyRemoval(r, d, s);
        continue;
      }
    }
    ++dom.probes;
    r.psim->Post(d, static_cast<DomainId>(s),
                 dom.stack.sim->now() + r.p->rack_link_latency, [rk, d, s] {
                   KvDomain& there = *rk->doms[static_cast<size_t>(s)];
                   if (ServerDeadNow(there)) {
                     return;  // the probe dies with the server
                   }
                   rk->psim->Post(static_cast<DomainId>(s), d,
                                  there.stack.sim->now() + rk->p->rack_link_latency,
                                  [rk, d, s] {
                                    KvDomain& home = *rk->doms[static_cast<size_t>(d)];
                                    ServerView& v = home.views[static_cast<size_t>(s)];
                                    v.missed_epochs = 0;
                                    if (!v.down) {
                                      return;
                                    }
                                    v.down = false;
                                    v.consec_fail = 0;
                                    ++home.rehomed;
                                    if (home.first_rehome_at < 0) {
                                      home.first_rehome_at = home.stack.sim->now();
                                    }
                                  });
                 });
  }
  if (r.p->membership.enabled && dom.integ != nullptr &&
      r.p->membership.scrub_keys_per_epoch > 0 && !ServerDeadNow(dom)) {
    ScrubTick(r, d);
  }
  if (dom.stack.sim->now() + r.p->governor_epoch < r.p->window) {
    dom.stack.wheel.In(r.p->governor_epoch, [rk, d] { EpochTick(*rk, d); });
  }
}

// Adopt the removals carried by a bounce or a stamped request: replay, in
// ascending server order, every removal the sender has executed that this
// domain hasn't. Adoption is a union of removals (removals are permanent
// and commutative), so two domains that independently detected *different*
// losses at the same epoch still converge — each adopts the other's
// removals and both land on the popcount epoch of the merged mask.
void AdoptMembership(RackKv& r, DomainId d, uint32_t epoch, uint64_t mask) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (!r.p->membership.enabled || epoch <= dom.member_epoch) {
    return;
  }
  for (int s = 0; s < r.p->servers; ++s) {
    if (LiveInMask(dom, s) && ((mask >> s) & 1u) == 0) {
      ApplyRemoval(r, d, s);
    }
  }
}

// Execute one ring removal at this domain: bump the epoch, drop the
// server's vnodes, and — if this domain is the surviving replica of any of
// the dead server's key ranges — start streaming those keys to their new
// ring owners.
void ApplyRemoval(RackKv& r, DomainId d, int s) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (!LiveInMask(dom, s)) {
    return;
  }
  // Snapshot, under the pre-removal ring, every rank the dead server held
  // (as primary or follower) together with its surviving pair member.
  struct Affected {
    uint64_t rank;
    int survivor;  // the pair member that is not `s` (or -1: s was both)
  };
  std::vector<Affected> affected;
  if (r.p->replicas > 1) {
    const HashRing& old_ring = *dom.mring;
    for (uint64_t rank = 0; rank < r.p->layout.keys; ++rank) {
      const int p = old_ring.PrimaryOf(rank);
      const int f = old_ring.FollowerOf(rank);
      if (p != s && f != s) {
        continue;
      }
      affected.push_back(Affected{rank, p == s ? f : p});
    }
  }
  dom.live_mask &= ~(1ull << s);
  ++dom.member_epoch;
  ++dom.removals;
  if (dom.membership_change_at < 0) {
    dom.membership_change_at = dom.stack.sim->now();
  }
  dom.mring->RemoveServer(s);
  // The removed server is gone for good: clear the failover view so the
  // probe machinery never touches it again.
  dom.views[static_cast<size_t>(s)] = ServerView{};
  if (r.p->replicas <= 1) {
    return;
  }
  // Migration duty: this domain streams exactly the ranks for which IT is
  // the surviving replica (each affected rank has one survivor, so exactly
  // one live domain claims it — no duplicate streams without coordination).
  const bool self_live =
      LiveInMask(dom, static_cast<int>(d)) && !ServerDeadNow(dom);
  const HashRing& ring = *dom.mring;
  std::vector<std::vector<uint64_t>> by_dest(
      static_cast<size_t>(r.p->servers));
  for (const Affected& a : affected) {
    if (!LiveInMask(dom, a.survivor)) {
      // Both replicas are gone. The rank is charged to its live new primary
      // (one counter per rank rack-wide, no matter how many domains notice).
      if (self_live && ring.PrimaryOf(a.rank) == static_cast<int>(d)) {
        ++dom.keys_lost;
      }
      continue;
    }
    if (a.survivor != static_cast<int>(d) || !self_live) {
      continue;
    }
    // New replica pair under the post-removal ring; the member that isn't
    // the survivor needs a copy.
    const int np = ring.PrimaryOf(a.rank);
    const int nf = ring.FollowerOf(a.rank);
    const int dest = np == static_cast<int>(d) ? nf : np;
    SNIC_CHECK_NE(dest, static_cast<int>(d));
    by_dest[static_cast<size_t>(dest)].push_back(a.rank);
  }
  for (int dest = 0; dest < r.p->servers; ++dest) {
    std::vector<uint64_t>& ranks = by_dest[static_cast<size_t>(dest)];
    for (size_t off = 0; off < ranks.size();
         off += static_cast<size_t>(r.p->membership.migrate_batch)) {
      const size_t end =
          std::min(ranks.size(),
                   off + static_cast<size_t>(r.p->membership.migrate_batch));
      StartRange(r, d, dest,
                 std::vector<uint64_t>(ranks.begin() + off, ranks.begin() + end));
    }
  }
}

void StartRange(RackKv& r, DomainId d, int dest, std::vector<uint64_t> ranks) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  ++dom.ranges_started;
  MigOp* m = dom.migs.Alloc();
  m->gen = ++dom.mig_gen;
  m->attempts = 1;
  m->dest = dest;
  m->next = 0;
  m->acked = 0;
  m->ranks = std::move(ranks);
  PushNextKey(r, d, m);
}

// Advance the range's strictly-serial push stream, paced by the shared
// migration token bucket (TakeAmount debits the bytes up front; a negative
// balance defers the push by exactly the refill time).
void PushNextKey(RackKv& r, DomainId d, MigOp* m) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (m->next >= m->ranks.size()) {
    return;  // all pushed; the tail acks complete the range
  }
  const uint64_t rank = m->ranks[m->next];
  const int cls = RepairClassOf(r, rank);
  const uint32_t bytes = r.p->layout.class_bytes[static_cast<size_t>(cls)];
  ++m->next;
  const SimTime wait = dom.mig_bucket.TakeAmount(
      dom.mig_rate_bpus, r.p->membership.migration_burst_bytes,
      static_cast<double>(bytes), dom.stack.sim->now());
  if (wait > 0) {
    ++dom.migration_waits;
    RackKv* rk = &r;
    const uint64_t gen = m->gen;
    dom.stack.wheel.In(wait, [rk, d, m, gen, rank, cls, bytes] {
      if (m->gen != gen) {
        return;
      }
      PushKey(*rk, d, m, rank, cls, bytes);
    });
    return;
  }
  PushKey(r, d, m, rank, cls, bytes);
}

// One key: fetch the value out of host DRAM over path ③ (the same
// ExecuteLocalOp leg replication pays, metered as repair.path3_bytes), then
// push it to the destination, which installs into SoC memory and acks.
void PushKey(RackKv& r, DomainId d, MigOp* m, uint64_t rank, int cls,
             uint32_t bytes) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  RackKv* rk = &r;
  if (dom.stack.injector != nullptr &&
      dom.stack.injector->CrashedAt(dom.soc_domain, dom.stack.sim->now())) {
    RangeFailed(r, d, m);  // the streaming engine runs on the survivor's SoC
    return;
  }
  dom.repair_path3_bytes += bytes;
  const PushMsg msg{rk,
                    m,
                    m->gen,
                    rank,
                    dom.live_mask,
                    dom.stack.sim->now(),
                    bytes,
                    dom.member_epoch,
                    static_cast<uint16_t>(d),
                    static_cast<uint16_t>(m->dest),
                    static_cast<uint8_t>(cls),
                    dom.integ != nullptr && IsCorrupt(dom, rank)};
  dom.stack.bf.nic().ExecuteLocalOp(
      dom.stack.bf.soc_ep(), dom.stack.bf.host_ep(), Verb::kRead,
      r.p->layout.Pack(rank, cls), bytes,
      [msg](SimTime done) {
        KvDomain& here = *msg.rk->doms[msg.d];
        if (msg.m->gen != msg.gen) {
          return;
        }
        if (here.stack.injector != nullptr &&
            here.stack.injector->CrashKills(here.soc_domain, msg.fetch_start, done)) {
          RangeFailed(*msg.rk, msg.d, msg.m);
          return;
        }
        msg.rk->psim->Post(msg.d, msg.dest,
                           here.stack.sim->now() + msg.rk->p->rack_link_latency,
                           [msg] { InstallPushedKey(msg); });
      },
      /*req_id=*/msg.gen);
}

// Destination side of PushKey: install into SoC memory, then ack.
void InstallPushedKey(const PushMsg& msg) {
  RackKv* const rk = msg.rk;
  const DomainId d = msg.d;
  MigOp* const m = msg.m;
  const uint64_t gen = msg.gen;
  const DomainId dest = msg.dest;
  const uint64_t rank = msg.rank;
  const bool src_bad = msg.src_bad;
  KvDomain& f = *rk->doms[static_cast<size_t>(dest)];
  if (ServerDeadNow(f)) {
    // Post is reliable, so an explicit nack (not a timer) keeps the
    // per-key ledger exact: every push resolves.
    rk->psim->Post(dest, d, f.stack.sim->now() + rk->p->rack_link_latency,
                   [rk, d, m, gen] { OnPushNack(*rk, d, m, gen); });
    return;
  }
  AdoptMembership(*rk, dest, msg.mep, msg.mmask);
  const SimTime applied = f.stack.bf.soc_memory().Access(
      f.stack.sim->now(), rk->p->layout.Pack(rank, msg.cls), msg.bytes,
      /*is_write=*/true);
  f.stack.sim->At(applied, [rk, d, m, gen, dest, rank, src_bad] {
    KvDomain& ff = *rk->doms[static_cast<size_t>(dest)];
    ++ff.keys_installed;
    InstallValue(ff, rank, src_bad);
    rk->psim->Post(dest, d, ff.stack.sim->now() + rk->p->rack_link_latency,
                   [rk, d, m, gen] { OnPushAck(*rk, d, m, gen); });
  });
}

void OnPushAck(RackKv& r, DomainId d, MigOp* m, uint64_t gen) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (m->gen != gen) {
    return;
  }
  ++dom.keys_migrated;
  ++m->acked;
  if (m->acked == m->ranks.size()) {
    ++dom.ranges_completed;
    dom.repair_done_at = std::max(dom.repair_done_at, dom.stack.sim->now());
    m->gen = 0;
    dom.migs.Free(m);
    return;
  }
  PushNextKey(r, d, m);
}

void OnPushNack(RackKv& r, DomainId d, MigOp* m, uint64_t gen) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (m->gen != gen) {
    return;
  }
  if (m->attempts >= r.p->membership.range_max_attempts) {
    RangeFailed(r, d, m);
    return;
  }
  ++m->attempts;
  m->next = static_cast<size_t>(m->acked);  // rewind to the unacked tail
  RackKv* rk = &r;
  dom.stack.wheel.In(r.p->governor_epoch, [rk, d, m, gen] {
    if (m->gen != gen) {
      return;
    }
    PushNextKey(*rk, d, m);
  });
}

void RangeFailed(RackKv& r, DomainId d, MigOp* m) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  ++dom.ranges_failed;
  m->gen = 0;
  dom.migs.Free(m);
}

// Anti-entropy: verify `scrub_keys_per_epoch` stored ranks per epoch behind
// a wrapping cursor. The walk itself is pure computation — a detection is
// the only thing that schedules events (the repair), so a clean store scrubs
// for free and stays byte-identical to a scrubber-free run.
void ScrubTick(RackKv& r, DomainId d) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  const uint64_t n =
      std::min<uint64_t>(r.p->membership.scrub_keys_per_epoch, r.p->layout.keys);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t rank = dom.scrub_cursor;
    dom.scrub_cursor = (dom.scrub_cursor + 1) % r.p->layout.keys;
    if (!StoredHere(r, dom, rank)) {
      continue;
    }
    ++dom.scrub_checked;
    ++dom.integrity_checks;
    if (!IsCorrupt(dom, rank) ||
        dom.integ->repairing[static_cast<size_t>(rank)] != 0) {
      continue;
    }
    ++dom.scrub_detected;
    StartRepair(r, d, rank, /*from_scrub=*/true, nullptr, 0);
  }
}

// Heal one corrupt rank from the replica pair's other member: read its copy
// (SoC memory access at the peer), and if the peer holds a clean value,
// overwrite the local checksum. A parked serve (read-path detection)
// resumes on success and retries elsewhere on failure.
void StartRepair(RackKv& r, DomainId d, uint64_t rank, bool from_scrub,
                 ServeCtx* ctx, uint64_t ctx_gen) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  dom.integ->repairing[static_cast<size_t>(rank)] = 1;
  RepairOp* rp = dom.repairs.Alloc();
  rp->gen = ++dom.repair_gen;
  rp->rank = rank;
  rp->from_scrub = from_scrub;
  rp->ctx = ctx;
  rp->ctx_gen = ctx_gen;
  if (r.p->replicas <= 1) {
    FinishRepair(r, d, rp, rp->gen, /*ok=*/false);  // nowhere to heal from
    return;
  }
  const int peer = RingOf(r, dom).ReplicaPeerOf(rank, static_cast<int>(d));
  const int cls = RepairClassOf(r, rank);
  const uint32_t bytes = r.p->layout.class_bytes[static_cast<size_t>(cls)];
  const uint64_t gen = rp->gen;
  RackKv* rk = &r;
  r.psim->Post(
      d, static_cast<DomainId>(peer), dom.stack.sim->now() + r.p->rack_link_latency,
      [rk, d, rp, gen, peer, rank, cls, bytes] {
        KvDomain& p = *rk->doms[static_cast<size_t>(peer)];
        const bool have = !ServerDeadNow(p) &&
                          !(p.integ != nullptr && IsCorrupt(p, rank));
        if (!have) {
          rk->psim->Post(static_cast<DomainId>(peer), d,
                         p.stack.sim->now() + rk->p->rack_link_latency,
                         [rk, d, rp, gen] {
                           FinishRepair(*rk, d, rp, gen, /*ok=*/false);
                         });
          return;
        }
        const SimTime read_done = p.stack.bf.soc_memory().Access(
            p.stack.sim->now(), rk->p->layout.Pack(rank, cls), bytes,
            /*is_write=*/false);
        p.stack.sim->At(read_done, [rk, d, rp, gen, peer] {
          KvDomain& pp = *rk->doms[static_cast<size_t>(peer)];
          rk->psim->Post(static_cast<DomainId>(peer), d,
                         pp.stack.sim->now() + rk->p->rack_link_latency,
                         [rk, d, rp, gen] {
                           FinishRepair(*rk, d, rp, gen, /*ok=*/true);
                         });
        });
      });
}

void FinishRepair(RackKv& r, DomainId d, RepairOp* rp, uint64_t gen, bool ok) {
  KvDomain& dom = *r.doms[static_cast<size_t>(d)];
  if (rp->gen != gen) {
    return;
  }
  const uint64_t rank = rp->rank;
  dom.integ->repairing[static_cast<size_t>(rank)] = 0;
  if (ok && IsCorrupt(dom, rank)) {
    // Heal in place: restore the expected checksum at the current version
    // (a concurrent write may have already healed it — then the repair is a
    // no-op and the write's counter keeps the ledger exact).
    IntegrityStore& st = *dom.integ;
    const size_t i = static_cast<size_t>(rank);
    st.stored[i] = ValueChecksum(rank, st.version[i]);
    if (rp->from_scrub) {
      ++dom.repaired_scrub;
    } else {
      ++dom.repaired_read;
    }
  }
  if (!ok) {
    ++dom.repair_unavailable;
  }
  ServeCtx* const ctx = rp->ctx;
  const uint64_t ctx_gen = rp->ctx_gen;
  rp->gen = 0;
  dom.repairs.Free(rp);
  if (ctx != nullptr && ctx->gen == ctx_gen && !ctx->settled) {
    // The parked serve resumes against a (hopefully) clean value; if the
    // heal failed it bounces home as an evidence-free retry.
    if (ok) {
      LaunchServe(r, d, ctx);
    } else {
      SettleServe(r, d, ctx, /*ok=*/false, dom.stack.sim->now());
    }
  }
}

}  // namespace

std::string RackKvHostDomain(DomainId d) {
  return "rack.s" + std::to_string(d) + ".host";
}

std::string RackKvSocDomain(DomainId d) {
  return "rack.s" + std::to_string(d) + ".soc";
}

std::string RackKvResult::Fingerprint() const {
  std::string s = "rackkv|";
  for (uint64_t v :
       {generated, issued, completed, failed, shed, timeouts, nacks,
        stale_replies, crash_refused, serve_timeouts, late_serves, host_gets,
        soc_gets, soc_hits, soc_misses, path3_bytes, crash_drops,
        rewarm_misses, writes, repl_pushed, repl_acked, repl_failed,
        repl_applied, repl_stale, routed_host, routed_soc, hol_gated,
        budget_spills, explored, gov_draws, breaker_denied, shed_codel,
        shed_bucket, resil_draws, promotions, rehomed, probes, fleet_draws,
        peak_inflight, rounds, merged, processed, digest}) {
    AppendU(&s, v);
  }
  AppendD(&s, max_promote_gap_us);
  AppendD(&s, first_promote_at_us);
  AppendD(&s, first_rehome_at_us);
  AppendU(&s, static_cast<uint64_t>(p50_ps));
  AppendU(&s, static_cast<uint64_t>(p99_ps));
  AppendU(&s, static_cast<uint64_t>(max_ps));
  for (uint64_t v :
       {removals, member_epoch, stale_epoch_bounces, retry_replies,
        ranges_started, ranges_completed, ranges_failed, keys_migrated,
        keys_installed, keys_lost, migration_waits, repair_path3_bytes}) {
    AppendU(&s, v);
  }
  AppendD(&s, membership_change_at_us);
  AppendD(&s, repair_done_at_us);
  AppendD(&s, last_failed_start_us);
  for (uint64_t v :
       {integrity_checks, corrupted_keys, corrupt_propagated,
        read_repair_detected, scrub_checked, scrub_detected, repaired_read,
        repaired_scrub, repaired_write, repair_unavailable, corrupt_remaining,
        undetected_corrupt_serves, scan_forced}) {
    AppendU(&s, v);
  }
  for (uint64_t v : server_completed) {
    AppendU(&s, v);
  }
  AppendU(&s, completed_by_epoch.size());
  for (uint64_t v : completed_by_epoch) {
    AppendU(&s, v);
  }
  return s;
}

RackKvResult RunRackKv(const RackKvParams& params) {
  SNIC_CHECK_GE(params.servers, 2);
  SNIC_CHECK_GT(params.users, 0u);
  SNIC_CHECK_GT(params.think_mean_us, 0.0);
  SNIC_CHECK_GT(params.rack_link_latency, 0);
  SNIC_CHECK_GT(params.request_timeout, 0);
  SNIC_CHECK_GT(params.serve_timeout, 0);
  SNIC_CHECK_GT(params.max_attempts, 0);
  SNIC_CHECK_GT(params.promote_after, 0);
  SNIC_CHECK_GT(params.window, 0);
  SNIC_CHECK_EQ(params.mix.size(), params.layout.class_bytes.size());
  // ServeMsg / PushMsg field widths.
  SNIC_CHECK_LE(params.servers, 0xffff);
  SNIC_CHECK_LE(params.layout.class_bytes.size(), 0xffu);
  params.layout.Validate();
  if (params.membership.enabled) {
    // Removal keeps >= 2 ring members (shard.h asserts per removal); 64
    // bits bound the live mask.
    SNIC_CHECK_GE(params.servers, 3);
    SNIC_CHECK_LE(params.servers, 63);
    SNIC_CHECK_GE(params.replicas, 2);
    SNIC_CHECK_GE(params.membership.permloss_epochs, 1);
    SNIC_CHECK_GE(params.membership.migrate_batch, 1);
    SNIC_CHECK_GE(params.membership.range_max_attempts, 1);
    SNIC_CHECK_GT(params.membership.migration_burst_bytes, 0.0);
  }
  if (!params.trace.empty()) {
    std::string why;
    const bool trace_ok = params.trace.Validate(&why);
    SNIC_CHECK(trace_ok);
  }

  ParallelSimulator psim(params.servers, params.rack_link_latency,
                         params.sim_threads);
  const HashRing ring(params.servers, /*vnodes_per_server=*/64, params.seed);
  const ZipfDist zipf(params.layout.keys, params.zipf_theta);
  // The rack population, split server -> class by largest remainder so
  // every jobs/sim_threads level sees identical per-bucket populations.
  const std::vector<uint64_t> per_server = AggregateFleet::Partition(
      params.users, std::vector<double>(static_cast<size_t>(params.servers), 1.0));
  // The repair plane's reserved slice of the intra-machine path-③ budget.
  const double migration_gbps =
      params.membership.migration_gbps > 0.0
          ? params.membership.migration_gbps
          : 0.25 * SafePath3BudgetGbps(params.testbed);
  // Gbps -> bytes/us (1 Gbps == 125 B/us).
  const double mig_rate_bpus = migration_gbps * 125.0;
  // The integrity store exists iff something can dirty or verify it.
  const bool want_integrity =
      !params.faults.corrupts.empty() ||
      (params.membership.enabled && params.membership.scrub_keys_per_epoch > 0);

  RackKv rack;
  rack.p = &params;
  rack.psim = &psim;
  rack.ring = &ring;
  rack.zipf = &zipf;
  std::unique_ptr<trace::TraceDriver> trace_driver;
  if (!params.trace.empty()) {
    trace_driver = std::make_unique<trace::TraceDriver>(params.trace);
    rack.trace = trace_driver.get();
  }
  rack.doms.reserve(static_cast<size_t>(params.servers));
  const ClientParams client_params;  // governor latency priors only
  for (int d = 0; d < params.servers; ++d) {
    kv::ServingConfig serving =
        kv::ServingConfig::FromTestbed(params.testbed, params.layout);
    serving.host_domain = RackKvHostDomain(d);
    serving.soc_domain = RackKvSocDomain(d);
    auto dom = std::make_unique<KvDomain>(d, psim.domain(d), params, serving);
    if (params.membership.enabled) {
      // Registered before the governor binds the registry so its path-③
      // budget gate samples migration traffic: repair bytes spend the same
      // SafePath3BudgetGbps serving misses do (DESIGN.md §16).
      KvDomain* dp = dom.get();
      dom->stack.live_reg.Register(
          "repair", "path3_bytes", "bytes",
          "migration-fetch bytes pulled over path 3 by the repair plane",
          [dp] { return static_cast<double>(dp->repair_path3_bytes); });
      dom->mring = std::make_unique<HashRing>(ring);
      dom->live_mask = (params.servers >= 64)
                           ? ~0ull
                           : ((1ull << params.servers) - 1);
      dom->mig_rate_bpus = mig_rate_bpus;
    }
    if (want_integrity) {
      dom->integ = std::make_unique<IntegrityStore>();
      dom->integ->stored.resize(static_cast<size_t>(params.layout.keys));
      dom->integ->version.assign(static_cast<size_t>(params.layout.keys), 0);
      dom->integ->repairing.assign(static_cast<size_t>(params.layout.keys), 0);
      for (uint64_t rank = 0; rank < params.layout.keys; ++rank) {
        dom->integ->stored[static_cast<size_t>(rank)] = ValueChecksum(rank, 0);
      }
    }
    governor::GovernorConfig gcfg;
    gcfg.seed = params.seed ^ (0x9e3779b97f4a7c15ull * (d + 1));
    gcfg.epoch = params.governor_epoch;
    dom->stack.AttachGovernor(gcfg, params.testbed, client_params);
    AggregateFleetParams fp;
    fp.users_per_class =
        AggregateFleet::Partition(per_server[static_cast<size_t>(d)], params.mix);
    fp.think_mean_us = params.think_mean_us;
    fp.seed = params.seed ^ (0xd1b54a32d192ed03ull * (d + 1));
    fp.materialize = params.materialize_fleet;
    dom->fleet = std::make_unique<AggregateFleet>(dom->stack.sim, std::move(fp));
    if (rack.trace != nullptr) {
      dom->fleet->SetTrace(rack.trace);
    }
    dom->views.assign(static_cast<size_t>(params.servers), ServerView{});
    rack.doms.push_back(std::move(dom));
  }

  // Opening lineup, in domain order: the fleet's candidate chains, the
  // failover epoch tick, and the quiesce edge that stops both.
  RackKv* rk = &rack;
  for (int d = 0; d < params.servers; ++d) {
    KvDomain& dom = *rack.doms[static_cast<size_t>(d)];
    AggregateFleet* fleet = dom.fleet.get();
    KvDomain* dp = &dom;
    dom.stack.sim->At(0, [rk, d, fleet] {
      fleet->Start([rk, d](int cls, uint64_t user) { IssueNew(*rk, d, cls, user); });
      EpochTick(*rk, d);
    });
    // corrupt= events addressed to this server (either endpoint or the
    // whole-server prefix) fire as draw-free checksum flips at `at`.
    for (const fault::CorruptEvent& ev : params.faults.corrupts) {
      if (!fault::DomainMatches(ev.domain, dom.host_domain) &&
          !fault::DomainMatches(ev.domain, dom.soc_domain)) {
        continue;
      }
      const double frac = ev.fraction;
      const uint64_t salt = params.faults.seed ^ Fnv1a(dom.soc_domain) ^
                            SplitMix64(static_cast<uint64_t>(ev.at));
      dom.stack.sim->At(ev.at, [rk, d, frac, salt] {
        ApplyCorruption(*rk, d, frac, salt);
      });
    }
    dom.stack.sim->At(params.window, [fleet, dp] {
      fleet->Stop();
      dp->stack.gov->StopTicking();
    });
  }
  psim.Run();

  RackKvResult out;
  out.rounds = psim.rounds();
  out.merged = psim.merged();
  out.processed = psim.processed();
  uint64_t digest = psim.merge_digest();
  Histogram latency;
  out.server_completed.reserve(static_cast<size_t>(params.servers));
  for (const auto& domp : rack.doms) {
    const KvDomain& dom = *domp;
    // Every record resolved before quiesce: the O(in-flight) claim and the
    // ledger both depend on a fully drained rack.
    SNIC_CHECK_EQ(dom.ops.live(), 0u);
    SNIC_CHECK_EQ(dom.serves.live(), 0u);
    SNIC_CHECK_EQ(dom.reps.live(), 0u);
    SNIC_CHECK_EQ(dom.migs.live(), 0u);
    SNIC_CHECK_EQ(domp->stack.bf.nic().live_records(), 0u);
    SNIC_CHECK_EQ(dom.repairs.live(), 0u);
    out.generated += dom.generated;
    out.issued += dom.issued;
    out.completed += dom.completed;
    out.failed += dom.failed;
    out.shed += dom.shed;
    out.timeouts += dom.timeouts;
    out.nacks += dom.nacks;
    out.stale_replies += dom.stale_replies;
    out.crash_refused += dom.crash_refused;
    out.serve_timeouts += dom.serve_timeouts;
    out.late_serves += dom.late_serves;
    out.host_gets += dom.stack.exec.host_gets();
    out.soc_gets += dom.stack.exec.soc_gets();
    out.soc_hits += dom.stack.exec.soc_hits();
    out.soc_misses += dom.stack.exec.soc_misses();
    out.path3_bytes += dom.stack.exec.path3_bytes();
    out.crash_drops += dom.stack.exec.crash_drops();
    out.rewarm_misses += dom.stack.exec.rewarm_misses();
    out.writes += dom.writes;
    out.repl_pushed += dom.repl_pushed;
    out.repl_acked += dom.repl_acked;
    out.repl_failed += dom.repl_failed;
    out.repl_applied += dom.repl_applied;
    out.repl_stale += dom.repl_stale;
    out.routed_host += dom.stack.gov->routed(governor::kPathHost);
    out.routed_soc += dom.stack.gov->routed(governor::kPathSoc);
    out.hol_gated += dom.stack.gov->hol_gated();
    out.budget_spills += dom.stack.gov->budget_spills();
    out.explored += dom.stack.gov->explored();
    out.gov_draws += dom.stack.gov->draws();
    out.breaker_denied += dom.stack.gov->breaker_denied();
    if (dom.stack.resil != nullptr) {
      out.shed_codel += dom.stack.resil->shed_codel();
      out.shed_bucket += dom.stack.resil->shed_bucket();
      out.resil_draws += dom.stack.resil->draws();
    }
    out.promotions += dom.promotions;
    out.rehomed += dom.rehomed;
    out.probes += dom.probes;
    if (dom.max_promote_gap >= 0) {
      out.max_promote_gap_us =
          std::max(out.max_promote_gap_us, ToMicros(dom.max_promote_gap));
    }
    if (dom.first_promote_at >= 0 &&
        (out.first_promote_at_us < 0 ||
         ToMicros(dom.first_promote_at) < out.first_promote_at_us)) {
      out.first_promote_at_us = ToMicros(dom.first_promote_at);
    }
    if (dom.first_rehome_at >= 0 &&
        (out.first_rehome_at_us < 0 ||
         ToMicros(dom.first_rehome_at) < out.first_rehome_at_us)) {
      out.first_rehome_at_us = ToMicros(dom.first_rehome_at);
    }
    out.fleet_draws += dom.fleet->draws();
    out.peak_inflight += dom.fleet->peak_inflight();
    out.resident_client_bytes +=
        dom.fleet->resident_state_bytes() +
        dom.ops.capacity() * sizeof(HomeOp) +
        dom.serves.capacity() * sizeof(ServeCtx) +
        dom.reps.capacity() * sizeof(RepOp) +
        dom.migs.capacity() * sizeof(MigOp) +
        dom.repairs.capacity() * sizeof(RepairOp);
    out.server_completed.push_back(dom.server_completed);
    latency.Merge(dom.latency);
    // Membership & repair plane.
    out.removals += dom.removals;
    out.member_epoch = std::max<uint64_t>(out.member_epoch, dom.member_epoch);
    out.stale_epoch_bounces += dom.stale_epoch_bounces;
    out.retry_replies += dom.retry_replies;
    out.ranges_started += dom.ranges_started;
    out.ranges_completed += dom.ranges_completed;
    out.ranges_failed += dom.ranges_failed;
    out.keys_migrated += dom.keys_migrated;
    out.keys_installed += dom.keys_installed;
    out.keys_lost += dom.keys_lost;
    out.migration_waits += dom.migration_waits;
    out.repair_path3_bytes += dom.repair_path3_bytes;
    if (dom.membership_change_at >= 0 &&
        (out.membership_change_at_us < 0 ||
         ToMicros(dom.membership_change_at) < out.membership_change_at_us)) {
      out.membership_change_at_us = ToMicros(dom.membership_change_at);
    }
    if (dom.repair_done_at >= 0) {
      out.repair_done_at_us =
          std::max(out.repair_done_at_us, ToMicros(dom.repair_done_at));
    }
    if (dom.last_failed_start >= 0) {
      out.last_failed_start_us =
          std::max(out.last_failed_start_us, ToMicros(dom.last_failed_start));
    }
    // Integrity layer. corrupt_remaining counts every domain, dead ones
    // included — a lost server keeps its bad values, and counting them is
    // what closes the corruption ledger under permloss+corrupt.
    out.integrity_checks += dom.integrity_checks;
    out.corrupted_keys += dom.corrupted_keys;
    out.corrupt_propagated += dom.corrupt_propagated;
    out.read_repair_detected += dom.read_repair_detected;
    out.scrub_checked += dom.scrub_checked;
    out.scrub_detected += dom.scrub_detected;
    out.repaired_read += dom.repaired_read;
    out.repaired_scrub += dom.repaired_scrub;
    out.repaired_write += dom.repaired_write;
    out.repair_unavailable += dom.repair_unavailable;
    out.undetected_corrupt_serves += dom.undetected_corrupt_serves;
    if (dom.integ != nullptr) {
      for (uint64_t rank = 0; rank < params.layout.keys; ++rank) {
        if (IsCorrupt(dom, rank)) {
          ++out.corrupt_remaining;
        }
      }
    }
    out.scan_forced += dom.scan_forced;
    if (dom.completed_by_epoch.size() > out.completed_by_epoch.size()) {
      out.completed_by_epoch.resize(dom.completed_by_epoch.size(), 0);
    }
    for (size_t i = 0; i < dom.completed_by_epoch.size(); ++i) {
      out.completed_by_epoch[i] += dom.completed_by_epoch[i];
    }
    for (uint64_t v :
         {dom.generated, dom.completed, dom.failed, dom.shed, dom.timeouts,
          dom.nacks, dom.stale_replies, dom.crash_refused, dom.serve_timeouts,
          dom.writes, dom.repl_acked, dom.promotions, dom.rehomed,
          dom.server_completed, dom.fleet->draws(), dom.stack.gov->draws(),
          dom.stack.sim->processed(), static_cast<uint64_t>(dom.stack.sim->now()),
          dom.removals, static_cast<uint64_t>(dom.member_epoch),
          dom.stale_epoch_bounces, dom.ranges_completed, dom.keys_migrated,
          dom.keys_installed, dom.scrub_detected, dom.repaired_read,
          dom.repaired_scrub, dom.scan_forced}) {
      digest = FnvMix(digest, v);
    }
  }
  out.digest = digest;
  out.p50_ps = latency.Percentile(50.0);
  out.p99_ps = latency.Percentile(99.0);
  out.max_ps = latency.max();

  if (!params.metrics_path.empty()) {
    MetricsRegistry dump;
    const RackKvResult* res = &out;
    dump.Register("rack", "generated", "count",
                  "requests generated by the aggregate fleets",
                  [res] { return static_cast<double>(res->generated); });
    dump.Register("rack", "completed", "count", "requests settled ok",
                  [res] { return static_cast<double>(res->completed); });
    dump.Register("rack", "failed", "count",
                  "requests that exhausted the retry budget",
                  [res] { return static_cast<double>(res->failed); });
    dump.Register("rack", "shed", "count",
                  "requests refused by serving-side admission",
                  [res] { return static_cast<double>(res->shed); });
    dump.Register("rack", "timeouts", "count", "home request-timeout firings",
                  [res] { return static_cast<double>(res->timeouts); });
    dump.Register("rack", "repl_pushed", "count",
                  "replication pushes initiated by acting primaries",
                  [res] { return static_cast<double>(res->repl_pushed); });
    dump.Register("rack", "repl_acked", "count",
                  "replication pushes acked by the follower",
                  [res] { return static_cast<double>(res->repl_acked); });
    dump.Register("rack", "promotions", "count",
                  "shard failovers (a home marked a server down)",
                  [res] { return static_cast<double>(res->promotions); });
    dump.Register("rack", "rehomed", "count",
                  "recoveries (a probe or data reply re-homed a server)",
                  [res] { return static_cast<double>(res->rehomed); });
    dump.Register("rack", "peak_inflight", "count",
                  "rack-wide peak concurrent in-flight requests",
                  [res] { return static_cast<double>(res->peak_inflight); });
    dump.Register("rack", "resident_client_bytes", "bytes",
                  "resident client state (fleet + in-flight slabs)",
                  [res] { return static_cast<double>(res->resident_client_bytes); });
    SNIC_CHECK(dump.WriteJsonFile(params.metrics_path));
  }
  return out;
}

}  // namespace snicsim

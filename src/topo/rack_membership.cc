// Membership change & migration (opt-in, DESIGN.md §16.2-16.3). With
// membership.enabled, each domain carries its own copy of the ring plus a
// (member_epoch, live-mask) pair; a down server that stays unresponsive
// for `permloss_epochs` consecutive probe epochs is removed from the ring
// (`permloss=` faults model the loss). Epochs are stamped on every routed
// request: a server ahead of the request bounces it with its newer mask
// (bounce-and-retry, no failure evidence) and a server behind adopts the
// newer mask before serving, so every domain converges to the same ring
// without coordination — the epoch is always the popcount of removed
// servers, a pure function of the mask. For each removed server, the
// surviving replica of each of its key ranges streams those keys to their
// new ring owner over path ③ (the same host-DRAM fetch replication pays),
// paced by a byte-metered token bucket provisioned out of
// SafePath3BudgetGbps and metered as `repair_path3_bytes` against the
// governor's budget gate.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/topo/rack_kv_internal.h"

namespace snicsim {
namespace rackkv {
namespace {

bool LiveInMask(const KvDomain& dom, int s) {
  return ((dom.live_mask >> s) & 1u) != 0;
}

void RangeFailed(KvDomain& dom, MigOp* m) {
  ++dom.ctr.ranges_failed;
  dom.migs.Free(m);
}

void PushNextKey(KvDomain& dom, MigOp* m);

void OnPushNack(KvDomain& dom, MigOp* m, uint64_t gen) {
  if (m->gen != gen) {
    return;
  }
  if (m->attempts >= kRangeMaxAttempts) {
    RangeFailed(dom, m);
    return;
  }
  ++m->attempts;
  m->next = static_cast<size_t>(m->acked);  // rewind to the unacked tail
  dom.stack.sim->timers().In(dom.p.governor_epoch, [dp = &dom, m, gen] {
    if (m->gen != gen) {
      return;
    }
    PushNextKey(*dp, m);
  });
}

void OnPushAck(KvDomain& dom, MigOp* m, uint64_t gen) {
  if (m->gen != gen) {
    return;
  }
  ++dom.ctr.keys_migrated;
  ++m->acked;
  if (m->acked == m->ranks.size()) {
    ++dom.ctr.ranges_completed;
    dom.ctr.repair_done_at_us =
        std::max(dom.ctr.repair_done_at_us, ToMicros(dom.stack.sim->now()));
    dom.migs.Free(m);
    return;
  }
  PushNextKey(dom, m);
}

// Destination side of PushKey: install into SoC memory, then ack.
void InstallPushedKey(const PushMsg& msg) {
  KvDomain& f = *msg.to;
  KvDomain* const home = msg.from;
  MigOp* const m = msg.m;
  const uint64_t gen = msg.gen;
  if (ServerDeadNow(f)) {
    // Send is reliable, so an explicit nack (not a timer) keeps the
    // per-key ledger exact: every push resolves.
    Send(f, msg.d, [home, m, gen] { OnPushNack(*home, m, gen); });
    return;
  }
  AdoptMembership(f, msg.mep, msg.mmask);
  const SimTime applied = f.stack.bf->soc_memory().Access(
      f.stack.sim->now(), f.p.layout.Pack(msg.rank, msg.cls),
      f.p.layout.class_bytes[msg.cls], /*is_write=*/true);
  f.stack.sim->At(applied, [fp = &f, home, m, gen, d = msg.d, rank = msg.rank,
                            src_bad = msg.src_bad] {
    ++fp->ctr.keys_installed;
    InstallValue(*fp, rank, src_bad);
    Send(*fp, d, [home, m, gen] { OnPushAck(*home, m, gen); });
  });
}

// One key: fetch the value out of host DRAM over path ③ (the same
// ExecuteLocalOp leg replication pays, metered as repair_path3_bytes), then
// push it to the destination, which installs into SoC memory and acks.
void PushKey(KvDomain& dom, MigOp* m, uint64_t rank, int cls, uint32_t bytes) {
  if (SocCrashedNow(dom)) {
    RangeFailed(dom, m);  // the streaming engine runs on the survivor's SoC
    return;
  }
  dom.ctr.repair_path3_bytes += bytes;
  const PushMsg msg{&dom,
                    dom.rack.Dom(m->dest),
                    m,
                    m->gen,
                    rank,
                    dom.live_mask,
                    dom.stack.sim->now(),
                    static_cast<uint32_t>(dom.ctr.member_epoch),
                    static_cast<uint16_t>(dom.id),
                    static_cast<uint8_t>(cls),
                    dom.integ != nullptr && IsCorrupt(dom, rank)};
  dom.stack.bf->nic().ExecuteLocalOp(
      dom.stack.bf->soc_ep(), dom.stack.bf->host_ep(), Verb::kRead,
      dom.p.layout.Pack(rank, cls), bytes,
      [msg](SimTime done) {
        KvDomain& here = *msg.from;
        if (msg.m->gen != msg.gen) {
          return;
        }
        if (SocCrashKills(here, msg.fetch_start, done)) {
          RangeFailed(here, msg.m);
          return;
        }
        Send(here, msg.m->dest, [msg] { InstallPushedKey(msg); });
      },
      /*req_id=*/msg.gen);
}

// Advance the range's strictly-serial push stream, paced by the shared
// migration token bucket (TakeAmount debits the bytes up front; a negative
// balance defers the push by exactly the refill time).
void PushNextKey(KvDomain& dom, MigOp* m) {
  if (m->next >= m->ranks.size()) {
    return;  // all pushed; the tail acks complete the range
  }
  const uint64_t rank = m->ranks[m->next];
  const int cls = RepairClassOf(dom, rank);
  const uint32_t bytes = dom.p.layout.class_bytes[static_cast<size_t>(cls)];
  ++m->next;
  const SimTime wait = dom.mig_bucket.TakeAmount(
      dom.mig_rate_bpus, kMigrationBurstBytes,
      static_cast<double>(bytes), dom.stack.sim->now());
  if (wait > 0) {
    ++dom.ctr.migration_waits;
    dom.stack.sim->timers().In(wait, [dp = &dom, m, gen = m->gen, rank, cls, bytes] {
      if (m->gen != gen) {
        return;
      }
      PushKey(*dp, m, rank, cls, bytes);
    });
    return;
  }
  PushKey(dom, m, rank, cls, bytes);
}

void StartRange(KvDomain& dom, int dest, std::vector<uint64_t> ranks) {
  ++dom.ctr.ranges_started;
  MigOp* m = dom.migs.Alloc();
  m->attempts = 1;
  m->dest = dest;
  m->next = 0;
  m->acked = 0;
  m->ranks = std::move(ranks);
  PushNextKey(dom, m);
}

// Execute one ring removal at this domain: bump the epoch, drop the
// server's vnodes, and — if this domain is the surviving replica of any of
// the dead server's key ranges — start streaming those keys to their new
// ring owners.
void ApplyRemoval(KvDomain& dom, int s) {
  const RackKvParams& p = dom.p;
  const int d = dom.id;
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
  if (p.replicas > 1) {
    const HashRing& old_ring = *dom.mring;
    for (uint64_t rank = 0; rank < p.layout.keys; ++rank) {
      const auto [pr, f] = old_ring.PairOf(rank);
      if (pr != s && f != s) {
        continue;
      }
      affected.push_back(Affected{rank, pr == s ? f : pr});
    }
  }
  dom.live_mask &= ~(1ull << s);
  ++dom.ctr.member_epoch;
  ++dom.ctr.removals;
  if (dom.ctr.membership_change_at_us < 0) {
    dom.ctr.membership_change_at_us = ToMicros(dom.stack.sim->now());
  }
  dom.mring->RemoveServer(s);
  // The removed server is gone for good: clear the failover view so the
  // probe machinery never touches it again.
  dom.views[static_cast<size_t>(s)] = ServerView{};
  if (p.replicas <= 1) {
    return;
  }
  // Migration duty: this domain streams exactly the ranks for which IT is
  // the surviving replica (each affected rank has one survivor, so exactly
  // one live domain claims it — no duplicate streams without coordination).
  const bool self_live = LiveInMask(dom, d) && !ServerDeadNow(dom);
  const HashRing& ring = *dom.mring;
  std::vector<std::vector<uint64_t>> by_dest(static_cast<size_t>(p.servers));
  for (const Affected& a : affected) {
    if (!LiveInMask(dom, a.survivor)) {
      // Both replicas are gone. The rank is charged to its live new primary
      // (one counter per rank rack-wide, no matter how many domains notice).
      if (self_live && ring.PrimaryOf(a.rank) == d) {
        ++dom.ctr.keys_lost;
      }
      continue;
    }
    if (a.survivor != d || !self_live) {
      continue;
    }
    // New replica pair under the post-removal ring; the member that isn't
    // the survivor needs a copy.
    const auto [np, nf] = ring.PairOf(a.rank);
    const int dest = np == d ? nf : np;
    SNIC_CHECK_NE(dest, d);
    by_dest[static_cast<size_t>(dest)].push_back(a.rank);
  }
  for (int dest = 0; dest < p.servers; ++dest) {
    std::vector<uint64_t>& ranks = by_dest[static_cast<size_t>(dest)];
    for (size_t off = 0; off < ranks.size();
         off += static_cast<size_t>(p.membership.migrate_batch)) {
      const size_t end =
          std::min(ranks.size(), off + static_cast<size_t>(p.membership.migrate_batch));
      StartRange(dom, dest,
                 std::vector<uint64_t>(ranks.begin() + off, ranks.begin() + end));
    }
  }
}

}  // namespace

void EpochTick(KvDomain& dom) {
  const RackKvParams& p = dom.p;
  // Probe every down-marked server once per epoch; the first ack re-homes.
  // Under the membership plane each down epoch also counts toward permanent
  // loss: the K-th consecutive missed epoch removes the server from this
  // domain's ring (every live domain reaches the same verdict on its own
  // probe clock; epoch stamping reconciles any skew between them).
  for (int s = 0; s < p.servers; ++s) {
    if (s == dom.id) {
      continue;
    }
    ServerView& v = dom.views[static_cast<size_t>(s)];
    if (p.membership.enabled && !LiveInMask(dom, s)) {
      continue;  // already removed: no probes, no further evidence
    }
    if (!v.down) {
      continue;
    }
    if (p.membership.enabled) {
      ++v.missed_epochs;
      if (v.missed_epochs >= p.membership.permloss_epochs) {
        ApplyRemoval(dom, s);
        continue;
      }
    }
    ++dom.ctr.probes;
    Send(dom, s, [there = dom.rack.Dom(s), d = dom.id, s] {
      if (ServerDeadNow(*there)) {
        return;  // the probe dies with the server
      }
      Send(*there, d, [home = there->rack.Dom(d), s] {
        ServerView& view = home->views[static_cast<size_t>(s)];
        view.missed_epochs = 0;
        if (!view.down) {
          return;
        }
        view.down = false;
        view.consec_fail = 0;
        ++home->ctr.rehomed;
        if (home->ctr.first_rehome_at_us < 0) {
          home->ctr.first_rehome_at_us = ToMicros(home->stack.sim->now());
        }
      });
    });
  }
  if (p.membership.enabled && dom.integ != nullptr &&
      p.membership.scrub_keys_per_epoch > 0 && !ServerDeadNow(dom)) {
    ScrubTick(dom);
  }
  if (dom.stack.sim->now() + p.governor_epoch < p.window) {
    dom.stack.sim->timers().In(p.governor_epoch, [dp = &dom] { EpochTick(*dp); });
  }
}

// Adopt the removals carried by a bounce or a stamped request: replay, in
// ascending server order, every removal the sender has executed that this
// domain hasn't. Adoption is a union of removals (removals are permanent
// and commutative), so two domains that independently detected *different*
// losses at the same epoch still converge — each adopts the other's
// removals and both land on the popcount epoch of the merged mask.
void AdoptMembership(KvDomain& dom, uint32_t epoch, uint64_t mask) {
  if (!dom.p.membership.enabled || epoch <= dom.ctr.member_epoch) {
    return;
  }
  for (int s = 0; s < dom.p.servers; ++s) {
    if (LiveInMask(dom, s) && ((mask >> s) & 1u) == 0) {
      ApplyRemoval(dom, s);
    }
  }
}

}  // namespace rackkv
}  // namespace snicsim

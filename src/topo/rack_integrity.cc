// Integrity (DESIGN.md §16.4). The store, allocated only when the plan has
// `corrupt=` events or the scrubber is on, shadows every stored value with
// a corrupt flag, verifies on every serve, and walks shards at a budgeted
// per-epoch rate, repairing from the surviving replica.
#include <algorithm>
#include <cstdint>

#include "src/topo/rack_kv_internal.h"

namespace snicsim {
namespace rackkv {
namespace {

// Does this domain store `rank` under its current ring (primary or, with
// replication, follower)?
bool StoredHere(const KvDomain& dom, uint64_t rank) {
  const HashRing::Pair pair = RingOf(dom).PairOf(rank);
  return pair.primary == dom.id || (dom.p.replicas > 1 && pair.follower == dom.id);
}

void FinishRepair(KvDomain& dom, RepairOp* rp, uint64_t gen, bool ok) {
  if (rp->gen != gen) {
    return;
  }
  const uint64_t rank = rp->rank;
  dom.integ->repairing[static_cast<size_t>(rank)] = 0;
  if (ok && IsCorrupt(dom, rank)) {
    // Heal in place (a concurrent write may have already healed it — then
    // the repair is a no-op and the write's counter keeps the ledger exact).
    SetCorrupt(dom, rank, false);
    if (rp->from_scrub) {
      ++dom.ctr.repaired_scrub;
    } else {
      ++dom.ctr.repaired_read;
    }
  }
  if (!ok) {
    ++dom.ctr.repair_unavailable;
  }
  ServeCtx* const ctx = rp->ctx;
  const uint64_t ctx_gen = rp->ctx_gen;
  dom.repairs.Free(rp);
  if (ctx != nullptr && ctx->gen == ctx_gen) {
    // The parked serve resumes against a (hopefully) clean value; if the
    // heal failed it bounces home as an evidence-free retry.
    if (ok) {
      LaunchServe(dom, ctx);
    } else {
      SettleServe(dom, ctx, /*ok=*/false, dom.stack.sim->now());
    }
  }
}

}  // namespace

// A `corrupt=` event: flip each stored value with probability `fraction`,
// chosen by a keyed hash of (plan seed, domain, event time, rank) — fully
// deterministic, zero RNG draws. Every term of the test is pure, so the
// cheap hash goes first and only the chosen ranks reach the ring.
void ApplyCorruption(KvDomain& dom, double fraction, uint64_t salt) {
  if (dom.integ == nullptr) {
    return;
  }
  const uint64_t thresh =
      fraction >= 1.0 ? ~0ULL
                      : static_cast<uint64_t>(fraction * 18446744073709551616.0);
  for (uint64_t rank = 0; rank < dom.p.layout.keys; ++rank) {
    if (SplitMix64(salt ^ rank) >= thresh || IsCorrupt(dom, rank) || !StoredHere(dom, rank)) {
      continue;
    }
    SetCorrupt(dom, rank, true);
    ++dom.ctr.corrupted_keys;
  }
}

// Anti-entropy: verify `scrub_keys_per_epoch` stored ranks per epoch behind
// a wrapping cursor. The walk itself is pure computation — a detection is
// the only thing that schedules events (the repair), so a clean store scrubs
// for free and stays byte-identical to a scrubber-free run.
void ScrubTick(KvDomain& dom) {
  const uint64_t keys = dom.p.layout.keys;
  const uint64_t n = std::min<uint64_t>(dom.p.membership.scrub_keys_per_epoch, keys);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t rank = dom.scrub_cursor;
    dom.scrub_cursor = (dom.scrub_cursor + 1) % keys;
    if (!StoredHere(dom, rank)) {
      continue;
    }
    ++dom.ctr.scrub_checked;
    ++dom.ctr.integrity_checks;
    if (!IsCorrupt(dom, rank) ||
        dom.integ->repairing[static_cast<size_t>(rank)] != 0) {
      continue;
    }
    ++dom.ctr.scrub_detected;
    StartRepair(dom, rank, /*from_scrub=*/true, nullptr, 0);
  }
}

// Heal one corrupt rank from the replica pair's other member: read its copy
// (SoC memory access at the peer), and if the peer holds a clean value,
// overwrite the local one. A parked serve (read-path detection)
// resumes on success and retries elsewhere on failure.
void StartRepair(KvDomain& dom, uint64_t rank, bool from_scrub, ServeCtx* ctx,
                 uint64_t ctx_gen) {
  dom.integ->repairing[static_cast<size_t>(rank)] = 1;
  RepairOp* rp = dom.repairs.Alloc();
  rp->rank = rank;
  rp->from_scrub = from_scrub;
  rp->ctx = ctx;
  rp->ctx_gen = ctx_gen;
  if (dom.p.replicas <= 1) {
    FinishRepair(dom, rp, rp->gen, /*ok=*/false);  // nowhere to heal from
    return;
  }
  const int peer = RingOf(dom).ReplicaPeerOf(rank, dom.id);
  const int cls = RepairClassOf(dom, rank);
  const uint32_t bytes = dom.p.layout.class_bytes[static_cast<size_t>(cls)];
  const uint64_t gen = rp->gen;
  Send(dom, peer, [pp = dom.rack.Dom(peer), d = dom.id, rp, gen, rank, cls, bytes] {
    const bool have = !ServerDeadNow(*pp) && !(pp->integ != nullptr && IsCorrupt(*pp, rank));
    if (!have) {
      Send(*pp, d, [home = pp->rack.Dom(d), rp, gen] {
        FinishRepair(*home, rp, gen, /*ok=*/false);
      });
      return;
    }
    const SimTime read_done = pp->stack.bf->soc_memory().Access(
        pp->stack.sim->now(), pp->p.layout.Pack(rank, cls), bytes, /*is_write=*/false);
    pp->stack.sim->At(read_done, [pp, d, rp, gen] {
      Send(*pp, d, [home = pp->rack.Dom(d), rp, gen] {
        FinishRepair(*home, rp, gen, /*ok=*/true);
      });
    });
  });
}

}  // namespace rackkv
}  // namespace snicsim

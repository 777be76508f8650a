// Serving & replication (DESIGN.md §13.3). An arrival is admitted,
// integrity-verified and served through the full SmartNIC model, and the
// reply goes home. A key's primary is HashRing::PrimaryOf(rank); its
// follower replica is the next distinct server clockwise (src/topo/shard.h).
// Writes served at the primary are replicated: the primary's SoC first pulls
// the value from host DRAM over path ③ (ExecuteLocalOp, the paper's
// host↔SoC communication) and then pushes it to the follower, which applies
// it to its SoC memory and acks. Replication is asynchronous with bounded
// retries; the conservation ledger closes over it (repl_pushed ==
// repl_acked + repl_failed after drain).
#include <cstdint>
#include <utility>

#include "src/governor/policy.h"
#include "src/topo/rack_kv_internal.h"

namespace snicsim {
namespace rackkv {
namespace {

void PushReplica(RackKv& r, DomainId t, RepOp* rep) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  ++rep->attempts;
  const uint64_t gen = rep->gen;
  const uint64_t token = ++rep->token;
  RackKv* rk = &r;
  // The replication engine runs on the primary's SoC; a crashed SoC fails
  // the push outright (the restart path re-replicates by application-level
  // means outside this model).
  if (SocCrashedNow(dom)) {
    ++dom.ctr.repl_failed;
    rep->gen = 0;
    dom.reps.Free(rep);
    return;
  }
  const SimTime fetch_start = dom.stack.sim->now();
  // Path ③: the SoC pulls the freshly-written value out of host DRAM
  // through the NIC engine (double PCIe1 crossing) before pushing it to the
  // follower over the wire.
  dom.stack.bf->nic().ExecuteLocalOp(
      dom.stack.bf->soc_ep(), dom.stack.bf->host_ep(), Verb::kRead,
      r.p->layout.Pack(rep->rank, rep->cls), rep->bytes,
      [rk, t, rep, gen, token, fetch_start](SimTime done) {
        KvDomain& here = *rk->doms[static_cast<size_t>(t)];
        if (rep->gen != gen || rep->token != token) {
          ++here.ctr.repl_stale;
          return;
        }
        if (SocCrashKills(here, fetch_start, done)) {
          ++here.ctr.repl_failed;
          rep->gen = 0;
          here.reps.Free(rep);
          return;
        }
        const int peer = rep->peer;
        const uint64_t rank = rep->rank;
        const int cls = rep->cls;
        const uint32_t bytes = rep->bytes;
        rep->timer = here.stack.sim->timers().In(rk->p->repl_timeout, [rk, t, rep, gen, token] {
          KvDomain& h = *rk->doms[static_cast<size_t>(t)];
          if (rep->gen != gen || rep->token != token) {
            return;
          }
          ++rep->token;  // the in-flight push is dead
          rep->timer = TimerWheel::kNoTimer;
          if (rep->attempts >= kReplMaxAttempts) {
            ++h.ctr.repl_failed;
            rep->gen = 0;
            h.reps.Free(rep);
            return;
          }
          h.stack.sim->timers().In(kRetryBackoff, [rk, t, rep, gen] {
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
              if (SocCrashedNow(f)) {
                return;  // dead follower: the primary's timer retries
              }
              const SimTime applied = f.stack.bf->soc_memory().Access(
                  f.stack.sim->now(), rk->p->layout.Pack(rank, cls), bytes,
                  /*is_write=*/true);
              f.stack.sim->At(applied, [rk, t, peer, rep, gen, token, rank] {
                KvDomain& ff = *rk->doms[static_cast<size_t>(peer)];
                ++ff.ctr.repl_applied;
                InstallValue(ff, rank, /*bad=*/false);
                rk->psim->Post(
                    static_cast<DomainId>(peer), t,
                    ff.stack.sim->now() + rk->p->rack_link_latency,
                    [rk, t, rep, gen, token] {
                      KvDomain& h = *rk->doms[static_cast<size_t>(t)];
                      if (rep->gen != gen || rep->token != token) {
                        ++h.ctr.repl_stale;
                        return;
                      }
                      if (rep->timer != TimerWheel::kNoTimer) {
                        h.stack.sim->timers().Cancel(rep->timer);
                        rep->timer = TimerWheel::kNoTimer;
                      }
                      ++h.ctr.repl_acked;
                      rep->gen = 0;
                      h.reps.Free(rep);
                    });
              });
            });
      },
      /*req_id=*/token);
}

void Replicate(RackKv& r, DomainId t, uint64_t rank, int cls, uint32_t bytes) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  ++dom.ctr.repl_pushed;
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

}  // namespace

void ServeArrival(RackKv& r, DomainId t, DomainId src, HomeOp* op,
                  uint64_t op_gen, uint64_t op_token, uint64_t rank, int cls,
                  uint32_t bytes, bool write, uint32_t mep, uint64_t mmask) {
  KvDomain& dom = *r.doms[static_cast<size_t>(t)];
  RackKv* rk = &r;
  if (ServerDeadNow(dom)) {
    ++dom.ctr.crash_refused;
    // Nack home: faster failure evidence than waiting out the timeout.
    r.psim->Post(t, src, dom.stack.sim->now() + r.p->rack_link_latency,
                 [rk, src, op, op_gen, op_token] {
                   ReplyHome(*rk, src, op, op_gen, op_token, ReplyStatus::kNack);
                 });
    return;
  }
  if (r.p->membership.enabled) {
    if (mep < dom.ctr.member_epoch) {
      // The sender routed by an older ring: bounce with this server's
      // (epoch, mask). The home adopts before the retry re-dispatches, so
      // one bounce converges the pair — no failure evidence either way.
      ++dom.ctr.stale_epoch_bounces;
      const auto e = static_cast<uint32_t>(dom.ctr.member_epoch);
      const uint64_t m = dom.live_mask;
      r.psim->Post(t, src, dom.stack.sim->now() + r.p->rack_link_latency,
                   [rk, src, op, op_gen, op_token, e, m] {
                     AdoptMembership(*rk, src, e, m);
                     ReplyHome(*rk, src, op, op_gen, op_token,
                               ReplyStatus::kRetry);
                   });
      return;
    }
    if (mep > dom.ctr.member_epoch) {
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
  dom.stack.sim->timers().In(kServeTimeout, [rk, t, ctx, sgen] {
    KvDomain& here = *rk->doms[static_cast<size_t>(t)];
    if (ctx->gen != sgen || ctx->settled) {
      return;
    }
    ++here.ctr.serve_timeouts;
    SettleServe(*rk, t, ctx, /*ok=*/false, here.stack.sim->now());
  });
  // Integrity: verify the stored value before serving a read. A corrupt
  // value never reaches the client — the serve parks on a replica-read
  // repair and resumes (or retries elsewhere) once the heal settles.
  // Writes skip the gate: they overwrite the value regardless.
  if (dom.integ != nullptr && !write) {
    ++dom.ctr.integrity_checks;
    if (IsCorrupt(dom, rank)) {
      ++dom.ctr.read_repair_detected;
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
  NicEndpoint* const ep = ctx->path == governor::kPathHost ? dom.stack.bf->host_ep()
                                                           : dom.stack.bf->soc_ep();
  PciePath back = dom.stack.fabric.Route(dom.stack.bf->port(), dom.uplink);
  dom.stack.bf->nic().HandleRequest(
      ep, Verb::kSend, ctx->req.hdr, kRequestBytes, /*fe_units=*/1.0,
      std::move(back),
      [rk, t, ctx, sgen](SimTime delivered) {
        KvDomain& here = *rk->doms[static_cast<size_t>(t)];
        if (ctx->gen != sgen || ctx->settled) {
          ++here.ctr.late_serves;  // the watchdog already failed this serve
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
      // The served write lands a fresh, clean value (healing any
      // corruption the old value carried).
      InstallValue(dom, ctx->req.rank, /*bad=*/false);
    } else if (IsCorrupt(dom, ctx->req.rank)) {
      // Corrupted mid-serve (a corrupt= window fired while the value was in
      // the pipeline): demote to an evidence-free retry and schedule the
      // heal. The client never sees the bad bytes.
      ++dom.ctr.read_repair_detected;
      ctx->retry_on_fail = true;
      ok = false;
      if (dom.integ->repairing[static_cast<size_t>(ctx->req.rank)] == 0) {
        StartRepair(r, t, ctx->req.rank, /*from_scrub=*/false, nullptr, 0);
      }
    }
    if (ok && IsCorrupt(dom, ctx->req.rank)) {
      ++dom.ctr.undetected_corrupt_serves;  // structurally unreachable
    }
  }
  const SimTime latency = done - ctx->arrived;
  dom.stack.gov->OnComplete(ctx->path, ctx->req, latency, ok);
  if (dom.stack.resil != nullptr) {
    dom.stack.resil->OnOutcome(ctx->path, latency, ok, /*deadline_met=*/ok,
                         dom.stack.sim->now());
  }
  if (ok) {
    ++dom.ctr.server_completed[t];
    if (ctx->write && r.p->replicas > 1) {
      ++dom.ctr.writes;
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

}  // namespace rackkv
}  // namespace snicsim

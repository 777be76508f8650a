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

void PushReplica(KvDomain& dom, RepOp* rep) {
  ++rep->attempts;
  const uint64_t gen = rep->gen;
  const uint64_t token = ++rep->token;
  // The replication engine runs on the primary's SoC; a crashed SoC fails
  // the push outright (the restart path re-replicates by application-level
  // means outside this model).
  if (SocCrashedNow(dom)) {
    ++dom.ctr.repl_failed;
    dom.reps.Free(rep);
    return;
  }
  const SimTime fetch_start = dom.stack.sim->now();
  // Path ③: the SoC pulls the freshly-written value out of host DRAM
  // through the NIC engine (double PCIe1 crossing) before pushing it to the
  // follower over the wire.
  dom.stack.bf->nic().ExecuteLocalOp(
      dom.stack.bf->soc_ep(), dom.stack.bf->host_ep(), Verb::kRead,
      dom.p.layout.Pack(rep->rank, rep->cls), rep->bytes,
      [dp = &dom, rep, gen, token, fetch_start](SimTime done) {
        KvDomain& here = *dp;
        if (rep->gen != gen || rep->token != token) {
          ++here.ctr.repl_stale;
          return;
        }
        if (SocCrashKills(here, fetch_start, done)) {
          ++here.ctr.repl_failed;
          here.reps.Free(rep);
          return;
        }
        const int peer = rep->peer;
        const uint64_t rank = rep->rank;
        const int cls = rep->cls;
        const uint32_t bytes = rep->bytes;
        rep->timer = here.stack.sim->timers().In(here.p.repl_timeout, [dp, rep, gen, token] {
          if (rep->gen != gen || rep->token != token) {
            return;
          }
          ++rep->token;  // the in-flight push is dead
          rep->timer = TimerWheel::kNoTimer;
          if (rep->attempts >= kReplMaxAttempts) {
            ++dp->ctr.repl_failed;
            dp->reps.Free(rep);
            return;
          }
          dp->stack.sim->timers().In(kRetryBackoff, [dp, rep, gen] {
            if (rep->gen != gen) {
              return;
            }
            PushReplica(*dp, rep);
          });
        });
        Send(here, peer,
             [f = here.rack.Dom(peer), h = here.id, rep, gen, token, rank, cls, bytes] {
               // Follower side: apply into SoC memory, then ack.
               if (SocCrashedNow(*f)) {
                 return;  // dead follower: the primary's timer retries
               }
               const SimTime applied = f->stack.bf->soc_memory().Access(
                   f->stack.sim->now(), f->p.layout.Pack(rank, cls), bytes,
                   /*is_write=*/true);
               f->stack.sim->At(applied, [f, h, rep, gen, token, rank] {
                 ++f->ctr.repl_applied;
                 InstallValue(*f, rank, /*bad=*/false);
                 Send(*f, h, [hp = f->rack.Dom(h), rep, gen, token] {
                   if (rep->gen != gen || rep->token != token) {
                     ++hp->ctr.repl_stale;
                     return;
                   }
                   if (rep->timer != TimerWheel::kNoTimer) {
                     hp->stack.sim->timers().Cancel(rep->timer);
                     rep->timer = TimerWheel::kNoTimer;
                   }
                   ++hp->ctr.repl_acked;
                   hp->reps.Free(rep);
                 });
               });
             });
      },
      /*req_id=*/token);
}

void Replicate(KvDomain& dom, uint64_t rank, int cls, uint32_t bytes) {
  ++dom.ctr.repl_pushed;
  RepOp* rep = dom.reps.Alloc();
  rep->token = 0;
  rep->attempts = 0;
  rep->peer = RingOf(dom).ReplicaPeerOf(rank, static_cast<int>(dom.id));
  rep->rank = rank;
  rep->cls = cls;
  rep->bytes = bytes;
  rep->timer = TimerWheel::kNoTimer;
  PushReplica(dom, rep);
}

// The serving domain's answer to one attempt, home over the wire.
void Reply(KvDomain& dom, DomainId src, HomeRef home, ReplyStatus status) {
  Send(dom, src, [hp = dom.rack.Dom(src), home, status] { ReplyHome(*hp, home, status); });
}

}  // namespace

void ServeArrival(const ServeMsg& msg) {
  KvDomain& dom = *msg.to;
  const DomainId src = msg.src;
  if (ServerDeadNow(dom)) {
    ++dom.ctr.crash_refused;
    // Nack home: faster failure evidence than waiting out the timeout.
    Reply(dom, src, msg.home, ReplyStatus::kNack);
    return;
  }
  if (dom.p.membership.enabled) {
    if (msg.mep < dom.ctr.member_epoch) {
      // The sender routed by an older ring: bounce with this server's
      // (epoch, mask). The home adopts before the retry re-dispatches, so
      // one bounce converges the pair — no failure evidence either way.
      ++dom.ctr.stale_epoch_bounces;
      Send(dom, src,
           [hp = dom.rack.Dom(src), home = msg.home,
            e = static_cast<uint32_t>(dom.ctr.member_epoch), m = dom.live_mask] {
             AdoptMembership(*hp, e, m);
             ReplyHome(*hp, home, ReplyStatus::kRetry);
           });
      return;
    }
    if (msg.mep > dom.ctr.member_epoch) {
      // The sender is ahead: adopt its mask, then serve normally — under
      // the new ring this server is still the key's owner (the sender just
      // routed here).
      AdoptMembership(dom, msg.mep, msg.mmask);
    }
  }
  KvRequest req;
  req.client = static_cast<uint64_t>(src);
  req.seq = msg.home.token;
  req.rank = msg.rank;
  req.size_class = msg.cls;
  req.bytes = msg.bytes;
  req.hdr = dom.p.layout.Pack(msg.rank, msg.cls);
  const int path = dom.stack.gov->Route(req);
  if (dom.stack.resil != nullptr &&
      !dom.stack.resil->Admit(path, msg.cls, /*deadline=*/0, dom.stack.sim->now())) {
    dom.stack.gov->OnShed(path, req);
    Reply(dom, src, msg.home, ReplyStatus::kShed);
    return;
  }
  ServeCtx* ctx = dom.serves.Alloc();
  ctx->retry_on_fail = false;
  ctx->path = path;
  ctx->arrived = dom.stack.sim->now();
  ctx->req = req;
  ctx->write = msg.write;
  ctx->home = msg.home;
  const uint64_t sgen = ctx->gen;
  // Crash windows eat in-flight serves inside the executor (the reply
  // evaporates with the endpoint); the watchdog turns that silence into a
  // deterministic failed-serve + nack so the governor's in-flight
  // accounting and the home ledger both stay closed. SettleServe cancels
  // it, so every fire fails an open serve.
  ctx->watchdog = dom.stack.sim->timers().In(kServeTimeout, [dp = &dom, ctx, sgen] {
    SNIC_CHECK_EQ(ctx->gen, sgen);
    ctx->watchdog = TimerWheel::kNoTimer;
    ++dp->ctr.serve_timeouts;
    SettleServe(*dp, ctx, /*ok=*/false, dp->stack.sim->now());
  });
  // Integrity: verify the stored value before serving a read. A corrupt
  // value never reaches the client — the serve parks on a replica-read
  // repair and resumes (or retries elsewhere) once the heal settles.
  // Writes skip the gate: they overwrite the value regardless.
  if (dom.integ != nullptr && !msg.write) {
    ++dom.ctr.integrity_checks;
    if (IsCorrupt(dom, msg.rank)) {
      ++dom.ctr.read_repair_detected;
      ctx->retry_on_fail = true;
      if (dom.integ->repairing[static_cast<size_t>(msg.rank)] != 0) {
        // A repair for this rank is already in flight; bounce rather than
        // queue (the retry lands after the heal).
        SettleServe(dom, ctx, /*ok=*/false, dom.stack.sim->now());
      } else {
        StartRepair(dom, msg.rank, /*from_scrub=*/false, ctx, sgen);
      }
      return;
    }
  }
  LaunchServe(dom, ctx);
}

void LaunchServe(KvDomain& dom, ServeCtx* ctx) {
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
      [dp = &dom, ctx, sgen](SimTime delivered) {
        if (ctx->gen != sgen) {
          ++dp->ctr.late_serves;  // the watchdog already failed this serve
          return;
        }
        SettleServe(*dp, ctx, /*ok=*/true, delivered);
      },
      /*req_id=*/ctx->home.token);
}

void SettleServe(KvDomain& dom, ServeCtx* ctx, bool ok, SimTime done) {
  if (ctx->watchdog != TimerWheel::kNoTimer) {
    dom.stack.sim->timers().Cancel(ctx->watchdog);
  }
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
        StartRepair(dom, ctx->req.rank, /*from_scrub=*/false, nullptr, 0);
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
    ++dom.ctr.server_completed[static_cast<size_t>(dom.id)];
    if (ctx->write && dom.p.replicas > 1) {
      ++dom.ctr.writes;
      Replicate(dom, ctx->req.rank, ctx->req.size_class, ctx->req.bytes);
    }
  }
  Reply(dom, static_cast<DomainId>(ctx->req.client), ctx->home,
        ok ? ReplyStatus::kOk
           : (ctx->retry_on_fail ? ReplyStatus::kRetry : ReplyStatus::kNack));
  dom.serves.Free(ctx);
}

}  // namespace rackkv
}  // namespace snicsim

// Routing & failover (DESIGN.md §13.4). A fleet arrival becomes a request,
// routed by the home's failover view. Home domains keep a per-server view:
// kPromoteAfter consecutive timeouts/nacks against a server mark it down
// and re-route its shards to the follower — a pure function of the shared
// ring, so every home promotes the same replacement without coordination.
// While a server is down, the home's epoch tick (the governor epoch period)
// probes it; the first probe ack (or any successful data reply) re-homes the
// shards. The measured promotion gap (first evidence -> promote) is bounded
// by ≤ 2 governor epochs in the crash-failover scenario (bench/rack_scale
// --check asserts it).
#include <algorithm>
#include <cstdint>

#include "src/common/log.h"
#include "src/topo/rack_kv_internal.h"

namespace snicsim {
namespace rackkv {
namespace {

void Evidence(KvDomain& dom, int target) {
  ServerView& v = dom.views[static_cast<size_t>(target)];
  if (v.down) {
    return;
  }
  if (v.consec_fail == 0) {
    v.first_evidence = dom.stack.sim->now();
  }
  ++v.consec_fail;
  if (v.consec_fail >= kPromoteAfter) {
    v.down = true;
    v.consec_fail = 0;
    ++dom.ctr.promotions;
    const double gap_us = ToMicros(dom.stack.sim->now() - v.first_evidence);
    dom.ctr.max_promote_gap_us = std::max(dom.ctr.max_promote_gap_us, gap_us);
    if (dom.ctr.first_promote_at_us < 0) {
      dom.ctr.first_promote_at_us = ToMicros(dom.stack.sim->now());
    }
  }
}

void FinishHome(KvDomain& dom, HomeOp* op, ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk: {
      ++dom.ctr.completed;
      dom.latency.Record(dom.stack.sim->now() - op->start);
      // Settle-time epoch bucket: the goodput-during-migration series.
      const size_t idx = static_cast<size_t>(dom.stack.sim->now() / dom.p.governor_epoch);
      if (dom.ctr.completed_by_epoch.size() <= idx) {
        dom.ctr.completed_by_epoch.resize(idx + 1, 0);
      }
      ++dom.ctr.completed_by_epoch[idx];
      break;
    }
    case ReplyStatus::kShed:
      ++dom.ctr.shed;
      break;
    case ReplyStatus::kNack:
      ++dom.ctr.failed;
      dom.ctr.last_failed_start_us =
          std::max(dom.ctr.last_failed_start_us, ToMicros(op->start));
      break;
    case ReplyStatus::kRetry:
      SNIC_CHECK(false);  // kRetry re-dispatches in ReplyHome, never lands here
      break;
  }
  dom.fleet->OnComplete(op->cls, op->user);
  dom.ops.Free(op);
}

void Dispatch(KvDomain& dom, HomeOp* op);

void RetryOrFail(KvDomain& dom, HomeOp* op) {
  if (op->attempts >= dom.p.max_attempts) {
    FinishHome(dom, op, ReplyStatus::kNack);  // terminal failure
    return;
  }
  const HomeRef home{op, op->gen, op->token};
  dom.stack.sim->timers().In(kRetryBackoff, [dp = &dom, home] {
    if (!home.Live()) {
      return;  // freed or re-dispatched while backing off (cannot happen
               // today — the op is quiescent during backoff — but cheap)
    }
    Dispatch(*dp, home.op);
  });
}

void OnTimeout(KvDomain& dom, HomeRef home) {
  if (!home.Live()) {
    return;  // a reply settled this attempt first
  }
  HomeOp* const op = home.op;
  ++dom.ctr.timeouts;
  ++op->token;  // the in-flight attempt is dead; its late reply is stale
  op->timer = TimerWheel::kNoTimer;
  Evidence(dom, op->target);
  RetryOrFail(dom, op);
}

void Dispatch(KvDomain& dom, HomeOp* op) {
  ++op->attempts;
  ++dom.ctr.issued;
  // Shard routing through the home's failover view: primary unless this
  // home has marked it down, then the ring's follower (the same follower
  // every home computes — no coordination). Under the membership plane the
  // home routes by its own ring copy and stamps its (epoch, mask) on the
  // request so the serving side can detect divergence.
  const HashRing& ring = RingOf(dom);
  const int primary = ring.PrimaryOf(op->rank);
  const int target = dom.views[static_cast<size_t>(primary)].down
                         ? ring.FollowerOf(op->rank)
                         : primary;
  op->target = target;
  const HomeRef home{op, op->gen, ++op->token};
  op->timer = dom.stack.sim->timers().In(dom.p.request_timeout,
                                         [dp = &dom, home] { OnTimeout(*dp, home); });
  const ServeMsg msg{dom.rack.Dom(target),
                     home,
                     op->rank,
                     dom.live_mask,
                     op->bytes,
                     static_cast<uint32_t>(dom.ctr.member_epoch),
                     static_cast<uint16_t>(dom.id),
                     static_cast<uint8_t>(op->serve_cls),
                     op->write};
  Send(dom, target, [msg] { ServeArrival(msg); });
}

}  // namespace

void IssueNew(KvDomain& dom, int cls, uint64_t user) {
  // Payload draws come from the fleet's class stream, in class event order,
  // so aggregate and materialized runs consume identical streams.
  uint64_t rank = dom.rack.zipf->RankOf(dom.fleet->Draw(cls));
  const bool write = dom.fleet->Draw(cls) < dom.p.write_fraction;
  int serve_cls = cls;
  if (const trace::TraceDriver* tr = dom.stack.trace.get(); tr != nullptr) {
    // Working-set churn: a draw-free rank rotation — the trace shifts which
    // physical keys are hot without touching the draw stream (a zero-churn
    // trace is byte-identical to no trace at all).
    rank = (rank + tr->ChurnAt(dom.stack.sim->now())) % dom.p.layout.keys;
    if (tr->has_scan() && dom.fleet->Draw(cls) < tr->ScanAt(dom.stack.sim->now())) {
      // Scan burst: the request is upgraded to the largest value class.
      // `cls` (the fleet population bucket) is untouched — OnComplete must
      // return the user to the bucket it was drawn from.
      serve_cls = static_cast<int>(dom.p.layout.class_bytes.size()) - 1;
      ++dom.ctr.scan_forced;
    }
  }
  ++dom.ctr.generated;
  HomeOp* op = dom.ops.Alloc();
  op->token = 0;
  op->start = dom.stack.sim->now();
  op->cls = cls;
  op->serve_cls = serve_cls;
  op->rank = rank;
  op->bytes = dom.p.layout.class_bytes[static_cast<size_t>(serve_cls)];
  op->write = write;
  op->user = user;
  op->attempts = 0;
  op->timer = TimerWheel::kNoTimer;
  Dispatch(dom, op);
}

void ReplyHome(KvDomain& dom, HomeRef home, ReplyStatus status) {
  if (!home.Live()) {
    ++dom.ctr.stale_replies;
    return;
  }
  HomeOp* const op = home.op;
  if (op->timer != TimerWheel::kNoTimer) {
    dom.stack.sim->timers().Cancel(op->timer);
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
        ++dom.ctr.rehomed;
        if (dom.ctr.first_rehome_at_us < 0) {
          dom.ctr.first_rehome_at_us = ToMicros(dom.stack.sim->now());
        }
      }
      FinishHome(dom, op, ReplyStatus::kOk);
      return;
    }
    case ReplyStatus::kShed:
      FinishHome(dom, op, ReplyStatus::kShed);
      return;
    case ReplyStatus::kNack:
      ++dom.ctr.nacks;
      Evidence(dom, op->target);
      RetryOrFail(dom, op);
      return;
    case ReplyStatus::kRetry:
      // Evidence-free re-dispatch: the server is healthy but bounced the
      // attempt (stale membership epoch — the bounce carried the newer mask
      // and this home already adopted it — or unhealable corruption).
      ++dom.ctr.retry_replies;
      RetryOrFail(dom, op);
      return;
  }
}

}  // namespace rackkv
}  // namespace snicsim

// A small ibverbs-flavored API over the simulator.
//
// This is the surface downstream code programs against (examples/, the KV
// store): remote memory regions, queue pairs bound to a client thread, and
// completion queues. Underneath, posts travel the full simulated path —
// doorbell MMIO, client NIC, fabric, responder NIC front end, PU, DMA — so
// application-level experiments inherit every anomaly the paper documents.
#ifndef SRC_RDMA_VERBS_H_
#define SRC_RDMA_VERBS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <functional>
#include <memory>
#include <string>

#include "src/common/log.h"
#include "src/fault/injector.h"
#include "src/nic/engine.h"
#include "src/nic/verb.h"
#include "src/rdma/recv_queue.h"
#include "src/sim/simulator.h"
#include "src/sim/timer_wheel.h"
#include "src/workload/client.h"

namespace snicsim {
namespace rdma {

// A remote registration: which engine/endpoint serves it, where the server's
// network port is, and the address window the requester may touch.
struct RemoteMemoryRegion {
  NicEngine* engine = nullptr;
  NicEndpoint* endpoint = nullptr;
  PcieLink* server_port = nullptr;
  uint64_t addr = 0;
  uint64_t length = 0;
  uint32_t rkey = 0;
  // Responder receive ring consumed by SENDs (nullptr = unlimited ring).
  ReceiveQueue* recv = nullptr;

  bool Contains(uint64_t a, uint64_t len) const {
    return a >= addr && a + len <= addr + length;
  }
};

// Completion status (ibv_wc_status, reduced to what the simulator models).
// Error completions are always delivered to the CQ, signaled or not, like
// real verbs.
enum class WcStatus : uint8_t {
  kSuccess,
  kRetryExceeded,     // transport retry_cnt exhausted on this WR
  kRnrRetryExceeded,  // receiver-not-ready retry budget exhausted
  kFlushed,           // WR flushed when the QP entered the error state
  kDeadlineExceeded,  // deadline passed at retransmit time; WR abandoned
};

constexpr const char* WcStatusName(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess:
      return "success";
    case WcStatus::kRetryExceeded:
      return "retry_exceeded";
    case WcStatus::kRnrRetryExceeded:
      return "rnr_retry_exceeded";
    case WcStatus::kFlushed:
      return "flushed";
    case WcStatus::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "?";
}

struct WorkCompletion {
  Verb verb = Verb::kRead;
  uint64_t wr_id = 0;
  uint32_t byte_len = 0;
  SimTime completed_at = 0;
  WcStatus status = WcStatus::kSuccess;
};

// Completions are pushed by the QP and drained by the application, like
// ibv_poll_cq.
class CompletionQueue {
 public:
  void Push(WorkCompletion wc) { ready_.push_back(wc); }

  // Drains up to `max` completions into `out`; returns the count.
  int Poll(WorkCompletion* out, int max) {
    int n = 0;
    while (n < max && !ready_.empty()) {
      out[n++] = ready_.front();
      ready_.pop_front();
    }
    return n;
  }

  size_t pending() const { return ready_.size(); }

 private:
  std::deque<WorkCompletion> ready_;
};

// Transport types (paper §3 setup: RC for one-sided, UD for two-sided).
enum class QpType {
  kRc,  // reliable connection: READ/WRITE/SEND
  kUd,  // unreliable datagram: SEND only, cheaper state
};

// The usual verbs state ladder; posting requires kRts.
enum class QpState {
  kReset,
  kInit,
  kRtr,  // ready to receive
  kRts,  // ready to send
  kError,
};

struct QpConfig {
  QpType type = QpType::kRc;
  // Send-queue depth: posts beyond this many outstanding WRs are rejected
  // (ENOMEM in real verbs; callers must poll the CQ and retry).
  int max_send_wr = 256;
  // Generate a CQE for every WR even when posted unsignaled.
  bool signal_all = false;
  // Backoff before retrying a SEND that hit receiver-not-ready.
  SimTime rnr_backoff = FromMicros(10);
  // RNR retry budget: that many backoff retries, then the QP enters the
  // error state with a kRnrRetryExceeded completion. Negative = retry
  // forever (the pre-fault-layer behaviour).
  int rnr_retry_cnt = -1;

  // --- RC transport reliability (paper-scale go-back-N, §fault model) ---
  // When a response is outstanding longer than
  // transport_timeout << min(retries, backoff_shift_cap), the QP assumes
  // loss and retransmits this WR and everything after it (go-back-N).
  // 0 disables the reliability layer entirely: no timers are armed and the
  // QP behaves bit-identically to the pre-fault simulator.
  SimTime transport_timeout = 0;
  // Retransmission attempts before the QP gives up: the culprit WR
  // completes with kRetryExceeded, later WRs flush, state becomes kError.
  int retry_cnt = 7;
  // Exponential backoff cap: timeout doubles per retry up to this shift.
  int backoff_shift_cap = 6;
  // Fault domain ("host", "soc") whose crash windows kill this QP: when a
  // timeout fires inside a crash window of the domain, the QP drops to
  // kError and flushes instead of retransmitting into a dead endpoint.
  // Empty = not bound to any crash domain.
  std::string crash_domain;
};

// Point-in-time health of one QP, snapshotted for admission and routing
// decisions (the path-selection governor folds these into its per-path
// fault signal). Pure data: safe to copy out and compare across epochs.
struct QpHealth {
  QpState state = QpState::kRts;
  int outstanding = 0;
  uint64_t posted = 0;
  uint64_t completions = 0;
  uint64_t timeouts = 0;
  uint64_t retransmits = 0;
  uint64_t completion_errors = 0;

  // A QP that left kRts cannot carry new work until Recover().
  bool usable() const { return state == QpState::kRts; }

  // Fraction of delivered completions that were errors, in [0, 1].
  double ErrorRate() const {
    const uint64_t total = completions + completion_errors;
    return total == 0 ? 0.0
                      : static_cast<double>(completion_errors) / static_cast<double>(total);
  }

  // Transport retransmissions per posted WR (can exceed 1 under heavy loss).
  double RetransmitRate() const {
    return posted == 0 ? 0.0
                       : static_cast<double>(retransmits) / static_cast<double>(posted);
  }
};

// A verbs queue pair bound to one client thread and one remote region.
// Completion callbacks run when the CQE is visible to the polling thread.
class QueuePair {
 public:
  QueuePair(ClientMachine* machine, int thread, RemoteMemoryRegion mr,
            CompletionQueue* cq = nullptr, QpConfig config = QpConfig())
      : machine_(machine), thread_(thread), mr_(mr), cq_(cq), config_(config) {
    SNIC_CHECK(machine != nullptr);
  }

  // Per-op completion closure: move-only with a small-buffer fast path.
  using OpCallback = SmallFunction<void(SimTime completed)>;

  // State management (ibv_modify_qp): the ladder must be walked in order.
  // Freshly-constructed QPs start in kRts for convenience (the common case
  // in tests and benches); call Reset() to exercise the ladder.
  QpState state() const { return state_; }

  // To RESET: reliability-layer WRs still outstanding flush with kFlushed
  // completions (with the layer off there is nothing to recall, exactly as
  // before the fault model existed).
  void Reset() {
    FlushSendQueue(nullptr, WcStatus::kFlushed);
    state_ = QpState::kReset;
  }

  // The reconnect path workloads use for graceful degradation: from
  // kError (or kReset), flush leftovers and walk the ladder back to kRts.
  bool Recover() {
    if (state_ != QpState::kError && state_ != QpState::kReset) {
      return false;
    }
    FlushSendQueue(nullptr, WcStatus::kFlushed);
    state_ = QpState::kReset;
    Modify(QpState::kInit);
    Modify(QpState::kRtr);
    Modify(QpState::kRts);
    return true;
  }

  bool Modify(QpState next) {
    static constexpr QpState kLadder[] = {QpState::kReset, QpState::kInit, QpState::kRtr,
                                          QpState::kRts};
    for (size_t i = 0; i + 1 < std::size(kLadder); ++i) {
      if (state_ == kLadder[i] && next == kLadder[i + 1]) {
        state_ = next;
        return true;
      }
    }
    if (next == QpState::kError) {
      state_ = next;
      return true;
    }
    return false;
  }

  // Posts return false when the QP is not ready or the send queue is full.
  // `deadline` (absolute sim time, 0 = none) bounds the reliability layer:
  // a WR whose deadline has passed when its retransmit timer fires
  // completes as kDeadlineExceeded instead of requeueing.
  bool PostRead(uint64_t remote_addr, uint32_t len, uint64_t wr_id = 0,
                OpCallback cb = nullptr, bool signaled = true,
                SimTime deadline = 0) {
    SNIC_CHECK(config_.type == QpType::kRc);  // one-sided needs RC
    return PostOp(Verb::kRead, remote_addr, len, wr_id, std::move(cb), signaled,
                  /*rnr_attempts=*/0, deadline);
  }
  bool PostWrite(uint64_t remote_addr, uint32_t len, uint64_t wr_id = 0,
                 OpCallback cb = nullptr, bool signaled = true,
                 SimTime deadline = 0) {
    SNIC_CHECK(config_.type == QpType::kRc);
    return PostOp(Verb::kWrite, remote_addr, len, wr_id, std::move(cb), signaled,
                  /*rnr_attempts=*/0, deadline);
  }
  // Two-sided send into the responder's receive ring; the responder's
  // registered handler produces the reply. Works on RC and UD.
  bool PostSend(uint32_t len, uint64_t wr_id = 0, OpCallback cb = nullptr,
                bool signaled = true, SimTime deadline = 0) {
    return PostOp(Verb::kSend, mr_.addr, len, wr_id, std::move(cb), signaled,
                  /*rnr_attempts=*/0, deadline);
  }

  const RemoteMemoryRegion& remote() const { return mr_; }
  const QpConfig& config() const { return config_; }
  int thread() const { return thread_; }
  uint64_t posted() const { return posted_; }
  int outstanding() const { return outstanding_; }
  uint64_t rnr_retries() const { return rnr_retries_; }
  uint64_t timeouts() const { return timeouts_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t completions() const { return completions_; }
  uint64_t completion_errors() const { return completion_errors_; }
  uint64_t deadline_exceeded() const { return deadline_exceeded_; }

  // Coherent snapshot of the counters above (one call, no torn reads
  // across event boundaries).
  QpHealth health() const {
    QpHealth h;
    h.state = state_;
    h.outstanding = outstanding_;
    h.posted = posted_;
    h.completions = completions_;
    h.timeouts = timeouts_;
    h.retransmits = retransmits_;
    h.completion_errors = completion_errors_;
    return h;
  }

 private:
  // One reliability-layer WR: identity plus retry state. `epoch` cancels
  // superseded timers — every retransmission round and every completion
  // bumps it, so a stale timer finds a mismatched epoch and dies.
  struct PendingWr {
    Verb verb = Verb::kRead;
    uint64_t addr = 0;
    uint32_t len = 0;
    uint64_t wr_id = 0;
    bool signaled = true;
    OpCallback cb;
    int retries = 0;
    uint64_t epoch = 0;
    bool done = false;
    SimTime deadline = 0;  // absolute; 0 = unbounded
    // Wheel handle of the pending retransmit timer (kNoTimer when none).
    // Lets completions and go-back-N re-arms reclaim the timer in O(1)
    // instead of leaving a stale one to no-op at full timeout depth.
    TimerWheel::TimerId timer = TimerWheel::kNoTimer;
  };

  bool reliable() const { return config_.transport_timeout > 0; }

  bool PostOp(Verb verb, uint64_t remote_addr, uint32_t len, uint64_t wr_id,
              OpCallback cb, bool signaled, int rnr_attempts = 0,
              SimTime deadline = 0) {
    if (state_ != QpState::kRts) {
      return false;
    }
    if (outstanding_ >= config_.max_send_wr) {
      return false;  // send queue full: poll the CQ and retry
    }
    SNIC_CHECK(mr_.Contains(remote_addr, len == 0 ? 1 : len));
    // Receiver-not-ready: the responder ring is dry; retry after backoff
    // until the configured budget runs out (negative budget = forever).
    if (verb == Verb::kSend && mr_.recv != nullptr && !mr_.recv->Consume()) {
      if (config_.rnr_retry_cnt >= 0 && rnr_attempts >= config_.rnr_retry_cnt) {
        RnrExhausted(verb, len, wr_id, std::move(cb));
        return true;
      }
      ++rnr_retries_;
      Simulator* sim = machine_->sim();
      ++outstanding_;
      sim->In(config_.rnr_backoff,
              [this, verb, remote_addr, len, wr_id, cb = std::move(cb), signaled,
               rnr_attempts, deadline]() mutable {
        --outstanding_;
        PostOp(verb, remote_addr, len, wr_id, std::move(cb), signaled,
               rnr_attempts + 1, deadline);
      });
      return true;
    }
    ++posted_;
    ++outstanding_;
    if (reliable()) {
      auto wr = std::make_shared<PendingWr>();
      wr->verb = verb;
      wr->addr = remote_addr;
      wr->len = len;
      wr->wr_id = wr_id;
      wr->signaled = signaled;
      wr->cb = std::move(cb);
      wr->deadline = deadline;
      sq_.push_back(wr);
      Transmit(wr, /*first=*/true);
      return true;
    }
    machine_->Post(thread_, Target(verb, len), remote_addr,
                   [this, verb, len, wr_id, signaled,
                    cb = std::move(cb)](SimTime completed) {
                     --outstanding_;
                     if (cq_ != nullptr && (signaled || config_.signal_all)) {
                       cq_->Push(WorkCompletion{verb, wr_id, len, completed});
                     }
                     if (cb) {
                       cb(completed);
                     }
                   });
    return true;
  }

  TargetSpec Target(Verb verb, uint32_t len) const {
    TargetSpec target;
    target.engine = mr_.engine;
    target.endpoint = mr_.endpoint;
    target.server_port = mr_.server_port;
    target.verb = verb;
    target.payload = len;
    return target;
  }

  // First transmission pays the full post path (WQE build + doorbell);
  // retransmissions replay the WQE from the NIC without re-involving the
  // CPU, like hardware RC retransmission. A retransmitted SEND does not
  // re-consume a receive: the responder replays delivery into the slot the
  // original consume reserved.
  void Transmit(const std::shared_ptr<PendingWr>& wr, bool first) {
    auto on_complete = [this, wr](SimTime completed) { OnResponse(wr, completed); };
    if (first) {
      machine_->Post(thread_, Target(wr->verb, wr->len), wr->addr,
                     std::move(on_complete));
    } else {
      ++retransmits_;
      machine_->Launch(Target(wr->verb, wr->len), wr->addr, std::move(on_complete));
    }
    ArmTimer(wr);
  }

  void ArmTimer(const std::shared_ptr<PendingWr>& wr) {
    const uint64_t epoch = wr->epoch;
    const int shift = std::min(wr->retries, config_.backoff_shift_cap);
    const SimTime timeout = config_.transport_timeout << shift;
    auto fire = [this, wr, epoch] {
      if (wr->done || wr->epoch != epoch) {
        return;  // completed, flushed, or superseded by a newer round
      }
      if (state_ != QpState::kRts) {
        // The QP left kRts (crash, flap escalation, external Modify) after
        // this timer was armed but the WR was not flushed with it. Without
        // this gate the timer would keep firing, retransmitting into a dead
        // QP and re-arming itself forever.
        return;
      }
      OnTimeout(wr);
    };
    // Retransmit timers are the wheel's home case: nearly all of them are
    // superseded by a completion, so CancelTimer reclaims them without a
    // queue op. The epoch guard above stays as belt-and-braces.
    wr->timer = machine_->sim()->timers().In(timeout, std::move(fire));
  }

  void CancelTimer(const std::shared_ptr<PendingWr>& wr) {
    if (wr->timer == TimerWheel::kNoTimer) {
      return;
    }
    machine_->sim()->timers().Cancel(wr->timer);  // stale-id no-op if it already fired
    wr->timer = TimerWheel::kNoTimer;
  }

  void OnTimeout(const std::shared_ptr<PendingWr>& wr) {
    wr->timer = TimerWheel::kNoTimer;  // it just fired
    ++timeouts_;
    Simulator* const sim = machine_->sim();
    if (Tracer* const tr = sim->tracer(); tr != nullptr) {
      tr->Instant(machine_->name() + ".qp", "timeout", sim->now(), wr->wr_id);
    }
    // A timeout inside the bound domain's crash window means the endpoint is
    // gone, not the frame: retransmitting is pointless. The QP drops to
    // kError and every in-flight WR flushes; Recover() reconnects after the
    // restart.
    if (!config_.crash_domain.empty() && sim->faults() != nullptr &&
        sim->faults()->CrashedAt(config_.crash_domain, sim->now())) {
      state_ = QpState::kError;
      FlushSendQueue(nullptr, WcStatus::kFlushed);
      return;
    }
    // Deadline budget: an expired WR completes now as kDeadlineExceeded
    // instead of burning more retransmissions. Only this WR dies — the QP
    // stays in kRts and later WRs keep their own timers.
    if (wr->deadline > 0 && sim->now() >= wr->deadline) {
      wr->done = true;
      ++wr->epoch;
      --outstanding_;
      ++completion_errors_;
      ++deadline_exceeded_;
      if (cq_ != nullptr) {
        cq_->Push(WorkCompletion{wr->verb, wr->wr_id, wr->len, sim->now(),
                                 WcStatus::kDeadlineExceeded});
      }
      if (wr->cb) {
        wr->cb(sim->now());
      }
      while (!sq_.empty() && sq_.front()->done) {
        sq_.pop_front();
      }
      return;
    }
    if (wr->retries >= config_.retry_cnt) {
      state_ = QpState::kError;
      FlushSendQueue(wr.get(), WcStatus::kRetryExceeded);
      return;
    }
    // Go-back-N: this WR and every later outstanding WR retransmit. A
    // response from an earlier transmission that was merely slow (not lost)
    // still wins through the done flag; the duplicate is then ignored.
    bool from_here = false;
    for (const auto& p : sq_) {
      if (p == wr) {
        from_here = true;
      }
      if (!from_here || p->done) {
        continue;
      }
      ++p->epoch;
      ++p->retries;
      CancelTimer(p);  // a later WR's pending timer is superseded by this round
      Transmit(p, /*first=*/false);
    }
  }

  void OnResponse(const std::shared_ptr<PendingWr>& wr, SimTime completed) {
    if (wr->done) {
      return;  // duplicate delivery from a superseded transmission, or flushed
    }
    wr->done = true;
    ++wr->epoch;
    CancelTimer(wr);
    --outstanding_;
    ++completions_;
    if (cq_ != nullptr && (wr->signaled || config_.signal_all)) {
      cq_->Push(WorkCompletion{wr->verb, wr->wr_id, wr->len, completed,
                               WcStatus::kSuccess});
    }
    if (wr->cb) {
      wr->cb(completed);
    }
    while (!sq_.empty() && sq_.front()->done) {
      sq_.pop_front();
    }
  }

  // Completes every outstanding reliability-layer WR in error: `culprit`
  // (may be null) gets `culprit_status`, the rest flush. Error completions
  // are always delivered to the CQ, signaled or not, like real verbs.
  void FlushSendQueue(const PendingWr* culprit, WcStatus culprit_status) {
    const SimTime now = machine_->sim()->now();
    std::deque<std::shared_ptr<PendingWr>> sq;
    sq.swap(sq_);  // swap first: a callback may post on a recovered QP
    for (const auto& p : sq) {
      if (p->done) {
        continue;
      }
      p->done = true;
      ++p->epoch;
      CancelTimer(p);
      --outstanding_;
      ++completion_errors_;
      const WcStatus st = p.get() == culprit ? culprit_status : WcStatus::kFlushed;
      if (cq_ != nullptr) {
        cq_->Push(WorkCompletion{p->verb, p->wr_id, p->len, now, st});
      }
      if (p->cb) {
        p->cb(now);
      }
    }
  }

  void RnrExhausted(Verb verb, uint32_t len, uint64_t wr_id, OpCallback cb) {
    const SimTime now = machine_->sim()->now();
    state_ = QpState::kError;
    ++completion_errors_;
    if (cq_ != nullptr) {
      cq_->Push(WorkCompletion{verb, wr_id, len, now, WcStatus::kRnrRetryExceeded});
    }
    if (cb) {
      cb(now);
    }
    FlushSendQueue(nullptr, WcStatus::kFlushed);
  }

  ClientMachine* machine_;
  int thread_;
  RemoteMemoryRegion mr_;
  CompletionQueue* cq_;
  QpConfig config_;
  QpState state_ = QpState::kRts;
  std::deque<std::shared_ptr<PendingWr>> sq_;  // reliability-layer WRs only
  uint64_t posted_ = 0;
  int outstanding_ = 0;
  uint64_t rnr_retries_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t completions_ = 0;
  uint64_t completion_errors_ = 0;
  uint64_t deadline_exceeded_ = 0;
};

}  // namespace rdma
}  // namespace snicsim

#endif  // SRC_RDMA_VERBS_H_

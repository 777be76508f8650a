// A small ibverbs-flavored API over the simulator.
//
// This is the surface downstream code programs against (examples/, the KV
// store): remote memory regions, queue pairs bound to a client thread, and
// completion queues. Underneath, posts travel the full simulated path —
// doorbell MMIO, client NIC, fabric, responder NIC front end, PU, DMA — so
// application-level experiments inherit every anomaly the paper documents.
#ifndef SRC_RDMA_VERBS_H_
#define SRC_RDMA_VERBS_H_

#include <cstdint>
#include <deque>
#include <iterator>
#include <utility>

#include "src/common/log.h"
#include "src/nic/engine.h"
#include "src/nic/verb.h"
#include "src/rdma/recv_queue.h"
#include "src/sim/simulator.h"
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

// Transport reliability is not configured here: a QP on a machine whose
// simulation carries a fault injector posts through the machine's
// retransmission engine (ClientMachine::PostReliable), whose timeout and
// retry budget are set in ClientParams.
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
};

// Point-in-time health of one QP, snapshotted for admission and routing
// decisions (the path-selection governor folds these into its per-path
// fault signal). Pure data: safe to copy out and compare across epochs.
struct QpHealth {
  QpState state = QpState::kRts;
  int outstanding = 0;
  uint64_t posted = 0;
  uint64_t completions = 0;
  uint64_t completion_errors = 0;

  // A QP that left kRts cannot carry new work until Recover().
  bool usable() const { return state == QpState::kRts; }

  // Fraction of delivered completions that were errors, in [0, 1].
  double ErrorRate() const {
    const uint64_t total = completions + completion_errors;
    return total == 0 ? 0.0
                      : static_cast<double>(completion_errors) / static_cast<double>(total);
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
  // in tests and benches); call Reset() to exercise the ladder. WRs already
  // posted are not recalled by any transition: each still completes once.
  QpState state() const { return state_; }

  void Reset() { state_ = QpState::kReset; }

  // The reconnect path workloads use for graceful degradation: from
  // kError (or kReset), walk the ladder back to kRts.
  bool Recover() {
    if (state_ != QpState::kError && state_ != QpState::kReset) {
      return false;
    }
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
  // `deadline` (absolute sim time, 0 = none) bounds the machine's
  // retransmission engine: a WR whose deadline has passed when its
  // retransmit timer fires completes as kDeadlineExceeded instead of
  // retransmitting again.
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
  uint64_t completions() const { return completions_; }
  uint64_t completion_errors() const { return completion_errors_; }

  // Coherent snapshot of the counters above (one call, no torn reads
  // across event boundaries).
  QpHealth health() const {
    QpHealth h;
    h.state = state_;
    h.outstanding = outstanding_;
    h.posted = posted_;
    h.completions = completions_;
    h.completion_errors = completion_errors_;
    return h;
  }

 private:
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
        state_ = QpState::kError;
        Deliver(verb, len, wr_id, signaled, machine_->sim()->now(),
                WcStatus::kRnrRetryExceeded, cb);
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
    if (machine_->Reliable()) {
      // A retransmitted SEND does not re-consume a receive: the responder
      // replays delivery into the slot the original consume reserved.
      machine_->PostReliable(
          thread_, Target(verb, len), remote_addr,
          [this, verb, len, wr_id, signaled, deadline,
           cb = std::move(cb)](SimTime completed, bool ok) {
            --outstanding_;
            WcStatus status = WcStatus::kSuccess;
            if (!ok) {
              status = deadline > 0 && completed >= deadline ? WcStatus::kDeadlineExceeded
                                                             : WcStatus::kRetryExceeded;
            }
            Deliver(verb, len, wr_id, signaled, completed, status, cb);
          },
          deadline);
      return true;
    }
    machine_->Post(thread_, Target(verb, len), remote_addr,
                   [this, verb, len, wr_id, signaled,
                    cb = std::move(cb)](SimTime completed) {
                     --outstanding_;
                     Deliver(verb, len, wr_id, signaled, completed, WcStatus::kSuccess, cb);
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

  // Every WR ends here exactly once. Error completions reach the CQ
  // signaled or not, like real verbs.
  void Deliver(Verb verb, uint32_t len, uint64_t wr_id, bool signaled, SimTime completed,
               WcStatus status, const OpCallback& cb) {
    const bool ok = status == WcStatus::kSuccess;
    if (ok) {
      ++completions_;
    } else {
      ++completion_errors_;
    }
    if (cq_ != nullptr && (!ok || signaled || config_.signal_all)) {
      cq_->Push(WorkCompletion{verb, wr_id, len, completed, status});
    }
    if (cb) {
      cb(completed);
    }
  }

  ClientMachine* machine_;
  int thread_;
  RemoteMemoryRegion mr_;
  CompletionQueue* cq_;
  QpConfig config_;
  QpState state_ = QpState::kRts;
  uint64_t posted_ = 0;
  int outstanding_ = 0;
  uint64_t rnr_retries_ = 0;
  uint64_t completions_ = 0;
  uint64_t completion_errors_ = 0;
};

}  // namespace rdma
}  // namespace snicsim

#endif  // SRC_RDMA_VERBS_H_

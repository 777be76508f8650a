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
#include <utility>

#include "src/common/log.h"
#include "src/nic/engine.h"
#include "src/nic/verb.h"
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
  kDeadlineExceeded,  // deadline passed at retransmit time; WR abandoned
};

constexpr const char* WcStatusName(WcStatus s) {
  switch (s) {
    case WcStatus::kSuccess:
      return "success";
    case WcStatus::kRetryExceeded:
      return "retry_exceeded";
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

// Transport reliability is not configured here: a QP posts through
// ClientMachine::Post, which arms the machine's retransmission engine when
// its simulation carries a fault injector; the timeout and retry budget
// are set in ClientParams.
struct QpConfig {
  QpType type = QpType::kRc;
  // Send-queue depth: posts beyond this many outstanding WRs are rejected
  // (ENOMEM in real verbs; callers must poll the CQ and retry).
  int max_send_wr = 256;
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

  // Posts return false when the send queue is full. `deadline` (absolute
  // sim time, 0 = none) bounds the machine's retransmission engine: a WR
  // whose deadline has passed when its retransmit timer fires completes as
  // kDeadlineExceeded instead of retransmitting again.
  bool PostRead(uint64_t remote_addr, uint32_t len, uint64_t wr_id = 0,
                OpCallback cb = nullptr, bool signaled = true,
                SimTime deadline = 0) {
    SNIC_CHECK(config_.type == QpType::kRc);  // one-sided needs RC
    return PostOp(Verb::kRead, remote_addr, len, wr_id, std::move(cb), signaled,
                  deadline);
  }
  bool PostWrite(uint64_t remote_addr, uint32_t len, uint64_t wr_id = 0,
                 OpCallback cb = nullptr, bool signaled = true,
                 SimTime deadline = 0) {
    SNIC_CHECK(config_.type == QpType::kRc);
    return PostOp(Verb::kWrite, remote_addr, len, wr_id, std::move(cb), signaled,
                  deadline);
  }
  // Two-sided send into the responder's pre-posted receive ring, which is
  // always replenished (the paper's tuned echo servers); the responder's
  // registered handler produces the reply. Works on RC and UD.
  bool PostSend(uint32_t len, uint64_t wr_id = 0, OpCallback cb = nullptr,
                bool signaled = true, SimTime deadline = 0) {
    return PostOp(Verb::kSend, mr_.addr, len, wr_id, std::move(cb), signaled,
                  deadline);
  }

  const RemoteMemoryRegion& remote() const { return mr_; }
  const QpConfig& config() const { return config_; }
  int thread() const { return thread_; }
  uint64_t posted() const { return posted_; }
  int outstanding() const { return outstanding_; }
  uint64_t completions() const { return completions_; }
  uint64_t completion_errors() const { return completion_errors_; }

 private:
  bool PostOp(Verb verb, uint64_t remote_addr, uint32_t len, uint64_t wr_id,
              OpCallback cb, bool signaled, SimTime deadline) {
    if (outstanding_ >= config_.max_send_wr) {
      return false;  // send queue full: poll the CQ and retry
    }
    SNIC_CHECK(mr_.Contains(remote_addr, len == 0 ? 1 : len));
    ++posted_;
    ++outstanding_;
    machine_->Post(
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
    if (cq_ != nullptr && (!ok || signaled)) {
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
  uint64_t posted_ = 0;
  int outstanding_ = 0;
  uint64_t completions_ = 0;
  uint64_t completion_errors_ = 0;
};

}  // namespace rdma
}  // namespace snicsim

#endif  // SRC_RDMA_VERBS_H_

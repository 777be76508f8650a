// The NIC engine: packet front end + processing-unit contexts + per-endpoint
// DMA, executing the paper's Figure 3 flows.
//
// Remote (network) requests:
//   READ : request frame → front end → PU → DMA read at endpoint →
//          response frames (PU stalls for the whole PCIe round trip — the
//          mechanism behind SNIC ①'s small-request throughput loss, §3.1).
//   WRITE: payload frames → front end → PU → posted DMA write → ack as soon
//          as the burst is accepted (no completion wait, Fig. 3).
//   SEND : like WRITE into the endpoint's receive ring, then the endpoint
//          CPU (host or wimpy SoC) takes over via the registered handler.
//
// Local requests (path ③, host↔SoC) skip the wire but pay the doorbell,
// WQE fetch, and double PCIe1 crossing; see ExecuteLocalOp.
#ifndef SRC_NIC_ENGINE_H_
#define SRC_NIC_ENGINE_H_

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/mem/memory.h"
#include "src/nic/endpoint.h"
#include "src/nic/frontend.h"
#include "src/nic/params.h"
#include "src/nic/verb.h"
#include "src/pcie/path.h"
#include "src/sim/callback.h"
#include "src/sim/pool.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace snicsim {

// Invoked when the last response frame reaches the far end of the response
// path (i.e. the requester's NIC). Per-request closure: move-only with a
// small-buffer fast path (see src/sim/callback.h).
using ResponseCallback = SmallFunction<void(SimTime delivered)>;

// The per-request reply handle handed to a SendHandler: call
// `reply(ready_time, reply_len)` to emit the response, or `reply.Discard()`
// when the request ends without one (a crashed server). Exactly one of the
// two, exactly once. The handle is two pointers — the sink that owns the
// request's record (the NicEngine) and the record — so closures that carry
// it stay inside SmallFunction's inline buffer. Destroying a handle does
// nothing; a default-constructed handle ignores both calls.
class ReplyCallback {
 public:
  // Receives the outcome of each request it handed out a handle for.
  class Sink {
   public:
    virtual void Reply(void* req, SimTime ready, uint32_t reply_len) = 0;
    virtual void DropReply(void* req) = 0;

   protected:
    ~Sink() = default;
  };

  ReplyCallback() = default;
  ReplyCallback(Sink* sink, void* req) : sink_(sink), req_(req) {}

  void operator()(SimTime ready, uint32_t reply_len) const {
    if (sink_ != nullptr) {
      sink_->Reply(req_, ready, reply_len);
    }
  }
  void Discard() const {
    if (sink_ != nullptr) {
      sink_->DropReply(req_);
    }
  }

 private:
  Sink* sink_ = nullptr;
  void* req_ = nullptr;
};

// Two-sided delivery: the endpoint CPU receives `len` bytes and must
// eventually invoke the reply closure. `hdr` is the request's 64-bit
// application header — the addr field of the originating post, delivered
// untouched like a SEND-with-immediate — so a serving layer can thread the
// key/opcode of each message to the executing CPU without a side channel.
// The handler itself is registered once and invoked many times, so plain
// std::function is fine here.
using SendHandler = std::function<void(uint64_t hdr, uint32_t len, ReplyCallback reply)>;

class NicEngine : private ReplyCallback::Sink {
 public:
  NicEngine(Simulator* sim, NicParams params);

  NicEngine(const NicEngine&) = delete;
  NicEngine& operator=(const NicEngine&) = delete;

  // Registers a PCIe endpoint reachable from the NIC cores.
  NicEndpoint* AddEndpoint(const EndpointParams& ep, PciePath nic_to_mem,
                           MemorySubsystem* memory);

  // Registers the CPU-side consumer of SENDs targeting `ep`.
  void SetSendHandler(NicEndpoint* ep, SendHandler handler);

  // Handles a remote request whose last frame arrived now. `fe_units` is the
  // inbound pipeline work (≈ number of frames). The response (READ data, or
  // a small ack/CQE-generating packet for WRITE/SEND) is pushed along
  // `response_path` segmented at the network MTU.
  // `req_id` threads the originating request through to trace spans.
  void HandleRequest(NicEndpoint* ep, Verb verb, uint64_t addr, uint32_t len,
                     double fe_units, PciePath response_path, ResponseCallback done,
                     uint64_t req_id = 0);

  // Path ③: an op posted by the CPU of `src` targeting the memory of `dst`
  // on the same SmartNIC. Assumes doorbell/WQE-fetch costs were already paid
  // by the requester model; `done` fires when the CQE write has been posted
  // into `src`'s memory.
  void ExecuteLocalOp(NicEndpoint* src, NicEndpoint* dst, Verb verb, uint64_t addr,
                      uint32_t len, SmallFunction<void(SimTime)> done,
                      uint64_t req_id = 0);

  // Fetches `count` WQEs (doorbell-batching DMA) from `src` memory; `cb`
  // fires when they are inside the NIC.
  void FetchWqes(NicEndpoint* src, uint64_t addr, int count, DmaCallback cb,
                 uint64_t req_id = 0);

  const NicParams& params() const { return params_; }
  FrontEnd& frontend() { return frontend_; }
  TokenPool& processing_units() { return pus_; }

  // Grants a processing-unit context for work on `ep` — a dedicated
  // per-endpoint context when one is free, else a shared one (queueing if
  // exhausted). `granted` runs once the context is held; the return value
  // is the pool to Release() it back to.
  template <typename F>
  TokenPool* AcquirePu(NicEndpoint* ep, F&& granted) {
    if (TokenPool* const pu = TryAcquirePu(ep); pu != nullptr) {
      sim_->In(0, std::forward<F>(granted));
      return pu;
    }
    pus_.Acquire(std::forward<F>(granted));  // no context is free: waits
    return &pus_;
  }
  Simulator* sim() const { return sim_; }
  const std::vector<std::unique_ptr<NicEndpoint>>& endpoints() const { return endpoints_; }

  uint64_t requests_served() const { return requests_served_; }

  // Exposes engine + per-endpoint counters under "<name>" / endpoint names.
  void RegisterMetrics(MetricsRegistry* reg);

  // Per-request records currently in flight: remote requests, path-③ ops,
  // WQE fetches and every endpoint's DMA ops. Zero once a run has drained,
  // dropped requests included.
  size_t live_records() const;

 private:
  // One remote request from HandleRequest to its response's delivery. The
  // stage closures of the Fig. 3 flow capture only (this, record).
  struct Remote {
    NicEndpoint* ep = nullptr;
    Verb verb = Verb::kRead;
    uint32_t len = 0;
    uint32_t reply_len = 0;
    uint64_t addr = 0;
    uint64_t req_id = 0;
    TokenPool* pu = nullptr;  // the processing-unit pool to release into
    PciePath response_path;
    ResponseCallback done;
  };

  // One path-③ op (ExecuteLocalOp) or WQE-chain fetch (FetchWqes).
  struct Local {
    NicEndpoint* src = nullptr;
    NicEndpoint* dst = nullptr;
    Verb verb = Verb::kRead;
    uint32_t len = 0;
    uint64_t addr = 0;
    uint64_t cqe_addr = 0;
    uint64_t req_id = 0;
    SimTime visible = 0;  // CQE visibility after a requester stall
    TokenPool* pu = nullptr;
    SmallFunction<void(SimTime)> done;
  };

  // Takes a free processing-unit context for `ep` (dedicated first), or
  // returns nullptr.
  TokenPool* TryAcquirePu(NicEndpoint* ep) {
    std::optional<TokenPool>& dedicated = dedicated_pus_[static_cast<size_t>(ep->fe_id)];
    if (dedicated.has_value() && dedicated->TryAcquire()) {
      return &*dedicated;
    }
    return pus_.TryAcquire() ? &pus_ : nullptr;
  }
  // The last act of a parse event: grants `rec` a context and runs `serve`
  // with it held. With nothing else due now, a free context's grant runs in
  // place instead of through In(0) (DESIGN.md §8). `rec->pu` is stored
  // before `serve` runs, since `serve` releases into it.
  template <typename Rec, typename F>
  void ServeWithPu(NicEndpoint* ep, Rec* rec, F&& serve) {
    if (sim_->NothingDueNow()) {
      if (TokenPool* const pu = TryAcquirePu(ep); pu != nullptr) {
        rec->pu = pu;
        serve();
        return;
      }
    }
    rec->pu = AcquirePu(ep, std::forward<F>(serve));
  }

  // ServeRemote and ServeLocal always run as the whole body of a PU grant,
  // so the DMA each one issues last is the tail of its event.
  void ServeRemote(Remote* rq);
  void SendResponse(Remote* rq, uint64_t bytes, SimTime ready);
  void FinishRemote(Remote* rq);
  // ReplyCallback::Sink, for the SEND handler of a Remote.
  void Reply(void* req, SimTime ready, uint32_t reply_len) override;
  void DropReply(void* req) override;
  void ServeLocal(Local* op);
  // The CQE is in the requester's memory at `posted`; completes the op once
  // the requester can see it (after any stall window on its CPU).
  void CompleteLocal(Local* op, SimTime posted);
  void FinishLocal(Local* op, SimTime t);
  void ReleaseAt(TokenPool* pu, SimTime t) {
    sim_->At(t, [pu] { pu->Release(); });
  }

  Simulator* sim_;
  NicParams params_;
  FrontEnd frontend_;
  TokenPool pus_;
  std::vector<std::unique_ptr<NicEndpoint>> endpoints_;
  // Indexed by fe_id; unset when the NIC reserves no per-endpoint contexts.
  std::array<std::optional<TokenPool>, FrontEnd::kMaxEndpoints> dedicated_pus_;
  std::vector<SendHandler> send_handlers_;
  SlabPool<Remote> remotes_;
  SlabPool<Local> locals_;
  uint64_t requests_served_ = 0;
  uint64_t cqe_seq_ = 0;
};

}  // namespace snicsim

#endif  // SRC_NIC_ENGINE_H_

#include "src/nic/engine.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/fault/injector.h"
#include "src/obs/trace.h"
#include "src/pcie/tlp.h"

namespace snicsim {

NicEngine::NicEngine(Simulator* sim, NicParams params)
    : sim_(sim),
      params_(std::move(params)),
      frontend_(sim, params_.shared_pipeline, params_.dedicated_pipeline),
      pus_(sim, params_.pu_count) {
  endpoints_.reserve(FrontEnd::kMaxEndpoints);
  send_handlers_.reserve(FrontEnd::kMaxEndpoints);
}

NicEndpoint* NicEngine::AddEndpoint(const EndpointParams& ep, PciePath nic_to_mem,
                                    MemorySubsystem* memory) {
  const int fe_id = frontend_.AddEndpoint();
  endpoints_.push_back(
      std::make_unique<NicEndpoint>(sim_, params_, ep, std::move(nic_to_mem), memory));
  endpoints_.back()->fe_id = fe_id;
  if (params_.pu_dedicated > 0) {
    dedicated_pus_[static_cast<size_t>(fe_id)].emplace(sim_, params_.pu_dedicated);
  }
  send_handlers_.emplace_back();
  return endpoints_.back().get();
}

void NicEngine::SetSendHandler(NicEndpoint* ep, SendHandler handler) {
  SNIC_CHECK_GE(ep->fe_id, 0);
  SNIC_CHECK_LT(static_cast<size_t>(ep->fe_id), send_handlers_.size());
  send_handlers_[static_cast<size_t>(ep->fe_id)] = std::move(handler);
}

void NicEngine::SendResponse(Remote* rq, uint64_t bytes, SimTime ready) {
  // The first response frame's pipeline slot is accounted in the request's
  // fe_units; only additional frames of a multi-frame response cost extra.
  const uint64_t frames = bytes == 0 ? 1 : CeilDiv(bytes, params_.network_mtu);
  SimTime t = ready;
  if (frames > 1) {
    t = frontend_.Process(ready, rq->ep->fe_id, static_cast<double>(frames - 1));
    if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
      tr->Span(params_.name + ".fe", "respond", ready, t, rq->req_id);
    }
  }
  // A response lost on the wire ends the request here: the requester
  // learns of it only through its own timeout.
  auto delivered = WithDiscard([this, rq] { FinishRemote(rq); },
                               [this, rq] {
                                 rq->done.Discard();
                                 remotes_.Free(rq);
                               });
  if (bytes == 0) {
    rq->response_path.TransferControlAt(sim_, t, std::move(delivered), rq->req_id);
  } else {
    rq->response_path.TransferAt(sim_, t, bytes, params_.network_mtu, std::move(delivered),
                                 rq->req_id);
  }
}

void NicEngine::FinishRemote(Remote* rq) {
  rq->done.CallOnce(sim_->now());
  remotes_.Free(rq);
}

void NicEngine::HandleRequest(NicEndpoint* ep, Verb verb, uint64_t addr, uint32_t len,
                              double fe_units, PciePath response_path,
                              ResponseCallback done, uint64_t req_id) {
  ++requests_served_;
  const SimTime parsed = frontend_.Process(sim_->now(), ep->fe_id, fe_units);
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    tr->Span(params_.name + ".fe", "parse", sim_->now(), parsed, req_id);
  }
  Remote* rq = remotes_.Alloc();
  rq->ep = ep;
  rq->verb = verb;
  rq->addr = addr;
  rq->len = len;
  rq->req_id = req_id;
  rq->response_path = response_path;
  rq->done = std::move(done);
  sim_->At(parsed, [this, rq] { ServeWithPu(rq->ep, rq, [this, rq] { ServeRemote(rq); }); });
}

// Runs with a processing-unit context held. Anything that may end the
// record (SendResponse can drop it, a handler can reply or discard at once)
// comes last, after every read of it.
void NicEngine::ServeRemote(Remote* rq) {
  NicEndpoint* const ep = rq->ep;
  TokenPool* const pu = rq->pu;
  switch (rq->verb) {
    case Verb::kRead: {
      if (rq->len == 0) {
        // Zero-byte ops never reach PCIe (paper §4's microbenchmark).
        SendResponse(rq, 0, sim_->now());
        pu->Release();
        return;
      }
      ep->DmaRead(rq->addr, rq->len, [this, rq](SimTime data_at_nic) {
        TokenPool* const held = rq->pu;
        SendResponse(rq, rq->len, data_at_nic);
        ReleaseAt(held, data_at_nic + params_.read_pipeline_overhead);
      }, rq->req_id, /*tail=*/true);
      return;
    }
    case Verb::kWrite: {
      if (rq->len == 0) {
        SendResponse(rq, 0, sim_->now());
        pu->Release();
        return;
      }
      ep->DmaWrite(rq->addr, rq->len, [this, rq](SimTime posted) {
        // The ack departs as soon as the burst is accepted; the write
        // commits to memory asynchronously (Fig. 3).
        TokenPool* const held = rq->pu;
        SendResponse(rq, 0, posted);
        ReleaseAt(held, posted + params_.write_pipeline_overhead);
      }, /*single_descriptor=*/false, rq->req_id, /*tail=*/true);
      return;
    }
    case Verb::kSend: {
      // Deliver payload + CQE into the receive ring, then hand off to
      // the endpoint CPU.
      const uint64_t ring_bytes = static_cast<uint64_t>(rq->len) + params_.cqe_bytes;
      ep->DmaWrite(rq->addr, ring_bytes, [this, rq](SimTime posted) {
        ReleaseAt(rq->pu, posted + params_.write_pipeline_overhead);
        SendHandler& handler = send_handlers_[static_cast<size_t>(rq->ep->fe_id)];
        SNIC_CHECK(handler != nullptr);
        handler(rq->addr, rq->len, ReplyCallback(this, rq));
      }, /*single_descriptor=*/false, rq->req_id, /*tail=*/true);
      return;
    }
  }
}

void NicEngine::Reply(void* req, SimTime ready, uint32_t reply_len) {
  Remote* const rq = static_cast<Remote*>(req);
  const SimTime t = frontend_.Process(ready, rq->ep->fe_id, 1.0);
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    tr->Span(params_.name + ".fe", "reply_post", ready, t, rq->req_id);
  }
  rq->reply_len = std::max<uint32_t>(reply_len, 1);
  if (reply_len <= params_.max_inline_bytes) {
    // Small replies are posted inline: the CPU pushed WQE + data through
    // the doorbell MMIO (cost already in the handler's per-message
    // service), so no gather DMA is needed.
    sim_->At(t, [this, rq] { SendResponse(rq, rq->reply_len, sim_->now()); });
    return;
  }
  // Larger replies fetch their payload from the endpoint memory (WQE +
  // data gather) before hitting the wire.
  sim_->At(t, [this, rq, reply_len] {
    rq->ep->DmaRead(0x7ef0'0000 + params_.wqe_bytes, reply_len + params_.wqe_bytes,
                    [this, rq](SimTime data) { SendResponse(rq, rq->reply_len, data); },
                    rq->req_id);
  });
}

void NicEngine::DropReply(void* req) {
  Remote* const rq = static_cast<Remote*>(req);
  rq->done.Discard();
  remotes_.Free(rq);
}

void NicEngine::FetchWqes(NicEndpoint* src, uint64_t addr, int count, DmaCallback cb,
                          uint64_t req_id) {
  SNIC_CHECK_GT(count, 0);
  // The chain fetch is a real engine job: it occupies a processing-unit
  // context for the DMA round trip against the requester's memory. On the
  // host side of path ③ this is what makes small-batch doorbell batching a
  // net loss (paper Fig. 10(b)): the fetch steals PU time that BlueFlame
  // posts (WQE pushed with the doorbell) do not.
  Local* op = locals_.Alloc();
  op->src = src;
  op->addr = addr;
  op->len = static_cast<uint32_t>(static_cast<uint64_t>(count) * params_.wqe_bytes);
  op->req_id = req_id;
  op->done = std::move(cb);
  op->pu = AcquirePu(src, [this, op] {
    op->src->DmaRead(op->addr, op->len, [this, op](SimTime done) {
      TokenPool* const held = op->pu;
      FinishLocal(op, done);
      ReleaseAt(held, done + params_.read_pipeline_overhead);
    }, op->req_id);
  });
}

void NicEngine::ExecuteLocalOp(NicEndpoint* src, NicEndpoint* dst, Verb verb, uint64_t addr,
                               uint32_t len, SmallFunction<void(SimTime)> done,
                               uint64_t req_id) {
  ++requests_served_;
  const double units =
      static_cast<double>(std::max<uint64_t>(1, CeilDiv(len, params_.max_read_request)));
  const SimTime parsed = frontend_.Process(sim_->now(), dst->fe_id, units);
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    tr->Span(params_.name + ".fe", "parse", sim_->now(), parsed, req_id);
  }
  Local* op = locals_.Alloc();
  op->src = src;
  op->dst = dst;
  op->verb = verb;
  op->addr = addr;
  op->len = len;
  // Completions land in the requester's CQ ring: successive CQEs stride
  // through a 512 KB ring, so they spread over DRAM rows instead of
  // hammering one bank.
  op->cqe_addr = 0x7f00'0000 + (cqe_seq_++ % 4096) * 128;
  op->req_id = req_id;
  op->done = std::move(done);
  sim_->At(parsed, [this, op] { ServeWithPu(op->dst, op, [this, op] { ServeLocal(op); }); });
}

void NicEngine::ServeLocal(Local* op) {
  switch (op->verb) {
    case Verb::kRead: {
      // src reads dst's memory: fetch from dst, then deliver data + CQE
      // into src's memory. The context is held until the delivery is
      // posted — a local op spans both DMA phases.
      op->dst->DmaRead(op->addr, std::max<uint32_t>(op->len, 1), [this, op](SimTime) {
        op->src->DmaWrite(op->cqe_addr, static_cast<uint64_t>(op->len) + params_.cqe_bytes,
                          [this, op](SimTime posted) {
                            ReleaseAt(op->pu, posted + params_.read_pipeline_overhead);
                            CompleteLocal(op, posted);
                          },
                          /*single_descriptor=*/true, op->req_id);
      }, op->req_id, /*tail=*/true);
      return;
    }
    case Verb::kWrite:
    case Verb::kSend: {
      // Gather payload from src, write it into dst, then post the CQE
      // back into src. This is the double PCIe1 crossing of path ③.
      op->src->DmaRead(op->addr, std::max<uint32_t>(op->len, 1), [this, op](SimTime) {
        const uint64_t dst_bytes =
            op->verb == Verb::kSend ? static_cast<uint64_t>(op->len) + params_.cqe_bytes
                                    : std::max<uint32_t>(op->len, 1);
        op->dst->DmaWrite(op->addr, dst_bytes, [this, op](SimTime posted) {
          ReleaseAt(op->pu, posted + params_.write_pipeline_overhead);
          if (op->verb == Verb::kSend) {
            SendHandler& handler = send_handlers_[static_cast<size_t>(op->dst->fe_id)];
            if (handler != nullptr) {
              handler(op->addr, op->len, ReplyCallback());
            }
          }
          op->src->DmaWrite(op->cqe_addr, params_.cqe_bytes,
                            [this, op](SimTime cqe_done) { CompleteLocal(op, cqe_done); },
                            /*single_descriptor=*/false, op->req_id);
        }, /*single_descriptor=*/true, op->req_id);
      }, op->req_id, /*tail=*/true);
      return;
    }
  }
}

void NicEngine::CompleteLocal(Local* op, SimTime posted) {
  // A stalled requester CPU stops polling its CQ: while a stall window
  // covers src (an endpoint's fault domain is its name), the completion
  // becomes visible only when the window ends. Consulted only with an injector attached, so fault-free
  // runs schedule no extra events.
  if (fault::FaultInjector* const inj = sim_->faults(); inj != nullptr) {
    const SimTime stall = inj->StallDelay(op->src->params().name, posted);
    if (stall != 0) {
      op->visible = std::max(sim_->now(), posted + stall);
      if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
        tr->Span(op->src->params().name, "stall", posted, op->visible, op->req_id);
      }
      sim_->At(op->visible, [this, op] { FinishLocal(op, op->visible); });
      return;
    }
  }
  FinishLocal(op, posted);
}

void NicEngine::FinishLocal(Local* op, SimTime t) {
  op->done.CallOnce(t);
  locals_.Free(op);
}

size_t NicEngine::live_records() const {
  size_t n = remotes_.live() + locals_.live();
  for (const auto& ep : endpoints_) {
    n += ep->live_ops();
  }
  return n;
}

void NicEngine::RegisterMetrics(MetricsRegistry* reg) {
  using E = NicEngine;
  static constexpr MetricsRegistry::Row<E> kRows[] = {
      {"requests_served", "count", [](const E& e) -> double { return e.requests_served_; }},
  };
  static constexpr MetricsRegistry::Row<E> kFrontEndRows[] = {
      {"shared_jobs", "count", [](const E& e) -> double { return e.frontend_.shared_jobs(); }},
      {"shared_busy_us", "us", [](const E& e) { return ToMicros(e.frontend_.shared_busy()); }},
  };
  static constexpr MetricsRegistry::Row<E> kProcessingUnitRows[] = {
      {"peak_waiters", "count", [](const E& e) -> double { return e.pus_.max_waiters(); }},
  };
  reg->Register(params_.name, *this, kRows);
  reg->Register(params_.name + ".fe", *this, kFrontEndRows);
  reg->Register(params_.name + ".pu", *this, kProcessingUnitRows);
  for (const auto& ep : endpoints_) {
    ep->RegisterMetrics(reg);
  }
}

}  // namespace snicsim

#include "src/workload/local_requester.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/log.h"
#include "src/obs/trace.h"

namespace snicsim {

LocalRequester::LocalRequester(Simulator* sim, NicEngine* engine, NicEndpoint* src,
                               NicEndpoint* dst, const LocalRequesterParams& params,
                               const std::string& name)
    : sim_(sim),
      engine_(engine),
      src_(src),
      dst_(dst),
      params_(params),
      name_(name),
      // Doorbell flight time: the MMIO store travels the reverse of the
      // NIC->requester-memory route.
      mmio_flight_(src->to_mem().BaseLatency()) {
  threads_.reserve(static_cast<size_t>(params_.threads));
  for (int t = 0; t < params_.threads; ++t) {
    threads_.emplace_back(sim);
  }
}

std::string LocalRequester::CpuLane(int thread) const {
  return name_ + ".cpu" + std::to_string(thread);
}

void LocalRequester::Start(Verb verb, uint32_t payload, AddressGenerator addr,
                           Meter* meter) {
  // Scheduled pumps and ticks hold pointers into threads_; a second Start
  // would re-seed loops that are already running.
  SNIC_CHECK(!started_);
  started_ = true;
  for (int t = 0; t < params_.threads; ++t) {
    Loop* loop = &threads_[static_cast<size_t>(t)].loop;
    loop->verb = verb;
    loop->payload = payload;
    loop->addr = addr.WithSeed(0xabcd'ef01'2345ULL * static_cast<uint64_t>(t + 1) + 7);
    loop->meter = meter;
    loop->thread = t;
    loop->paced = params_.paced_gbps > 0.0;
    sim_->In(0, [this, loop] { Pump(loop); });
  }
}

void LocalRequester::Pump(Loop* loop) {
  if (loop->paced) {
    sim_->In(FromNanos(100), [this, loop] { PacedTick(loop); });
    return;
  }
  while (loop->in_flight < params_.window) {
    loop->in_flight += 1;
    if (params_.doorbell_batch) {
      IssueBatch(loop);
    } else {
      IssueSingle(loop);
    }
  }
}

void LocalRequester::PacedTick(Loop* loop) {
  // Open loop: one thread-share of the aggregate rate, issued on a timer.
  // The interval is recomputed every tick, so SetPacedRate takes effect
  // within one period (the governor's control knob).
  const double rate = params_.paced_gbps;
  if (rate <= 0.0) {
    sim_->In(FromMicros(5), [this, loop] { PacedTick(loop); });  // paused; poll
    return;
  }
  const double per_thread = rate * 1e9 / 8.0 / params_.threads;
  const SimTime interval = static_cast<SimTime>(
      static_cast<double>(std::max<uint32_t>(loop->payload, 1)) / per_thread * 1e12);
  IssueSingle(loop);
  sim_->In(std::max<SimTime>(interval, FromNanos(20)), [this, loop] { PacedTick(loop); });
}

void LocalRequester::IssueSingle(Loop* loop) {
  ++issued_;
  ++doorbells_;
  const SimTime issue_start = sim_->now();
  BusyServer& cpu = threads_[static_cast<size_t>(loop->thread)].cpu;
  Tracer* const tr = sim_->tracer();
  const uint64_t rid = tr != nullptr ? tr->NextRequestId() : 0;
  // BlueFlame-style post: the WQE is pushed inline through the (blocking)
  // MMIO write, so no WQE-fetch DMA is needed.
  const SimTime posted = cpu.Enqueue(params_.wr_build + params_.mmio_block);
  if (tr != nullptr) {
    const std::string lane = CpuLane(loop->thread);
    tr->Span(lane, "post", issue_start, posted, rid);
    tr->Span(lane, "doorbell", posted, posted + mmio_flight_, rid);
  }
  sim_->At(posted + mmio_flight_, [this, loop, issue_start, rid] {
    engine_->ExecuteLocalOp(src_, dst_, loop->verb, loop->addr.Next(), loop->payload,
                            [this, loop, issue_start, rid](SimTime cqe_posted) {
                              if (Tracer* const t = sim_->tracer(); t != nullptr) {
                                t->Span(name_, "poll", cqe_posted,
                                        cqe_posted + params_.poll, rid);
                              }
                              sim_->At(cqe_posted + params_.poll, [this, loop, issue_start,
                                                                   rid] {
                                if (Tracer* const t = sim_->tracer(); t != nullptr) {
                                  t->Span(name_, VerbName(loop->verb), issue_start,
                                          sim_->now(), rid, TraceCat::kOp);
                                }
                                loop->meter->RecordOp(loop->payload,
                                                      sim_->now() - issue_start);
                                if (!loop->paced) {
                                  loop->in_flight -= 1;
                                  Pump(loop);
                                }
                              });
                            }, rid);
  });
}

void LocalRequester::IssueBatch(Loop* loop) {
  const int batch = params_.batch;
  SNIC_CHECK_GT(batch, 0);
  issued_ += static_cast<uint64_t>(batch);
  ++doorbells_;
  const SimTime issue_start = sim_->now();
  BusyServer& cpu = threads_[static_cast<size_t>(loop->thread)].cpu;
  // Build the whole linked batch, then ring one doorbell.
  const SimTime posted =
      cpu.Enqueue(params_.wr_build * batch + params_.mmio_block);
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    const std::string lane = CpuLane(loop->thread);
    tr->Span(lane, "post_batch", issue_start, posted, 0);
    tr->Span(lane, "doorbell", posted, posted + mmio_flight_, 0);
  }
  sim_->At(posted + mmio_flight_, [this, loop, batch, issue_start] {
    // The NIC fetches the WQE chain from the requester's memory before
    // executing — the CPU-bypass step of doorbell batching.
    engine_->FetchWqes(src_, /*addr=*/0x7f80'0000, batch, [this, loop, batch,
                                                           issue_start](SimTime) {
      auto remaining = std::make_shared<int>(batch);
      Tracer* const tr = sim_->tracer();
      for (int i = 0; i < batch; ++i) {
        const uint64_t rid = tr != nullptr ? tr->NextRequestId() : 0;
        engine_->ExecuteLocalOp(
            src_, dst_, loop->verb, loop->addr.Next(), loop->payload,
            [this, loop, remaining, issue_start, rid](SimTime cqe_posted) {
              if (Tracer* const t = sim_->tracer(); t != nullptr) {
                t->Span(name_, VerbName(loop->verb), issue_start, sim_->now(), rid,
                        TraceCat::kOp);
              }
              loop->meter->RecordOp(loop->payload, sim_->now() - issue_start);
              *remaining -= 1;
              if (*remaining == 0) {
                sim_->At(cqe_posted + params_.poll, [this, loop] {
                  loop->in_flight -= 1;
                  Pump(loop);
                });
              }
            }, rid);
      }
    });
  });
}

void LocalRequester::RegisterMetrics(MetricsRegistry* reg) {
  static constexpr MetricsRegistry::Row<LocalRequester> kRows[] = {
      {"issued", "count", [](const LocalRequester& r) -> double { return r.issued_; }},
      {"doorbells", "count", [](const LocalRequester& r) -> double { return r.doorbells_; }},
  };
  reg->Register(name_, *this, kRows);
}

}  // namespace snicsim

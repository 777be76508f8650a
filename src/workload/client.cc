#include "src/workload/client.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/common/spec.h"
#include "src/fault/injector.h"
#include "src/obs/trace.h"

namespace snicsim {
namespace {

// A reliable op's retry timeout doubles per retransmission up to this shift.
constexpr int kBackoffShiftCap = 6;

}  // namespace

ClientMachine::ClientMachine(Simulator* sim, Fabric* fabric, const ClientParams& params,
                             const std::string& name)
    : sim_(sim),
      fabric_(fabric),
      params_(params),
      name_(name),
      port_(fabric->AddPort(name + ".port", params.nic.network_bandwidth)),
      nic_fe_(sim) {
  threads_.reserve(static_cast<size_t>(params_.threads));
  for (int t = 0; t < params_.threads; ++t) {
    threads_.emplace_back(sim);
  }
}

std::string ClientMachine::CpuLane(int thread) const {
  return name_ + ".cpu" + std::to_string(thread);
}

void ClientMachine::Start(const TargetSpec& target, AddressGenerator addr, Meter* meter) {
  // Scheduled pumps hold pointers into threads_; a second Start would
  // re-seed loops that are already running.
  SNIC_CHECK(!started_);
  started_ = true;
  SNIC_CHECK(target.engine != nullptr);
  SNIC_CHECK(target.endpoint != nullptr);
  SNIC_CHECK(target.server_port != nullptr);
  // Stagger thread start times (FNV hash of the machine name spreads
  // machines too): a synchronized thundering herd at t=0 floods responder
  // queues with a transient that pollutes short measurement windows.
  const SimTime machine_offset = static_cast<SimTime>(Fnv1a(name_) % 40) * FromNanos(200);
  for (int t = 0; t < params_.threads; ++t) {
    Loop* loop = &threads_[static_cast<size_t>(t)].loop;
    loop->target = target;
    // Per-thread copy of the region with an independent random stream.
    loop->addr = addr.WithSeed(0x9e37'79b9'7f4aULL * static_cast<uint64_t>(t + 1) + 13);
    loop->meter = meter;
    loop->thread = t;
    sim_->In(machine_offset + FromNanos(120) * t, [this, loop] { Pump(loop); });
  }
}

void ClientMachine::Pump(Loop* loop) {
  while (loop->in_flight < params_.window) {
    loop->in_flight += 1;
    if (params_.doorbell_batch) {
      IssueBatch(loop);
    } else {
      IssueOne(loop);
    }
  }
}

void ClientMachine::IssueOne(Loop* loop) {
  const SimTime issue_start = sim_->now();
  // A failed op is not recorded (it produced no completion) but still frees
  // its window slot, so the closed loop degrades instead of starving when
  // the link is lossy.
  Post(loop->thread, loop->target, loop->addr.Next(),
       [this, loop, issue_start](SimTime completed, bool ok) {
         if (ok) {
           loop->meter->RecordOp(loop->target.payload, completed - issue_start);
         }
         loop->in_flight -= 1;
         Pump(loop);
       });
}

void ClientMachine::IssueBatch(Loop* loop) {
  const int batch = params_.batch;
  SNIC_CHECK_GT(batch, 0);
  issued_ += static_cast<uint64_t>(batch);
  ++doorbells_;
  const SimTime issue_start = sim_->now();
  BusyServer& cpu = threads_[static_cast<size_t>(loop->thread)].cpu;
  // Build the linked WQE chain, then one doorbell for the whole batch.
  const SimTime posted = cpu.Enqueue(params_.wr_build * batch + params_.mmio_block);
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    // Batch plumbing is shared by all ops in the chain: req 0 marks it as
    // belonging to no single request.
    const std::string lane = CpuLane(loop->thread);
    tr->Span(lane, "post_batch", issue_start, posted, 0);
    tr->Span(lane, "doorbell", posted, posted + params_.mmio_flight, 0);
    tr->Span(name_ + ".nic", "wqe_fetch", posted + params_.mmio_flight,
             posted + params_.mmio_flight + params_.wqe_fetch, 0);
  }
  sim_->At(posted + params_.mmio_flight + params_.wqe_fetch, [this, loop, batch,
                                                              issue_start] {
    auto remaining = std::make_shared<int>(batch);
    Tracer* const tr = sim_->tracer();
    for (int i = 0; i < batch; ++i) {
      const uint64_t rid = tr != nullptr ? tr->NextRequestId() : 0;
      Launch(loop->target, loop->addr.Next(),
             [this, loop, remaining, issue_start, rid](SimTime completed, bool ok) {
               if (ok) {
                 if (Tracer* const t = sim_->tracer(); t != nullptr) {
                   t->Span(name_, VerbName(loop->target.verb), issue_start, completed, rid,
                           TraceCat::kOp);
                 }
                 loop->meter->RecordOp(loop->target.payload, completed - issue_start);
               }
               if (--*remaining == 0) {
                 loop->in_flight -= 1;
                 Pump(loop);
               }
             },
             rid);
    }
  });
}

void ClientMachine::Post(int thread, const TargetSpec& target, uint64_t addr, OpCallback cb,
                         SimTime deadline) {
  if (!Reliable()) {
    PostFlight(thread, target, addr, std::move(cb));
    return;
  }
  const std::shared_ptr<ReliableOp> op = NewReliableOp(target, addr, std::move(cb), deadline);
  // The first attempt pays the full post path (WQE build + doorbell);
  // retransmissions replay from the NIC.
  PostFlight(thread, target, addr, Attempt(op));
  ArmRetry(op);
}

void ClientMachine::Launch(const TargetSpec& target, uint64_t addr, OpCallback cb,
                           uint64_t req_id) {
  if (!Reliable()) {
    LaunchFromNic(target, addr, std::move(cb), req_id);
    return;
  }
  const std::shared_ptr<ReliableOp> op = NewReliableOp(target, addr, std::move(cb), 0);
  LaunchFromNic(target, addr, Attempt(op), req_id);
  ArmRetry(op);
}

void ClientMachine::PostFlight(int thread, const TargetSpec& target, uint64_t addr,
                               OpCallback&& cb) {
  SNIC_CHECK_GE(thread, 0);
  SNIC_CHECK_LT(static_cast<size_t>(thread), threads_.size());
  ++issued_;
  ++doorbells_;
  BusyServer& cpu = threads_[static_cast<size_t>(thread)].cpu;
  Tracer* const tr = sim_->tracer();
  const uint64_t rid = tr != nullptr ? tr->NextRequestId() : 0;
  const SimTime issue_start = sim_->now();
  // Build the WQE and ring the doorbell (CPU is blocked for both).
  const SimTime posted = cpu.Enqueue(params_.wr_build + params_.mmio_block);
  Flight* f = NewFlight(target, addr, rid, std::move(cb));
  if (tr != nullptr) {
    const std::string lane = CpuLane(thread);
    tr->Span(lane, "post", issue_start, posted, rid);
    tr->Span(lane, "doorbell", posted, posted + params_.mmio_flight, rid);
    // The completion closes a whole-request span so the trace shows
    // [post .. completion polled] as one op on the machine's lane.
    f->issue_start = issue_start;
    f->op_span = true;
  }
  sim_->At(posted + params_.mmio_flight, [this, f] { LaunchFlight(f); });
}

std::shared_ptr<ClientMachine::ReliableOp> ClientMachine::NewReliableOp(
    const TargetSpec& target, uint64_t addr, OpCallback cb, SimTime deadline) {
  auto op = std::make_shared<ReliableOp>();
  op->target = target;
  op->addr = addr;
  op->deadline = deadline;
  op->cb = std::move(cb);
  return op;
}

ClientMachine::OpCallback ClientMachine::Attempt(const std::shared_ptr<ReliableOp>& op) {
  return [this, op](SimTime completed, bool /*ok*/) { CompleteReliable(op, completed); };
}

void ClientMachine::ArmRetry(const std::shared_ptr<ReliableOp>& op) {
  const int shift = std::min(op->attempts, kBackoffShiftCap);
  SimTime dt = params_.transport_timeout << shift;
  // A deadline-carrying op clamps its timer to the budget edge: without the
  // clamp an exponential backoff step could overshoot the deadline by a
  // whole round, and the failure (the failover evidence the breaker layer
  // feeds on) would be reported a round late.
  if (op->deadline > 0 && sim_->now() + dt > op->deadline) {
    dt = op->deadline > sim_->now() ? op->deadline - sim_->now() : 0;
    if (dt < kNanos) {
      dt = kNanos;
    }
  }
  auto fire = [this, op] {
    SNIC_CHECK(!op->done);  // a completion cancels the op's pending timer
    // Deadline budget: once the budget is gone there is no point posting
    // another round whose response could only arrive even later — the op
    // fails now and the caller's deadline accounting takes over.
    if (op->deadline > 0 && sim_->now() >= op->deadline) {
      op->done = true;
      ++deadline_failures_;
      if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
        tr->Instant(name_, "op_deadline", sim_->now(), 0);
      }
      op->cb(sim_->now(), false);
      return;
    }
    if (op->attempts >= params_.retry_cnt) {
      op->done = true;
      ++op_failures_;
      if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
        tr->Instant(name_, "op_failed", sim_->now(), 0);
      }
      op->cb(sim_->now(), false);
      return;
    }
    ++op->attempts;
    ++retransmits_;
    // The WQE is still in the send queue: the NIC replays it without a CPU
    // WQE build or a doorbell.
    Tracer* const tr = sim_->tracer();
    const uint64_t rid = tr != nullptr ? tr->NextRequestId() : 0;
    if (tr != nullptr) {
      tr->Instant(name_ + ".nic", "retransmit", sim_->now(), rid);
    }
    LaunchFromNic(op->target, op->addr, Attempt(op), rid);
    ArmRetry(op);
  };
  // Retry timers are overwhelmingly cancelled by a completion, so the wheel
  // absorbs them without individual queued events.
  op->timer = sim_->timers().In(dt, std::move(fire));
}

void ClientMachine::CompleteReliable(const std::shared_ptr<ReliableOp>& op,
                                     SimTime completed) {
  if (op->done) {
    return;  // late duplicate after a retransmission already completed it
  }
  op->done = true;
  if (op->timer != TimerWheel::kNoTimer) {
    sim_->timers().Cancel(op->timer);  // stale-id no-op if the timer already fired
    op->timer = TimerWheel::kNoTimer;
  }
  op->cb(completed, true);
}

ClientMachine::Flight* ClientMachine::NewFlight(const TargetSpec& target, uint64_t addr,
                                                uint64_t rid, OpCallback&& cb) {
  Flight* f = flights_.Alloc();
  f->target = target;
  f->addr = addr;
  f->rid = rid;
  f->op_span = false;
  f->cb = std::move(cb);
  return f;
}

void ClientMachine::LaunchFromNic(const TargetSpec& target, uint64_t addr, OpCallback&& cb,
                                  uint64_t req_id) {
  LaunchFlight(NewFlight(target, addr, req_id, std::move(cb)));
}

void ClientMachine::LaunchFlight(Flight* f) {
  const TargetSpec& target = f->target;
  // Client NIC pipeline + WQE handling.
  const SimTime fe_done =
      nic_fe_.EnqueueAt(sim_->now(), params_.nic.shared_pipeline.ServiceTime());
  const SimTime tx_ready = fe_done + params_.nic_tx_fixed;
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    tr->Span(name_ + ".nic", "tx", sim_->now(), tx_ready, f->rid);
  }
  const PciePath to_server = fabric_->Route(port_, target.server_port);
  auto on_arrival = WithDiscard([this, f] { ArriveAtServer(f); },
                                [this, f] { DropFlight(f); });
  if (target.verb == Verb::kRead || target.payload == 0) {
    to_server.TransferControlAt(sim_, tx_ready, std::move(on_arrival), f->rid);
  } else {
    to_server.TransferAt(sim_, tx_ready, target.payload, params_.nic.network_mtu,
                         std::move(on_arrival), f->rid);
  }
}

void ClientMachine::ArriveAtServer(Flight* f) {
  const TargetSpec& target = f->target;
  const double fe_units =
      (target.verb == Verb::kRead || target.payload == 0)
          ? 1.0
          : static_cast<double>(CeilDiv(target.payload, target.engine->params().network_mtu));
  target.engine->HandleRequest(
      target.endpoint, target.verb, f->addr, target.payload, fe_units,
      fabric_->Route(target.server_port, port_),
      WithDiscard(
          [this, f](SimTime delivered) {
            const SimTime polled = delivered + params_.nic_rx_fixed + params_.poll;
            if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
              tr->Span(name_ + ".nic", "rx", delivered, polled, f->rid);
            }
            sim_->At(polled, [this, f] { FinishFlight(f); });
          },
          [this, f] { DropFlight(f); }),
      f->rid);
}

void ClientMachine::FinishFlight(Flight* f) {
  const SimTime completed = sim_->now();
  if (f->op_span) {
    if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
      tr->Span(name_, VerbName(f->target.verb), f->issue_start, completed, f->rid,
               TraceCat::kOp);
    }
  }
  f->cb.CallOnce(completed, true);
  flights_.Free(f);
}

void ClientMachine::DropFlight(Flight* f) {
  f->cb.Discard();
  flights_.Free(f);
}

void ClientMachine::RegisterMetrics(MetricsRegistry* reg) {
  using C = ClientMachine;
  static constexpr MetricsRegistry::Row<C> kRows[] = {
      {"issued", "count", [](const C& c) -> double { return c.issued_; }},
      {"doorbells", "count", [](const C& c) -> double { return c.doorbells_; }},
  };
  // Reliability counters exist only in fault-carrying runs, so the metrics
  // dump of a fault-free run stays byte-identical to the pre-fault layer.
  static constexpr MetricsRegistry::Row<C> kFaultRows[] = {
      {"retransmits", "count", [](const C& c) -> double { return c.retransmits_; }},
      {"op_failures", "count", [](const C& c) -> double { return c.op_failures_; }},
      {"deadline_failures", "count", [](const C& c) -> double { return c.deadline_failures_; }},
  };
  reg->Register(name_, *this, kRows);
  if (sim_->faults() != nullptr) {
    reg->Register(name_, *this, kFaultRows);
  }
}

std::vector<std::unique_ptr<ClientMachine>> MakeClients(Simulator* sim, Fabric* fabric,
                                                        const ClientParams& params, int count,
                                                        const std::string& prefix) {
  std::vector<std::unique_ptr<ClientMachine>> clients;
  clients.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    clients.push_back(std::make_unique<ClientMachine>(sim, fabric, params,
                                                      prefix + std::to_string(i)));
  }
  return clients;
}

}  // namespace snicsim

#include "src/nic/endpoint.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/obs/trace.h"

namespace snicsim {

NicEndpoint::NicEndpoint(Simulator* sim, const NicParams& nic, const EndpointParams& params,
                         PciePath nic_to_mem, MemorySubsystem* memory)
    : sim_(sim),
      nic_(nic),
      params_(params),
      to_mem_(std::move(nic_to_mem)),
      from_mem_(to_mem_.Reversed()),
      mtu_(params.pcie_mtu),
      memory_(memory),
      read_credits_(sim, nic.read_credits),
      write_credits_(sim, nic.write_credits),
      read_completer_(sim),
      write_completer_(sim) {
  SNIC_CHECK(memory_ != nullptr);
}

SimTime NicEndpoint::ControlRtt() const { return 2 * to_mem_.BaseLatency(); }

void NicEndpoint::DmaRead(uint64_t addr, uint64_t len, DmaCallback cb, uint64_t req_id,
                          bool tail) {
  ReadOp* op = read_ops_.Alloc();
  op->addr = addr;
  op->len = std::max<uint64_t>(len, 1);
  op->issued = 0;
  op->completed = 0;
  op->in_flight = 0;
  op->rid = req_id;
  op->cb = std::move(cb);
  op->window = nic_.read_credits;
  // Head-of-line degradation: a single oversized read against a small-MTU
  // endpoint cannot keep its completion stream pipelined (paper Fig. 8 —
  // throughput collapses for >9 MB READs to the 128 B-MTU SoC). Because ops
  // issue in FIFO order, the degraded head also stalls everything behind it.
  if (op->len > nic_.hol_threshold && params_.pcie_mtu <= nic_.hol_mtu_limit) {
    op->window = nic_.hol_degraded_credits;
    ++hol_events_;
  }
  read_queue_.Push(op);
  // Unless the caller declared this call its event's last act, it may still
  // act after this returns, so grants go through the event queue.
  PumpReads(tail);
}

void NicEndpoint::PumpReads(bool tail) {
  // Tail-issued grants (DESIGN.md §8). A pump that is the last act of its
  // event, started when no other event is due at now(), would see every
  // grant it defers with In(0) dispatched next, in issue order, ahead of
  // anything those grants schedule. Running the grant bodies here, in that
  // order, dispatches the same work in the same relative (time, seq) order
  // without the queue round trip. Decided once, before the first grant: a
  // grant may schedule at now() itself.
  const bool inline_grants = tail && sim_->NothingDueNow();
  while (ReadOp* const head = read_queue_.head) {
    if (head->issued >= head->len) {
      // Fully issued: the next op may start streaming behind it.
      read_queue_.Pop();
      continue;
    }
    if (head->in_flight >= head->window) {
      return;  // the head op stalls the line until completions drain
    }
    IssueOneSubRead(head, inline_grants);
  }
}

void NicEndpoint::IssueOneSubRead(ReadOp* op, bool inline_grant) {
  const uint64_t chunk = std::min<uint64_t>(nic_.max_read_request, op->len - op->issued);
  const uint64_t chunk_addr = op->addr + op->issued;
  op->issued += chunk;
  op->in_flight += 1;
  ++reads_issued_;
  // A free credit is exactly the case Acquire would defer with In(0).
  if (inline_grant && read_credits_.TryAcquire()) {
    StartSubRead(op, chunk, chunk_addr);
    return;
  }
  read_credits_.Acquire(
      [this, op, chunk, chunk_addr] { StartSubRead(op, chunk, chunk_addr); });
}

void NicEndpoint::StartSubRead(ReadOp* op, uint64_t chunk, uint64_t chunk_addr) {
  // Non-posted read request travels to the endpoint ...
  const SimTime req_at = to_mem_.TransferControlAt(sim_, sim_->now(), nullptr, op->rid);
  // ... is serviced by the completer and the memory ...
  SimTime served = req_at;
  if (!params_.read_completer.is_zero()) {
    served = read_completer_.EnqueueAt(req_at, params_.read_completer.ServiceTime());
    if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
      tr->Span(params_.name, "read_completer", req_at, served, op->rid);
    }
  }
  const SimTime data_ready = memory_->Access(served, chunk_addr, static_cast<uint32_t>(chunk),
                                             /*is_write=*/false, nullptr, op->rid);
  // ... and the completion burst streams back, segmented at the
  // endpoint's PCIe MTU.
  from_mem_.TransferAt(sim_, data_ready, chunk, mtu_, [this, op, chunk] {
    read_credits_.Release();
    op->in_flight -= 1;
    op->completed += chunk;
    op->last_done = sim_->now();
    // A fully arrived op has long left the issue FIFO (it was popped as
    // soon as its last sub-read issued), so it can go back to the pool.
    if (op->completed >= op->len) {
      if (op->cb) {
        op->cb.CallOnce(op->last_done);
      }
      read_ops_.Free(op);
    }
    PumpReads(/*tail=*/true);  // must stay the last act (see PumpReads)
  }, op->rid);
}

void NicEndpoint::DmaWrite(uint64_t addr, uint64_t len, DmaCallback posted_cb,
                           bool single_descriptor, uint64_t req_id, bool tail) {
  WriteOp* op = write_ops_.Alloc();
  op->addr = addr;
  op->len = std::max<uint64_t>(len, 1);
  op->issued = 0;
  op->delivered = 0;
  op->in_flight = 0;
  op->commits_pending = 0;
  op->gate_on_commit = false;
  op->rid = req_id;
  op->cb = std::move(posted_cb);
  op->window = nic_.write_credits;
  // Oversized bursts against a small-MTU endpoint starve the endpoint's
  // flow-control credits: the engine must wait for the endpoint to absorb
  // each window before pushing more (paper Fig. 9 / Advice #3 — large
  // host<->SoC WRITEs collapse just like large READs).
  if (single_descriptor && op->len > nic_.hol_threshold &&
      params_.pcie_mtu <= nic_.hol_mtu_limit) {
    op->window = nic_.hol_degraded_credits;
    op->gate_on_commit = true;
    ++hol_events_;
  }
  ++writes_issued_;
  write_queue_.Push(op);
  PumpWrites(tail);
}

void NicEndpoint::PumpWrites(bool tail) {
  // Tail-issued grants, as in PumpReads.
  const bool inline_grants = tail && sim_->NothingDueNow();
  while (WriteOp* const head = write_queue_.head) {
    if (head->issued >= head->len) {
      write_queue_.Pop();
      continue;
    }
    if (head->in_flight >= head->window) {
      return;
    }
    IssueOneSubWrite(head, inline_grants);
  }
}

void NicEndpoint::IssueOneSubWrite(WriteOp* op, bool inline_grant) {
  const uint64_t chunk = std::min<uint64_t>(nic_.max_read_request, op->len - op->issued);
  const uint64_t chunk_addr = op->addr + op->issued;
  op->issued += chunk;
  op->in_flight += 1;
  // Writes are posted, but each in-flight burst consumes a flow-control
  // credit released only when the memory system absorbs the data; that is
  // how a slow endpoint (e.g. the single-channel SoC DRAM) backpressures
  // the NIC.
  if (inline_grant && write_credits_.TryAcquire()) {
    StartSubWrite(op, chunk, chunk_addr);
    return;
  }
  write_credits_.Acquire(
      [this, op, chunk, chunk_addr] { StartSubWrite(op, chunk, chunk_addr); });
}

void NicEndpoint::StartSubWrite(WriteOp* op, uint64_t chunk, uint64_t chunk_addr) {
  to_mem_.TransferAt(sim_, sim_->now(), chunk, mtu_, [this, op, chunk, chunk_addr] {
    // Burst delivered at the endpoint: the NIC may consider it posted.
    op->delivered += chunk;
    op->last_posted = sim_->now();
    SimTime served = sim_->now();
    if (!params_.write_completer.is_zero()) {
      served = write_completer_.EnqueueAt(served, params_.write_completer.ServiceTime());
      if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
        tr->Span(params_.name, "write_completer", op->last_posted, served, op->rid,
                 TraceCat::kAsync);
      }
    }
    op->commits_pending += 1;
    memory_->Access(served, chunk_addr, static_cast<uint32_t>(chunk),
                    /*is_write=*/true, [this, op] {
      write_credits_.Release();
      op->commits_pending -= 1;
      if (op->gate_on_commit) {
        op->in_flight -= 1;
        PumpWrites(/*tail=*/false);
      }
      MaybeFreeWrite(op);
    }, op->rid);
    // Not a tail pump: the posted callback below still runs after it.
    if (!op->gate_on_commit) {
      op->in_flight -= 1;
      PumpWrites(/*tail=*/false);
    }
    if (op->delivered >= op->len && op->cb) {
      op->cb.CallOnce(op->last_posted);
    }
  }, op->rid);
}

void NicEndpoint::MaybeFreeWrite(WriteOp* op) {
  if (op->delivered >= op->len && op->commits_pending == 0) {
    write_ops_.Free(op);
  }
}

void NicEndpoint::RegisterMetrics(MetricsRegistry* reg) {
  using E = NicEndpoint;
  static constexpr MetricsRegistry::Row<E> kRows[] = {
      {"dma_reads", "count", [](const E& e) -> double { return e.reads_issued_; }},
      {"dma_writes", "count", [](const E& e) -> double { return e.writes_issued_; }},
      {"hol_stalls", "count", [](const E& e) -> double { return e.hol_events_; }},
      {"read_credit_peak_waiters", "count",
       [](const E& e) -> double { return e.read_credits_.max_waiters(); }},
      {"write_credit_peak_waiters", "count",
       [](const E& e) -> double { return e.write_credits_.max_waiters(); }},
  };
  reg->Register(params_.name, *this, kRows);
}

}  // namespace snicsim

// A PCIe endpoint as seen from the NIC cores: the host memory system behind
// the root port, or the BlueField SoC memory behind the switch.
//
// The endpoint owns everything that differs between "DMA to the host" and
// "DMA to the SoC" (paper §3.1–§3.2):
//   * the PCIe route (PCIe0+switch+PCIe1 vs. switch+PCIe1) and its latency;
//   * the negotiated PCIe MTU (512 B host vs. 128 B SoC) that segments
//     completion/write bursts into TLPs;
//   * the completer's TLP service rates (the host root port sustains a
//     bounded rate of inbound non-posted reads / posted writes);
//   * the memory subsystem behind it (DDIO LLC + 8 channels vs. 1 channel);
//   * DMA-engine credits, including the head-of-line degradation for
//     oversized reads against small-MTU endpoints (Advice #2).
#ifndef SRC_NIC_ENDPOINT_H_
#define SRC_NIC_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/units.h"
#include "src/mem/memory.h"
#include "src/nic/params.h"
#include "src/pcie/path.h"
#include "src/sim/callback.h"
#include "src/sim/pool.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace snicsim {

struct EndpointParams {
  // Trace lane, metrics prefix and fault domain: a stall window on this
  // name defers local-op CQE visibility (src/fault/plan.h).
  std::string name = "ep";
  uint32_t pcie_mtu = kHostPcieMtu;
  // Completer-side TLP service rates; zero means "not a bottleneck".
  Rate read_completer = Rate::PerSec(0);
  Rate write_completer = Rate::PerSec(0);
};

// Completion handed to the NIC when a DMA finishes. `done` is the simulated
// completion time (data at the NIC for reads; delivered at the endpoint for
// posted writes). Per-request closure: move-only with a small-buffer fast
// path (see src/sim/callback.h).
using DmaCallback = SmallFunction<void(SimTime done)>;

class NicEndpoint {
 public:
  NicEndpoint(Simulator* sim, const NicParams& nic, const EndpointParams& params,
              PciePath nic_to_mem, MemorySubsystem* memory);

  NicEndpoint(const NicEndpoint&) = delete;
  NicEndpoint& operator=(const NicEndpoint&) = delete;

  // DMA-reads `len` bytes starting at `addr`; `cb` fires when the last
  // completion TLP reaches the NIC. Splits into max_read_request
  // sub-requests with bounded outstanding credits; a request larger than
  // the head-of-line threshold against a small-MTU endpoint degrades to
  // hol_degraded_credits outstanding (paper Fig. 8).
  // `req_id` threads the originating request through to trace spans.
  // `tail`: the call is the last act of the running event, so the sub-reads
  // it issues may take free credits in place (DESIGN.md §8).
  void DmaRead(uint64_t addr, uint64_t len, DmaCallback cb, uint64_t req_id = 0,
               bool tail = false);

  // Posted DMA write. `posted_cb` fires when the burst has been delivered
  // into the endpoint (the NIC may then ack); the write additionally holds a
  // flow-control credit until the memory system absorbs it, which is what
  // backpressures writes to the single-channel SoC DRAM.
  //
  // `single_descriptor` marks a transfer issued as one giant DMA descriptor
  // (path-③ staging). Only those hit the head-of-line rule on small-MTU
  // endpoints: remote WRITEs arrive pre-segmented at the network MTU and are
  // unaffected (paper §3.2 vs. §3.3). `tail` as for DmaRead.
  void DmaWrite(uint64_t addr, uint64_t len, DmaCallback posted_cb,
                bool single_descriptor = false, uint64_t req_id = 0, bool tail = false);

  // One header-only TLP to the endpoint and back (for model probes).
  SimTime ControlRtt() const;

  const EndpointParams& params() const { return params_; }
  MemorySubsystem* memory() const { return memory_; }
  const PciePath& to_mem() const { return to_mem_; }
  const PciePath& from_mem() const { return from_mem_; }

  // Front-end registration id (set by NicEngine).
  int fe_id = -1;

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t hol_events() const { return hol_events_; }

  // Exposes DMA/credit counters under "<name>"; paths and memory register
  // separately (they are shared between endpoints).
  void RegisterMetrics(MetricsRegistry* reg);

  // DMA ops currently in flight; zero once a run has drained.
  size_t live_ops() const { return read_ops_.live() + write_ops_.live(); }

 private:
  // DMA ops are pooled records: sub-op closures capture (this, op) and the
  // op returns to its pool when its last sub-op has finished. `next` links
  // the op into its issue FIFO.
  struct ReadOp {
    uint64_t addr = 0;
    uint64_t len = 0;
    uint64_t issued = 0;     // bytes whose sub-reads have been issued
    uint64_t completed = 0;  // bytes fully arrived
    int window = 0;          // outstanding sub-read budget for this op
    int in_flight = 0;
    SimTime last_done = 0;
    uint64_t rid = 0;
    ReadOp* next = nullptr;
    DmaCallback cb;
  };

  struct WriteOp {
    uint64_t addr = 0;
    uint64_t len = 0;
    uint64_t issued = 0;
    uint64_t delivered = 0;
    int window = 0;
    int in_flight = 0;
    int commits_pending = 0;      // bursts delivered but not yet absorbed
    bool gate_on_commit = false;  // HoL mode: next chunk waits for absorb
    SimTime last_posted = 0;
    uint64_t rid = 0;
    WriteOp* next = nullptr;
    DmaCallback cb;
  };

  // Intrusive FIFO over pooled ops: no allocation per push or pop.
  template <typename Op>
  struct OpQueue {
    Op* head = nullptr;
    Op* tail = nullptr;
    void Push(Op* op) {
      op->next = nullptr;
      (tail == nullptr ? head : tail->next) = op;
      tail = op;
    }
    void Pop() {
      head = head->next;
      if (head == nullptr) {
        tail = nullptr;
      }
    }
  };

  // Ops issue sub-requests strictly in FIFO order: the head op must be
  // fully issued before the next op may start. A degraded-window head op
  // therefore blocks the whole line — the paper's head-of-line anomaly.
  // `tail`: the pump is the last act of its event (a sub-read's completion,
  // or a tail DmaRead), which lets it run free-credit grants inline
  // (DESIGN.md §8).
  void PumpReads(bool tail);
  void IssueOneSubRead(ReadOp* op, bool inline_grant);
  // The grant body of one sub-read: request TLP, completer, memory, and
  // the completion burst back.
  void StartSubRead(ReadOp* op, uint64_t chunk, uint64_t chunk_addr);
  void PumpWrites(bool tail);
  void IssueOneSubWrite(WriteOp* op, bool inline_grant);
  // The grant body of one sub-write: the burst to the endpoint, then the
  // memory absorbs it.
  void StartSubWrite(WriteOp* op, uint64_t chunk, uint64_t chunk_addr);
  // Frees a write op once it is fully delivered and fully absorbed.
  void MaybeFreeWrite(WriteOp* op);

  SlabPool<ReadOp> read_ops_;
  SlabPool<WriteOp> write_ops_;
  OpQueue<ReadOp> read_queue_;
  OpQueue<WriteOp> write_queue_;

  Simulator* sim_;
  const NicParams& nic_;
  EndpointParams params_;
  PciePath to_mem_;
  PciePath from_mem_;
  Divisor mtu_;  // params_.pcie_mtu, segmenting every burst
  MemorySubsystem* memory_;

  TokenPool read_credits_;
  TokenPool write_credits_;
  // Used only when the matching EndpointParams rate is non-zero.
  BusyServer read_completer_;
  BusyServer write_completer_;

  uint64_t reads_issued_ = 0;
  uint64_t writes_issued_ = 0;
  uint64_t hol_events_ = 0;
};

}  // namespace snicsim

#endif  // SRC_NIC_ENDPOINT_H_

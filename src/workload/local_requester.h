// Path ③ requesters: CPU threads on the host (H2S) or the SoC (S2H) posting
// RDMA operations to the other side of the same SmartNIC (paper §3.3).
//
// Posting cost is MMIO-dominated (paper Fig. 10): without doorbell batching
// every WR pays a blocking MMIO through the internal PCIe fabric; with
// doorbell batching (Advice #4) a batch pays one MMIO plus a WQE-fetch DMA
// issued by the NIC against the requester's memory — a huge win on the SoC
// side (the NIC reads SoC memory quickly) but a pipeline bubble on the host
// side for small batches.
#ifndef SRC_WORKLOAD_LOCAL_REQUESTER_H_
#define SRC_WORKLOAD_LOCAL_REQUESTER_H_

#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/nic/engine.h"
#include "src/nic/verb.h"
#include "src/sim/meter.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"
#include "src/workload/addr_gen.h"

namespace snicsim {

struct LocalRequesterParams {
  int threads = 24;
  int window = 5;  // outstanding WRs (or batches, when batching) per thread
  SimTime wr_build = FromNanos(120);
  SimTime mmio_block = FromNanos(100);
  SimTime poll = FromNanos(60);
  bool doorbell_batch = false;
  int batch = 32;
  // When > 0, issue open-loop at this aggregate payload rate instead of a
  // closed loop — used to cap path-③ demand at the §4 budget (P − N).
  double paced_gbps = 0.0;

  // Host CPU posting through PCIe0 + switch + PCIe1 (H2S requester).
  static LocalRequesterParams Host() {
    LocalRequesterParams p;
    p.threads = 24;
    p.wr_build = FromNanos(120);
    p.mmio_block = FromNanos(150);
    return p;
  }

  // SoC ARM cores posting to the adjacent NIC (S2H requester): cheap wire
  // distance but expensive uncached stores and slow WQE builds.
  static LocalRequesterParams Soc() {
    LocalRequesterParams p;
    p.threads = 8;
    p.wr_build = FromNanos(240);
    p.mmio_block = FromNanos(550);
    return p;
  }
};

class LocalRequester {
 public:
  // Ops originate at `src`'s CPU and target `dst`'s memory.
  LocalRequester(Simulator* sim, NicEngine* engine, NicEndpoint* src, NicEndpoint* dst,
                 const LocalRequesterParams& params, const std::string& name);

  LocalRequester(const LocalRequester&) = delete;
  LocalRequester& operator=(const LocalRequester&) = delete;

  // Starts every thread issuing `verb`s; call at most once per requester.
  void Start(Verb verb, uint32_t payload, AddressGenerator addr, Meter* meter);

  // Adjusts the open-loop rate at runtime (only meaningful when the
  // requester was started with paced_gbps > 0); 0 pauses issuance.
  void SetPacedRate(double gbps) { params_.paced_gbps = gbps; }
  double paced_rate() const { return params_.paced_gbps; }

  uint64_t issued() const { return issued_; }
  uint64_t doorbells() const { return doorbells_; }

  // Exposes issue-side counters under "<name>".
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  struct Loop {
    Verb verb = Verb::kRead;
    uint32_t payload = 0;
    AddressGenerator addr = AddressGenerator(0, 64);
    Meter* meter = nullptr;
    int thread = 0;
    int in_flight = 0;
    bool paced = false;  // fixed at Start: open-loop vs closed-loop
  };

  // One posting thread: its CPU and its loop (used once Started).
  struct Thread {
    explicit Thread(Simulator* sim) : cpu(sim) {}
    BusyServer cpu;
    Loop loop;
  };

  // The trace lane of `thread`'s CPU: "<name>.cpu<thread>".
  std::string CpuLane(int thread) const;
  void Pump(Loop* loop);
  // One open-loop issue tick of a paced thread; re-arms itself.
  void PacedTick(Loop* loop);
  void IssueSingle(Loop* loop);
  void IssueBatch(Loop* loop);

  Simulator* sim_;
  NicEngine* engine_;
  NicEndpoint* src_;
  NicEndpoint* dst_;
  LocalRequesterParams params_;
  std::string name_;
  SimTime mmio_flight_;
  // Sized once at construction and never resized: scheduled events hold
  // pointers to the loops.
  std::vector<Thread> threads_;
  bool started_ = false;
  uint64_t issued_ = 0;
  uint64_t doorbells_ = 0;  // MMIO doorbell rings (one per batch when batching)
};

}  // namespace snicsim

#endif  // SRC_WORKLOAD_LOCAL_REQUESTER_H_

// The NIC packet-processing front end.
//
// Models the pool of "NIC cores" that parse packets, look up QP state, and
// build responses. Capacity is split into a large *shared* pipeline plus a
// small *dedicated* slice per PCIe endpoint (host / SoC): the paper's Fig. 11
// microbenchmark shows a single endpoint cannot reach the NIC's aggregate
// packet rate, but two endpoints driven concurrently can, implying a few NIC
// cores are reserved per endpoint. Work from endpoint e is dispatched to
// whichever of {shared, dedicated[e]} completes it earliest.
#ifndef SRC_NIC_FRONTEND_H_
#define SRC_NIC_FRONTEND_H_

#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace snicsim {

class FrontEnd {
 public:
  // A NIC exposes at most two PCIe endpoints: the host and, on a SmartNIC,
  // the SoC.
  static constexpr int kMaxEndpoints = 2;

  FrontEnd(Simulator* sim, Rate shared, Rate dedicated_per_endpoint)
      : sim_(sim),
        shared_rate_(shared),
        dedicated_rate_(dedicated_per_endpoint),
        shared_(sim) {
    dedicated_.reserve(kMaxEndpoints);
  }

  // Registers a PCIe endpoint; returns its id.
  int AddEndpoint() {
    SNIC_CHECK_LT(static_cast<int>(dedicated_.size()), kMaxEndpoints);
    dedicated_.emplace_back(sim_);
    return static_cast<int>(dedicated_.size()) - 1;
  }

  // Processes `units` pipeline work items for `endpoint` that arrive at
  // `ready`; returns the completion time of the last item. Fractional unit
  // counts model fixed per-request overheads smaller than a packet slot.
  SimTime Process(SimTime ready, int endpoint, double units) {
    SNIC_CHECK_GE(endpoint, -1);
    SNIC_CHECK_LT(endpoint, static_cast<int>(dedicated_.size()));
    const SimTime shared_service =
        static_cast<SimTime>(static_cast<double>(shared_rate_.ServiceTime()) * units);
    // Endpoint-less work (e.g. a pure-RNIC with one implicit endpoint or
    // internal chores) only uses the shared pipeline.
    if (endpoint < 0 || dedicated_rate_.is_zero()) {
      return shared_.EnqueueAt(ready, shared_service);
    }
    BusyServer& ded = dedicated_[static_cast<size_t>(endpoint)];
    const SimTime ded_service =
        static_cast<SimTime>(static_cast<double>(dedicated_rate_.ServiceTime()) * units);
    // Dispatch to whichever pipeline finishes first.
    const SimTime now = sim_->now();
    const SimTime shared_done = std::max({shared_.next_free(), ready, now}) + shared_service;
    const SimTime ded_done = std::max({ded.next_free(), ready, now}) + ded_service;
    if (shared_done <= ded_done) {
      return shared_.EnqueueAt(ready, shared_service);
    }
    return ded.EnqueueAt(ready, ded_service);
  }

  uint64_t shared_jobs() const { return shared_.jobs(); }
  SimTime shared_busy() const { return shared_.busy_time(); }

 private:
  Simulator* sim_;
  Rate shared_rate_;
  Rate dedicated_rate_;
  BusyServer shared_;
  std::vector<BusyServer> dedicated_;  // reserved for kMaxEndpoints, never moves
};

}  // namespace snicsim

#endif  // SRC_NIC_FRONTEND_H_

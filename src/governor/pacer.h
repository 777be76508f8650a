// The §4 budget rule with a measured N: a pacer for one bulk host<->SoC
// (path ③) stream. Each epoch it reads the server's network port counters,
// takes the busier direction's payload rate as the network's demand N, and
// sets the paced requester's rate to the headroom P − N, never below a
// floor that keeps the SoC's control traffic alive:
//
//   budget = max(kPacerFloorGbps, Path3HeadroomGbps(kPacerPcieGbps, N))
//
// AdaptiveGovernor's gate (governor.h) meters serving traffic against the
// static SafePath3BudgetGbps instead; both go through Path3HeadroomGbps.
#ifndef SRC_GOVERNOR_PACER_H_
#define SRC_GOVERNOR_PACER_H_

#include <algorithm>

#include "src/model/bounds.h"
#include "src/pcie/link.h"
#include "src/workload/local_requester.h"

namespace snicsim {
namespace governor {

inline constexpr SimTime kPacerEpoch = FromMicros(20);
// Effective uni-directional PCIe payload limit. The static rule subtracts
// from the raw link's 256 Gbps; aligning the two moves the ablation's output.
inline constexpr double kPacerPcieGbps = 242.0;
inline constexpr double kPacerFloorGbps = 2.0;

class Path3Pacer {
 public:
  // Watches `port` (the server's network link) and retunes `requester`
  // (which must run in paced/open-loop mode).
  Path3Pacer(Simulator* sim, PcieLink* port, LocalRequester* requester)
      : sim_(sim), port_(port), requester_(requester) {}

  Path3Pacer(const Path3Pacer&) = delete;
  Path3Pacer& operator=(const Path3Pacer&) = delete;

  void Start() {
    tx_bytes_ = port_->counters(LinkDir::kUp).payload_bytes;
    rx_bytes_ = port_->counters(LinkDir::kDown).payload_bytes;
    Arm();
  }

  double last_budget_gbps() const { return last_budget_; }
  double last_network_gbps() const { return last_network_; }
  uint64_t epochs() const { return epochs_; }

 private:
  void Arm() {
    sim_->In(kPacerEpoch, [this] {
      Tick();
      Arm();
    });
  }

  void Tick() {
    ++epochs_;
    const uint64_t tx = port_->counters(LinkDir::kUp).payload_bytes;
    const uint64_t rx = port_->counters(LinkDir::kDown).payload_bytes;
    last_network_ = std::max(EpochGbps(tx - tx_bytes_), EpochGbps(rx - rx_bytes_));
    tx_bytes_ = tx;
    rx_bytes_ = rx;
    last_budget_ =
        std::max(kPacerFloorGbps, Path3HeadroomGbps(kPacerPcieGbps, last_network_));
    requester_->SetPacedRate(last_budget_);
  }

  static double EpochGbps(uint64_t bytes) {
    return static_cast<double>(bytes) * 8 / 1e9 / ToSeconds(kPacerEpoch);
  }

  Simulator* sim_;
  PcieLink* port_;
  LocalRequester* requester_;
  uint64_t tx_bytes_ = 0;
  uint64_t rx_bytes_ = 0;
  double last_budget_ = 0.0;
  double last_network_ = 0.0;
  uint64_t epochs_ = 0;
};

}  // namespace governor
}  // namespace snicsim

#endif  // SRC_GOVERNOR_PACER_H_

// Closed-form bandwidth bounds for each communication path (paper §3
// "Bottleneck" paragraphs and §4).
//
// These bounds are what a designer can compute on paper before running
// anything; the benches verify the simulator converges to them.
#ifndef SRC_MODEL_BOUNDS_H_
#define SRC_MODEL_BOUNDS_H_

#include <algorithm>

#include "src/model/pcie_model.h"
#include "src/topo/testbed_params.h"

namespace snicsim {

struct PathBounds {
  double same_direction_gbps = 0.0;      // all flows one way
  double opposite_direction_gbps = 0.0;  // READ+WRITE mixed (Fig. 5)
};

// Peak payload bandwidth of a path on a given testbed.
inline PathBounds ComputePathBounds(CommPath path, const TestbedParams& tp) {
  const double net = EffectiveGbps(tp.bluefield_nic.network_bandwidth,
                                   tp.bluefield_nic.network_mtu);
  const double rnic_net = EffectiveGbps(tp.rnic.network_bandwidth, tp.rnic.network_mtu);
  const double pcie_host = EffectiveGbps(tp.pcie_bandwidth, tp.host_pcie_mtu);
  const double pcie_soc = EffectiveGbps(tp.pcie_bandwidth, tp.soc_pcie_mtu);
  PathBounds b;
  switch (path) {
    case CommPath::kRnic1:
      b.same_direction_gbps = std::min(rnic_net, pcie_host);
      b.opposite_direction_gbps = 2.0 * b.same_direction_gbps;
      break;
    case CommPath::kSnic1:
      // NIC (network) and two PCIe crossings, all bidirectional: the lowest
      // limit binds; opposite-direction flows multiplex to twice that.
      b.same_direction_gbps = std::min(net, pcie_host);
      b.opposite_direction_gbps = 2.0 * b.same_direction_gbps;
      break;
    case CommPath::kSnic2:
      b.same_direction_gbps = std::min(net, pcie_soc);
      b.opposite_direction_gbps = 2.0 * b.same_direction_gbps;
      break;
    case CommPath::kSnic3S2H:
    case CommPath::kSnic3H2S: {
      // Path ③ crosses PCIe1 twice (once per direction), so a single flow is
      // bottlenecked by the *uni-directional* PCIe bandwidth, and opposite
      // flows cannot double up (paper §3.3).
      b.same_direction_gbps = std::min(pcie_soc, pcie_host);
      b.opposite_direction_gbps = b.same_direction_gbps;
      break;
    }
  }
  return b;
}

// Payload range the analytic models are calibrated against: the paper's
// microbenchmarks sweep 16 B (minimum inlined WQE payload) through 64 MiB
// (the largest single WR in the §3 experiments). Outside this range the
// closed forms are extrapolation, not characterization — callers that
// consult the models for planning (the advisor) must refuse such payloads
// loudly instead of returning a silently-unsupported figure.
inline constexpr uint64_t kMinCalibratedPayload = 16;
inline constexpr uint64_t kMaxCalibratedPayload = 64ull * kMiB;

inline bool PayloadWithinCalibration(uint64_t payload) {
  return payload >= kMinCalibratedPayload && payload <= kMaxCalibratedPayload;
}

// §4 budget rule: host<->SoC (path ③) traffic should be capped at the PCIe
// headroom the network leaves, P − N, to avoid throttling the inter-machine
// path. Returns Gbps (>= 0). The only P − N in the tree: the static budget
// below and the measured-N pacer (src/governor/pacer.h) both call it.
inline double Path3HeadroomGbps(double pcie_gbps, double network_gbps) {
  return std::max(0.0, pcie_gbps - network_gbps);
}

// The static budget: P minus the network link's N, as if the network were
// always saturated.
inline double SafePath3BudgetGbps(const TestbedParams& tp) {
  return Path3HeadroomGbps(tp.pcie_bandwidth.gbps(),
                           tp.bluefield_nic.network_bandwidth.gbps());
}

}  // namespace snicsim

#endif  // SRC_MODEL_BOUNDS_H_

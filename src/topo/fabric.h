// The rack-scale InfiniBand fabric of the paper's testbed (Table 2): every
// machine connects to one SB7890-class switch. At this abstraction level a
// network cable behaves like a PCIe link — a bidirectional pair of serial
// resources with per-frame header overhead — so the fabric reuses PcieLink /
// PciePath, giving the benches identical counter semantics on wires and
// PCIe channels.
#ifndef SRC_TOPO_FABRIC_H_
#define SRC_TOPO_FABRIC_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/pcie/link.h"
#include "src/pcie/path.h"
#include "src/sim/simulator.h"

namespace snicsim {

class Fabric {
 public:
  Fabric(Simulator* sim, SimTime link_propagation = FromNanos(150),
         SimTime switch_forward = FromNanos(150))
      : sim_(sim),
        link_propagation_(link_propagation),
        ib_switch_("ibsw", switch_forward) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // Attaches a machine port of the given bandwidth; kUp is toward the
  // switch, kDown toward the machine.
  PcieLink* AddPort(const std::string& name, Bandwidth bandwidth) {
    if (used_ == chunk_size_) {
      chunk_size_ = chunks_.empty() ? kFirstChunk : 2 * chunk_size_;
      chunks_.push_back(std::make_unique<std::optional<PcieLink>[]>(chunk_size_));
      used_ = 0;
    }
    PcieLink& port =
        chunks_.back()[used_++].emplace(sim_, name, bandwidth, link_propagation_);
    // Network cables are the loss domain of the fault model; PCIe channels
    // stay loss-free (src/fault/plan.h).
    port.set_lossy(true);
    return &port;
  }

  // Route from machine A to machine B through the switch.
  PciePath Route(PcieLink* from, PcieLink* to) {
    PciePath p;
    p.Add(from, LinkDir::kUp);
    p.Add(to, LinkDir::kDown, &ib_switch_);
    return p;
  }

  PcieSwitch& ib_switch() { return ib_switch_; }
  Simulator* sim() const { return sim_; }

 private:
  Simulator* sim_;
  SimTime link_propagation_;
  PcieSwitch ib_switch_;
  // Ports live in chunks that never move, so every PcieLink* handed out
  // stays valid. Each chunk doubles the last, so a fabric of up to
  // kFirstChunk ports makes two allocations and a larger one O(log n).
  static constexpr size_t kFirstChunk = 16;
  std::vector<std::unique_ptr<std::optional<PcieLink>[]>> chunks_;
  size_t chunk_size_ = 0;
  size_t used_ = 0;
};

}  // namespace snicsim

#endif  // SRC_TOPO_FABRIC_H_

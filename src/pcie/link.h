// A bidirectional PCIe link (or the InfiniBand wire, which shares the same
// serialization behaviour at this abstraction level).
//
// Each direction is an independent serial resource — this is what makes
// opposite-direction flows (READ data out + WRITE data in) multiplex to
// nearly twice the nominal bandwidth (paper Fig. 5), while same-direction
// flows contend. Transfers are bursts segmented at a caller-supplied MTU;
// the link accounts TLPs, payload bytes, and wire bytes per direction, which
// the benches read exactly like the paper reads BlueField hardware counters.
#ifndef SRC_PCIE_LINK_H_
#define SRC_PCIE_LINK_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"
#include "src/fault/injector.h"
#include "src/obs/metrics.h"
#include "src/pcie/tlp.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace snicsim {

enum class LinkDir {
  kDown,  // toward the endpoint / device
  kUp,    // toward the root / host
};

constexpr LinkDir Opposite(LinkDir d) {
  return d == LinkDir::kDown ? LinkDir::kUp : LinkDir::kDown;
}

constexpr const char* LinkDirName(LinkDir d) {
  return d == LinkDir::kDown ? "down" : "up";
}

struct LinkCounters {
  uint64_t tlps = 0;
  uint64_t payload_bytes = 0;
  uint64_t wire_bytes = 0;

  LinkCounters operator-(const LinkCounters& o) const {
    return {tlps - o.tlps, payload_bytes - o.payload_bytes, wire_bytes - o.wire_bytes};
  }
};

class PcieLink {
 public:
  // `per_direction` is the raw signalling bandwidth of one direction;
  // `propagation` is the one-way flight + forwarding latency of the link.
  PcieLink(Simulator* sim, std::string name, Bandwidth per_direction, SimTime propagation)
      : sim_(sim),
        name_(std::move(name)),
        bandwidth_(per_direction),
        propagation_(propagation),
        down_(sim),
        up_(sim) {}

  PcieLink(const PcieLink&) = delete;
  PcieLink& operator=(const PcieLink&) = delete;

  // Sends a data burst. The burst may not start before `ready`; `cb` fires
  // when the last TLP has been delivered. Returns that delivery time.
  SimTime TransferAt(SimTime ready, LinkDir dir, uint64_t payload_bytes, uint32_t mtu,
                     Simulator::Callback cb = nullptr) {
    const uint64_t tlps = NumTlps(payload_bytes, mtu);
    const uint64_t wire = WireBytes(payload_bytes, mtu);
    Account(dir, tlps, payload_bytes, wire);
    const SimTime done = Server(dir).EnqueueAt(ready, ServiceTime(wire, ready));
    const SimTime delivered = done + propagation_;
    if (cb != nullptr) {
      sim_->At(delivered, std::move(cb));
    }
    return delivered;
  }

  SimTime Transfer(LinkDir dir, uint64_t payload_bytes, uint32_t mtu,
                   Simulator::Callback cb = nullptr) {
    return TransferAt(sim_->now(), dir, payload_bytes, mtu, std::move(cb));
  }

  // Sends a single header-only control TLP (read request, doorbell, CQE
  // notification …).
  SimTime TransferControlAt(SimTime ready, LinkDir dir, Simulator::Callback cb = nullptr) {
    Account(dir, 1, 0, ControlWireBytes());
    const SimTime done = Server(dir).EnqueueAt(ready, ServiceTime(ControlWireBytes(), ready));
    const SimTime delivered = done + propagation_;
    if (cb != nullptr) {
      sim_->At(delivered, std::move(cb));
    }
    return delivered;
  }

  SimTime TransferControl(LinkDir dir, Simulator::Callback cb = nullptr) {
    return TransferControlAt(sim_->now(), dir, std::move(cb));
  }

  // Earliest time a new burst in `dir` could start serializing.
  SimTime NextFree(LinkDir dir) { return Server(dir).next_free(); }

  const LinkCounters& counters(LinkDir dir) const {
    return dir == LinkDir::kDown ? down_counters_ : up_counters_;
  }
  LinkCounters TotalCounters() const {
    return {down_counters_.tlps + up_counters_.tlps,
            down_counters_.payload_bytes + up_counters_.payload_bytes,
            down_counters_.wire_bytes + up_counters_.wire_bytes};
  }

  SimTime BusyTime(LinkDir dir) { return Server(dir).busy_time(); }

  // Serialization time of `wire_bytes`, stretched by any fault-degrade
  // window active at `at`. Reduces to bandwidth().TransferTime() exactly
  // when no injector is attached — both this link and PciePath's
  // cut-through head/tail math go through it, so the two always agree on a
  // burst's service time.
  SimTime ServiceTime(uint64_t wire_bytes, SimTime at) const {
    const SimTime base = bandwidth_.TransferTime(wire_bytes);
    const fault::FaultInjector* const inj = sim_->faults();
    if (inj == nullptr) {
      return base;
    }
    const double scale = inj->ServiceScale(name_, at);
    return scale == 1.0 ? base
                        : static_cast<SimTime>(static_cast<double>(base) * scale);
  }

  // Only lossy links (network ports) are eligible for Bernoulli frame drops
  // and flap windows; PCIe channels are assumed loss-free.
  bool lossy() const { return lossy_; }
  void set_lossy(bool v) { lossy_ = v; }

  Bandwidth bandwidth() const { return bandwidth_; }
  SimTime propagation() const { return propagation_; }
  const std::string& name() const { return name_; }

  // Exposes both directions' counters under "<name>.down" / "<name>.up".
  void RegisterMetrics(MetricsRegistry* reg) {
    for (const LinkDir dir : {LinkDir::kDown, LinkDir::kUp}) {
      const std::string inst = name_ + "." + LinkDirName(dir);
      reg->Register(inst, "tlps", "count", "TLPs serialized in this direction",
                    [this, dir] { return static_cast<double>(counters(dir).tlps); });
      reg->Register(inst, "payload_bytes", "bytes", "payload bytes carried",
                    [this, dir] { return static_cast<double>(counters(dir).payload_bytes); });
      reg->Register(inst, "wire_bytes", "bytes", "payload + per-TLP header bytes",
                    [this, dir] { return static_cast<double>(counters(dir).wire_bytes); });
      reg->Register(inst, "busy_us", "us", "time this direction was serializing",
                    [this, dir] { return ToMicros(BusyTime(dir)); });
      reg->Register(inst, "utilization", "fraction",
                    "busy time / total simulated time at dump", [this, dir] {
                      const SimTime t = sim_->now();
                      return t > 0 ? static_cast<double>(BusyTime(dir)) /
                                         static_cast<double>(t)
                                   : 0.0;
                    });
    }
  }

 private:
  BusyServer& Server(LinkDir dir) { return dir == LinkDir::kDown ? down_ : up_; }
  void Account(LinkDir dir, uint64_t tlps, uint64_t payload, uint64_t wire) {
    LinkCounters& c = dir == LinkDir::kDown ? down_counters_ : up_counters_;
    c.tlps += tlps;
    c.payload_bytes += payload;
    c.wire_bytes += wire;
  }

  Simulator* sim_;
  std::string name_;
  Bandwidth bandwidth_;
  SimTime propagation_;
  BusyServer down_;
  BusyServer up_;
  LinkCounters down_counters_;
  LinkCounters up_counters_;
  bool lossy_ = false;
};

}  // namespace snicsim

#endif  // SRC_PCIE_LINK_H_

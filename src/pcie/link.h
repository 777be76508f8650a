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

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

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
        control_base_(per_direction.TransferTime(ControlWireBytes())),
        down_(sim),
        up_(sim) {}

  PcieLink(const PcieLink&) = delete;
  PcieLink& operator=(const PcieLink&) = delete;

  // Sends a data burst. The burst may not start before `ready`; `cb` fires
  // when the last TLP has been delivered. Returns that delivery time.
  template <typename F = std::nullptr_t>
  SimTime TransferAt(SimTime ready, LinkDir dir, uint64_t payload_bytes, Divisor mtu,
                     F&& cb = nullptr) {
    const Segmentation seg = Segment(payload_bytes, mtu);
    return TransferServedAt(ready, dir, payload_bytes, seg, BurstServiceTime(seg.wire, ready),
                            std::forward<F>(cb));
  }

  template <typename F = std::nullptr_t>
  SimTime Transfer(LinkDir dir, uint64_t payload_bytes, Divisor mtu, F&& cb = nullptr) {
    return TransferAt(sim_->now(), dir, payload_bytes, mtu, std::forward<F>(cb));
  }

  // TransferAt for a burst whose segmentation and full service time
  // (BurstServiceTime(seg.wire, ready)) the caller has already computed: a
  // PciePath works both out once per burst and hop, and the link must not
  // compute it again.
  template <typename F = std::nullptr_t>
  SimTime TransferServedAt(SimTime ready, LinkDir dir, uint64_t payload_bytes,
                           const Segmentation& seg, SimTime service, F&& cb = nullptr) {
    Account(dir, seg.tlps, payload_bytes, seg.wire);
    const SimTime delivered = Server(dir).EnqueueAt(ready, service) + propagation_;
    sim_->AtIfAny(delivered, std::forward<F>(cb));
    return delivered;
  }

  // Sends a single header-only control TLP (read request, doorbell, CQE
  // notification …).
  template <typename F = std::nullptr_t>
  SimTime TransferControlAt(SimTime ready, LinkDir dir, F&& cb = nullptr) {
    Account(dir, 1, 0, ControlWireBytes());
    const SimTime done = Server(dir).EnqueueAt(ready, Degrade(control_base_, ready));
    const SimTime delivered = done + propagation_;
    sim_->AtIfAny(delivered, std::forward<F>(cb));
    return delivered;
  }

  template <typename F = std::nullptr_t>
  SimTime TransferControl(LinkDir dir, F&& cb = nullptr) {
    return TransferControlAt(sim_->now(), dir, std::forward<F>(cb));
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

  SimTime BusyTime(LinkDir dir) const { return (dir == LinkDir::kDown ? down_ : up_).busy_time(); }

  // Serialization time of `wire_bytes`, stretched by any fault-degrade
  // window active at `at`. Reduces to bandwidth().TransferTime() exactly
  // when no injector is attached. The memoized lookups below, which this
  // link and PciePath's cut-through head/tail math use, return exactly
  // this, so the two always agree on a burst's service time.
  SimTime ServiceTime(uint64_t wire_bytes, SimTime at) const {
    return Degrade(bandwidth_.TransferTime(wire_bytes), at);
  }

  // ServiceTime of a whole burst and of its head TLP, through one memo
  // each: the bursts on a link mostly repeat one size (a stream of 4 KiB
  // sub-reads), so the division runs only when the size changes. The
  // degrade window is still read per call.
  SimTime BurstServiceTime(uint64_t wire_bytes, SimTime at) {
    return Degrade(burst_memo_.Get(bandwidth_, wire_bytes), at);
  }
  SimTime HeadTlpServiceTime(uint64_t head_wire, SimTime at) {
    return Degrade(head_memo_.Get(bandwidth_, head_wire), at);
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
    reg->Register(name_ + ".down", *this, DirRows<LinkDir::kDown>());
    reg->Register(name_ + ".up", *this, DirRows<LinkDir::kUp>());
  }

 private:
  template <LinkDir D>
  static std::span<const MetricsRegistry::Row<PcieLink>> DirRows() {
    using L = PcieLink;
    static constexpr MetricsRegistry::Row<L> kRows[] = {
        {"tlps", "count", [](const L& l) -> double { return l.counters(D).tlps; }},
        {"payload_bytes", "bytes",
         [](const L& l) -> double { return l.counters(D).payload_bytes; }},
        {"wire_bytes", "bytes", [](const L& l) -> double { return l.counters(D).wire_bytes; }},
        {"busy_us", "us", [](const L& l) { return ToMicros(l.BusyTime(D)); }},
        {"utilization", "fraction", [](const L& l) {
           const SimTime t = l.sim_->now();
           return t > 0 ? static_cast<double>(l.BusyTime(D)) / static_cast<double>(t) : 0.0;
         }},
    };
    return kRows;
  }

  // The last (wire bytes -> undegraded service time) pair asked for. It
  // hands back the value the division gave, so it is exact, where a
  // reciprocal of the bandwidth would round some picoseconds differently.
  class ServiceMemo {
   public:
    SimTime Get(Bandwidth bw, uint64_t wire_bytes) {
      if (wire_bytes != wire_bytes_) {
        wire_bytes_ = wire_bytes;
        service_ = bw.TransferTime(wire_bytes);
      }
      return service_;
    }

   private:
    uint64_t wire_bytes_ = 0;
    SimTime service_ = 0;  // TransferTime(0)
  };

  // Stretches an undegraded service time by the fault-degrade window
  // active at `at`; the identity when no injector is attached.
  SimTime Degrade(SimTime base, SimTime at) const {
    const fault::FaultInjector* const inj = sim_->faults();
    if (inj == nullptr) {
      return base;
    }
    const double scale = inj->ServiceScale(name_, at);
    return scale == 1.0 ? base
                        : static_cast<SimTime>(static_cast<double>(base) * scale);
  }

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
  SimTime control_base_;  // undegraded service of one control TLP
  ServiceMemo burst_memo_;
  ServiceMemo head_memo_;
  BusyServer down_;
  BusyServer up_;
  LinkCounters down_counters_;
  LinkCounters up_counters_;
  bool lossy_ = false;
};

}  // namespace snicsim

#endif  // SRC_PCIE_LINK_H_

// Multi-hop PCIe routes.
//
// A PciePath is an ordered list of (link, direction) hops joined by switch
// traversals. Bursts are forwarded cut-through at TLP granularity: the head
// TLP advances hop by hop while the tail is still serializing behind it, so
// end-to-end latency ≈ bottleneck serialization + the sum of propagation and
// switch-forwarding delays. Every hop's per-direction byte/TLP counters are
// charged for the full burst — that per-link accounting is exactly what
// exposes the "path ③ crosses PCIe1 twice" bottleneck (paper §3.3).
#ifndef SRC_PCIE_PATH_H_
#define SRC_PCIE_PATH_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <utility>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/fault/injector.h"
#include "src/obs/trace.h"
#include "src/pcie/link.h"
#include "src/sim/simulator.h"

namespace snicsim {

// A PCIe switch: a named forwarding element with a fixed per-traversal
// delay (150–200 ns on BlueField-2 per the paper, citing [36]).
class PcieSwitch {
 public:
  PcieSwitch(std::string name, SimTime forward_delay)
      : name_(std::move(name)), forward_delay_(forward_delay) {}

  SimTime forward_delay() const { return forward_delay_; }
  const std::string& name() const { return name_; }
  uint64_t forwards() const { return forwards_; }
  void CountForward(uint64_t n = 1) { forwards_ += n; }

  void RegisterMetrics(MetricsRegistry* reg) {
    static constexpr MetricsRegistry::Row<PcieSwitch> kRows[] = {
        {"forwards", "count", [](const PcieSwitch& s) -> double { return s.forwards_; }},
    };
    reg->Register(name_, *this, kRows);
  }

 private:
  std::string name_;
  SimTime forward_delay_;
  uint64_t forwards_ = 0;
};

class PciePath {
 public:
  struct Hop {
    PcieLink* link = nullptr;
    LinkDir dir = LinkDir::kDown;
    // Switch traversed before entering this link (nullptr for the first hop
    // out of an endpoint or when links join without a switch).
    PcieSwitch* via = nullptr;
  };

  // Hops live inline, so a path is a plain value that copies without
  // touching the allocator, and so does every Fabric::Route. Testbed routes
  // are one or two links (endpoint -> switch -> endpoint); the third slot
  // admits a route through two switches.
  static constexpr size_t kMaxHops = 3;

  PciePath() = default;

  PciePath& Add(PcieLink* link, LinkDir dir, PcieSwitch* via = nullptr) {
    SNIC_CHECK_LT(size_, kMaxHops);
    hops_[size_++] = Hop{link, dir, via};
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::span<const Hop> hops() const { return {hops_.data(), size_}; }

  // Pure latency of the route (propagation + switch forwarding), excluding
  // serialization and queueing.
  SimTime BaseLatency() const {
    SimTime t = 0;
    for (const Hop& h : hops()) {
      if (h.via != nullptr) {
        t += h.via->forward_delay();
      }
      t += h.link->propagation();
    }
    return t;
  }

  // Pushes a data burst along the path; `cb` fires when the last TLP reaches
  // the far end. An empty path models CPU/memory on the same die (zero cost).
  // A burst lost to fault injection never arrives: `cb` is discarded (see
  // SmallFunction::Discard) instead of scheduled.
  // `req_id` threads the originating request through to trace spans.
  template <typename F = std::nullptr_t>
  SimTime TransferAt(Simulator* sim, SimTime ready, uint64_t payload_bytes, Divisor mtu,
                     F&& cb = nullptr, uint64_t req_id = 0) const {
    return Finish(sim, CarryBurst(sim, ready, payload_bytes, mtu, req_id),
                  std::forward<F>(cb));
  }

  // Pushes a single header-only control TLP along the path.
  template <typename F = std::nullptr_t>
  SimTime TransferControlAt(Simulator* sim, SimTime ready, F&& cb = nullptr,
                            uint64_t req_id = 0) const {
    return Finish(sim, CarryControl(sim, ready, req_id), std::forward<F>(cb));
  }

  // The route in the opposite direction (e.g. completion data flowing back).
  // A switch recorded between forward links i and i+1 (as hop i+1's `via`)
  // lies between the same two links in reverse, i.e. becomes the `via` of
  // the reversed hop that enters link i.
  PciePath Reversed() const {
    PciePath r;
    const size_t n = size_;
    for (size_t j = 0; j < n; ++j) {
      const Hop& fwd = hops_[n - 1 - j];
      PcieSwitch* via = (j == 0) ? nullptr : hops_[n - j].via;
      r.Add(fwd.link, Opposite(fwd.dir), via);
    }
    return r;
  }

 private:
  // Where a transfer ended: delivered at `at`, or lost on a lossy hop
  // whose serialization ended at `at`.
  struct Arrival {
    SimTime at;
    bool lost;
  };

  // The closure-free half of TransferAt / TransferControlAt, so only this
  // shell is stamped out per callback type: schedule or discard `cb`.
  template <typename F>
  static SimTime Finish(Simulator* sim, Arrival a, F&& cb) {
    if (a.lost) {
      DiscardTarget(cb);
    } else {
      sim->AtIfAny(a.at, std::forward<F>(cb));
    }
    return a.at;
  }

  // The burst is segmented once, and each hop looks its full-burst and
  // head-TLP service times up once (the link memoizes both) and hands the
  // full one to the link. No reciprocal is involved anywhere, so every
  // rounded picosecond matches a per-hop ServiceTime call.
  Arrival CarryBurst(Simulator* sim, SimTime ready, uint64_t payload_bytes, Divisor mtu,
                     uint64_t req_id) const {
    SimTime head = std::max(ready, sim->now());
    if (empty()) {
      return {head, false};
    }
    Tracer* const tr = sim->tracer();
    const Segmentation seg = Segment(payload_bytes, mtu);
    // The delivery time is bounded below by every hop's tail-exit time plus
    // the minimum (head-TLP) traversal of the remaining hops — without this,
    // a fast hop behind a slow one could "finish" before the tail even left
    // the slow link.
    SimTime delivered = head;
    SimTime tail_exit[kMaxHops] = {};    // last TLP leaves hop i (incl. prop)
    SimTime min_forward[kMaxHops] = {};  // min per-hop traversal (first TLP)
    for (size_t i = 0; i < size_; ++i) {
      const Hop& h = hops_[i];
      SimTime via_delay = 0;
      if (h.via != nullptr) {
        via_delay = h.via->forward_delay();
        if (tr != nullptr) {
          tr->Span(h.via->name(), "forward", head, head + via_delay, req_id);
        }
        head += via_delay;
        h.via->CountForward(seg.tlps);
      }
      const SimTime full = h.link->BurstServiceTime(seg.wire, head);
      const SimTime first = h.link->HeadTlpServiceTime(seg.head_wire, head);
      const SimTime entered = head;
      // Charge the link for the full burst; the head TLP exits after `first`.
      const SimTime delivered_full =
          h.link->TransferServedAt(head, h.dir, payload_bytes, seg, full);
      head = delivered_full - (full - first);  // first TLP out
      if (tr != nullptr) {
        tr->Span(h.link->name(), LinkDirName(h.dir), entered, delivered_full, req_id);
      }
      // Fault injection: the burst serialized into this hop (counters and
      // link busy time are charged), but if any frame is lost the burst
      // dies here — later hops never see it and `cb` is discarded. Only
      // lossy (network) links are eligible, and with no injector attached
      // this is a single pointer test.
      if (h.link->lossy()) {
        if (fault::FaultInjector* const inj = sim->faults();
            inj != nullptr && inj->ShouldDropBurst(h.link->name(), seg.tlps, entered)) {
          if (tr != nullptr) {
            tr->Instant(h.link->name(), "drop", delivered_full, req_id);
          }
          return {delivered_full, true};
        }
      }
      tail_exit[i] = delivered_full;
      min_forward[i] = via_delay + first + h.link->propagation();
      delivered = delivered_full;
    }
    // Tail lower bounds: after leaving hop i, the tail still needs at least
    // the head-TLP traversal time of every later hop.
    SimTime suffix = 0;
    for (size_t i = size_; i-- > 0;) {
      delivered = std::max(delivered, tail_exit[i] + suffix);
      suffix += min_forward[i];
    }
    return {delivered, false};
  }

  Arrival CarryControl(Simulator* sim, SimTime ready, uint64_t req_id) const {
    SimTime t = std::max(ready, sim->now());
    Tracer* const tr = sim->tracer();
    for (const Hop& h : hops()) {
      if (h.via != nullptr) {
        if (tr != nullptr) {
          tr->Span(h.via->name(), "forward", t, t + h.via->forward_delay(), req_id);
        }
        t += h.via->forward_delay();
        h.via->CountForward(1);
      }
      const SimTime entered = t;
      t = h.link->TransferControlAt(t, h.dir);
      if (tr != nullptr) {
        tr->Span(h.link->name(), LinkDirName(h.dir), entered, t, req_id);
      }
      // Control TLPs are single-frame; one lost frame kills the message.
      if (h.link->lossy()) {
        if (fault::FaultInjector* const inj = sim->faults();
            inj != nullptr && inj->ShouldDropBurst(h.link->name(), 1, entered)) {
          if (tr != nullptr) {
            tr->Instant(h.link->name(), "drop", t, req_id);
          }
          return {t, true};
        }
      }
    }
    return {t, false};
  }

  std::array<Hop, kMaxHops> hops_{};
  size_t size_ = 0;
};

}  // namespace snicsim

#endif  // SRC_PCIE_PATH_H_

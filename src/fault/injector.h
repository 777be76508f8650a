// The runtime interpreter of a FaultPlan.
//
// The harness creates one FaultInjector per experiment (per sweep point —
// never shared across points, so parallel sweeps stay byte-identical) and
// hangs it off the Simulator. Components consult it at decision points:
// PciePath asks whether a burst entering a lossy link survives, PcieLink
// asks for the degradation scale of a burst's service time, and CPU/NIC
// execution sites ask for the stall deferral of their fault domain. Like the
// Tracer, the hook is nullable — `sim->faults() == nullptr` is the entire
// fault-free overhead, and no code path schedules extra events when faults
// are off (extra events would renumber the DES tie-break sequence and
// perturb fault-free runs).
//
// Determinism: each link draws from its own RNG stream seeded by
// plan.seed ^ FNV(link name), so draws depend only on (plan, per-link burst
// order) — never on cross-link interleaving, wall clock, or sweep job count.
#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <map>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/fault/plan.h"
#include "src/obs/metrics.h"

namespace snicsim {
namespace fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Whole-burst survival decision for `frames` MTU frames entering `link`
  // at `at`. Inside a flap window the burst is dropped without consuming
  // any random draws; otherwise each frame flips its own Bernoulli coin and
  // the loss of any frame kills the burst (the transport retransmits whole
  // operations, so partial bursts never progress).
  bool ShouldDropBurst(const std::string& link, uint64_t frames, SimTime at);

  // Service-time multiplier for a burst submitted on `link` at `at`
  // (product of all active degrade windows; 1.0 when none).
  double ServiceScale(const std::string& link, SimTime at) const;

  // Deferral for work arriving in fault domain `domain` at `at`: the time
  // remaining until every enclosing stall window has ended (0 when none).
  // Domain queries here and in the crash family use the hierarchical
  // DomainMatches rules (src/fault/plan.h): a plan's "soc" window covers
  // every "rack.s<i>.soc" endpoint, and "rack.s<i>" covers both endpoints
  // of server i.
  SimTime StallDelay(const std::string& domain, SimTime at);

  // Crash-window queries (pure; counters live at the consumption sites,
  // which know whether a drop was an arrival or an in-flight kill).
  // Permanent losses fold in as crash windows that never end: a domain hit
  // by a `permloss=` event is CrashedAt from its `at` forever, and CrashKills
  // any span reaching past `at`.
  //
  // Is `domain` dead at instant `at`? Windows are half-open like every
  // other window: at == start is dead, at == end is alive again.
  bool CrashedAt(const std::string& domain, SimTime at) const;
  // Does work in flight on `domain` over [from, to) die? True iff some
  // crash window overlaps the span. A crash starting exactly at `to` does
  // not kill (the reply left before the lights went out), and one ending
  // exactly at `from` doesn't either.
  bool CrashKills(const std::string& domain, SimTime from, SimTime to) const;
  // Is `domain` inside the cold-cache rewarm tail of a crash — i.e. is
  // `at` in [end, end + rewarm) of some window?
  bool InRewarm(const std::string& domain, SimTime at) const;

  const FaultPlan& plan() const { return plan_; }

  uint64_t frames_offered() const { return frames_offered_; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t flap_drops() const { return flap_drops_; }
  uint64_t stall_hits() const { return stall_hits_; }
  SimTime stalled_time() const { return stalled_; }

  // Exposes injection counters under component "faults".
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  Rng& LinkRng(const std::string& link);

  FaultPlan plan_;
  // Lazily-created per-link streams. Ordered map: iteration order never
  // matters (streams are keyed), but keep the container deterministic on
  // principle.
  std::map<std::string, Rng> rngs_;
  uint64_t frames_offered_ = 0;
  uint64_t frames_dropped_ = 0;
  uint64_t bursts_dropped_ = 0;
  uint64_t flap_drops_ = 0;
  uint64_t stall_hits_ = 0;
  SimTime stalled_ = 0;
};

}  // namespace fault
}  // namespace snicsim

#endif  // SRC_FAULT_INJECTOR_H_

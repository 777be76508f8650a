#include "src/fault/injector.h"

#include "src/common/spec.h"

namespace snicsim {
namespace fault {

Rng& FaultInjector::LinkRng(const std::string& link) {
  auto it = rngs_.find(link);
  if (it == rngs_.end()) {
    it = rngs_.emplace(link, Rng(plan_.seed ^ Fnv1a(link))).first;
  }
  return it->second;
}

bool FaultInjector::ShouldDropBurst(const std::string& link, uint64_t frames,
                                    SimTime at) {
  frames_offered_ += frames;
  for (const FlapWindow& w : plan_.flaps) {
    if (at >= w.start && at < w.end && w.link == link) {
      ++flap_drops_;
      ++bursts_dropped_;
      frames_dropped_ += frames;
      return true;
    }
  }
  if (plan_.drop_rate <= 0.0) {
    return false;
  }
  // Draw for every frame even after the burst is already dead: the stream
  // position then depends only on how many frames this link has carried,
  // not on loss outcomes, which keeps replay reasoning simple.
  Rng& rng = LinkRng(link);
  uint64_t dropped = 0;
  for (uint64_t i = 0; i < frames; ++i) {
    if (rng.NextDouble() < plan_.drop_rate) {
      ++dropped;
    }
  }
  if (dropped == 0) {
    return false;
  }
  frames_dropped_ += dropped;
  ++bursts_dropped_;
  return true;
}

double FaultInjector::ServiceScale(const std::string& link, SimTime at) const {
  double scale = 1.0;
  for (const DegradeWindow& w : plan_.degrades) {
    if (at >= w.start && at < w.end && w.link == link) {
      scale *= w.factor;
    }
  }
  return scale;
}

SimTime FaultInjector::StallDelay(const std::string& domain, SimTime at) {
  SimTime resume = at;
  for (const StallWindow& w : plan_.stalls) {
    if (at >= w.start && at < w.end && DomainMatches(w.domain, domain)) {
      resume = std::max(resume, w.end);
    }
  }
  if (resume == at) {
    return 0;
  }
  ++stall_hits_;
  stalled_ += resume - at;
  return resume - at;
}

bool FaultInjector::CrashedAt(const std::string& domain, SimTime at) const {
  for (const CrashWindow& w : plan_.crashes) {
    if (at >= w.start && at < w.end && DomainMatches(w.domain, domain)) {
      return true;
    }
  }
  for (const PermLossEvent& ev : plan_.permlosses) {
    if (at >= ev.at && DomainMatches(ev.domain, domain)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::CrashKills(const std::string& domain, SimTime from,
                               SimTime to) const {
  for (const CrashWindow& w : plan_.crashes) {
    if (w.start < to && from < w.end && DomainMatches(w.domain, domain)) {
      return true;
    }
  }
  for (const PermLossEvent& ev : plan_.permlosses) {
    if (ev.at < to && DomainMatches(ev.domain, domain)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::InRewarm(const std::string& domain, SimTime at) const {
  for (const CrashWindow& w : plan_.crashes) {
    if (at >= w.end && at < w.end + w.rewarm && DomainMatches(w.domain, domain)) {
      return true;
    }
  }
  return false;
}

void FaultInjector::RegisterMetrics(MetricsRegistry* reg) {
  using F = FaultInjector;
  static constexpr MetricsRegistry::Row<F> kRows[] = {
      {"frames_offered", "count", [](const F& f) -> double { return f.frames_offered_; }},
      {"frames_dropped", "count", [](const F& f) -> double { return f.frames_dropped_; }},
      {"bursts_dropped", "count", [](const F& f) -> double { return f.bursts_dropped_; }},
      {"flap_drops", "count", [](const F& f) -> double { return f.flap_drops_; }},
      {"stall_hits", "count", [](const F& f) -> double { return f.stall_hits_; }},
      {"stalled_us", "us", [](const F& f) { return ToMicros(f.stalled_); }},
  };
  reg->Register("faults", *this, kRows);
}

}  // namespace fault
}  // namespace snicsim

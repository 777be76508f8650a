// Conservative parallel DES: one event core per server domain.
//
// The testbed's event space partitions cleanly along machine boundaries —
// a server's host CPU, SoC, NIC, and PCIe tree interact at picosecond
// granularity, but machines only talk over fabric links that carry at least
// one link propagation delay. ParallelSimulator exploits that: each domain
// owns a private Simulator, and domains synchronize only at *horizons*
// spaced by the minimum cross-domain latency (the lookahead), the classic
// conservative null-message bound specialized to a barrier because the
// fabric topology is all-to-all through one switch.
//
// Round protocol:
//   1. m  = min over domains of the earliest pending event time
//   2. H  = m + lookahead                      (the horizon)
//   3. every domain runs RunBefore(H) in parallel — safe because an event
//      executing at u >= m can only produce cross-domain work at
//      u + lookahead >= H, i.e. beyond the horizon
//   4. barrier; its completion step merges the cross-domain events buffered
//      in per-source outboxes in (time, source domain, per-source seq) order
//      into their destination domains, then computes the next horizon
//
// Determinism contract (DESIGN.md §12): within a round each domain touches
// only its own state, and the merge order is a strict total order that does
// not mention threads — so any --sim-threads count, including 1, produces
// byte-identical results. The round structure itself (rounds(), merged(),
// merge_digest()) is likewise thread-count invariant.
#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/sim/callback.h"
#include "src/sim/domain.h"
#include "src/sim/simulator.h"

namespace snicsim {

class ParallelSimulator {
 public:
  // `lookahead` must be positive and no larger than the cheapest
  // cross-domain edge: every Post must land at least `lookahead` after the
  // sending domain's clock. Run() spreads the domains over
  // min(threads, domains) runners, so no runner is left without a domain;
  // `threads <= 1` runs every round on the calling thread alone.
  ParallelSimulator(int domains, SimTime lookahead, int threads = 1);
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  int domains() const { return static_cast<int>(sims_.size()); }
  int threads() const { return threads_; }
  SimTime lookahead() const { return lookahead_; }

  // The domain's private event core. Wire a domain's whole component stack
  // (servers, RNGs, injector, pools) to this Simulator; nothing reachable
  // from it may be shared with another domain (src/sim/domain.h).
  Simulator* domain(DomainId d) { return sims_[static_cast<size_t>(d)].get(); }

  // Schedules `cb` at absolute time `t` in domain `dst`, from code running
  // inside domain `src`. Enforces the lookahead contract:
  // t >= domain(src)->now() + lookahead. The callback is buffered in src's
  // outbox (only src's thread touches it) and delivered at the next
  // barrier; it runs on dst's thread and must not touch src state except
  // as opaque handles.
  // The closure is built straight into its outbox entry, and the merge
  // moves it once more, into its destination's event slot.
  template <typename F>
  void Post(DomainId src, DomainId dst, SimTime t, F&& cb) {
    SNIC_CHECK(HasTarget(cb));
    Outbox& out = OutboxFor(src, dst, t);
    RemoteEvent& ev = out.events.emplace_back();
    ev.time = t;
    ev.src = src;
    ev.dst = dst;
    ev.seq = out.next_seq++;
    ev.cb.Emplace(std::forward<F>(cb));
  }

  // Runs rounds until every domain drains. All setup (initial At() calls
  // into the domains) must happen before; Run is not reentrant. The calling
  // thread is one runner; the other threads() - 1 start here and are joined
  // before Run returns. An exception escaping a callback would strand the
  // other runners at the barrier, so it ends the process instead.
  void Run() noexcept;

  // Round accounting — all thread-count invariant.
  uint64_t rounds() const { return rounds_; }
  uint64_t merged() const { return merged_; }
  // FNV-1a over every merged event's (time, src, dst, seq): a replayable
  // digest of the cross-domain schedule, the parallel analogue of
  // ServingResult::Fingerprint.
  uint64_t merge_digest() const { return merge_digest_; }
  // Sum of per-domain event counts, in domain order.
  uint64_t processed() const;

 private:
  struct Outbox;
  // Checks Post's domain range and lookahead contract; returns src's outbox.
  Outbox& OutboxFor(DomainId src, DomainId dst, SimTime t);
  // m + lookahead over the domains' earliest pending events, or kNoEvent
  // once every domain has drained.
  SimTime NextHorizon() const;
  void MergeOutboxes();

  SimTime lookahead_;
  int threads_;
  std::vector<std::unique_ptr<Simulator>> sims_;

  // Per-source outbox. Within a round only the thread running domain d
  // appends to outboxes_[d]; the merge (the barrier's completion step)
  // drains them. The barrier is the publication point both ways.
  struct Outbox {
    std::vector<RemoteEvent> events;
    uint64_t next_seq = 0;
  };
  std::vector<Outbox> outboxes_;
  // MergeOutboxes' sort keys, reused every round: (src << 32 | index into
  // outboxes_[src].events) breaks time ties in (src, seq) order.
  struct MergeKey {
    SimTime time;
    uint64_t src_index;
  };
  static_assert(sizeof(MergeKey) == 16);
  std::vector<MergeKey> merge_keys_;

  uint64_t rounds_ = 0;
  uint64_t merged_ = 0;
  uint64_t merge_digest_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_PARALLEL_H_

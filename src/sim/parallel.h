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
//   4. barrier; cross-domain events buffered in per-source outboxes are
//      merged in (time, source domain, per-source seq) order and scheduled
//      into their destination domains
//
// Determinism contract (DESIGN.md §12): within a round each domain touches
// only its own state, and the merge order is a strict total order that does
// not mention threads — so any --sim-threads count, including 1, produces
// byte-identical results. The round structure itself (rounds(), merged(),
// merge_digest()) is likewise thread-count invariant.
#ifndef SRC_SIM_PARALLEL_H_
#define SRC_SIM_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/callback.h"
#include "src/sim/domain.h"
#include "src/sim/simulator.h"

namespace snicsim {

class ParallelSimulator {
 public:
  // `lookahead` must be positive and no larger than the cheapest
  // cross-domain edge: every Post must land at least `lookahead` after the
  // sending domain's clock. `threads <= 1` runs rounds inline on the
  // calling thread (the serial reference the determinism tests compare
  // against); larger counts run domains on a persistent pool of
  // min(threads, domains) workers, so no worker is left without a domain.
  ParallelSimulator(int domains, SimTime lookahead, int threads = 1);
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;
  ~ParallelSimulator();

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
  // into the domains) must happen before; Run is not reentrant.
  void Run();

  // Round accounting — all thread-count invariant.
  uint64_t rounds() const { return rounds_; }
  uint64_t merged() const { return merged_; }
  // FNV-1a over every merged event's (time, src, dst, seq): a replayable
  // digest of the cross-domain schedule, the parallel analogue of
  // ServingResult::Fingerprint.
  uint64_t merge_digest() const { return merge_digest_; }
  // Sum of per-domain event counts, in domain order.
  uint64_t processed() const;

  // Exposes sim.domains / sim.rounds / sim.merged_events /
  // sim.lookahead_us under the given instance (DESIGN.md §6).
  void RegisterMetrics(MetricsRegistry* reg, const std::string& instance = "sim");

 private:
  struct Outbox;
  // Checks Post's domain range and lookahead contract; returns src's outbox.
  Outbox& OutboxFor(DomainId src, DomainId dst, SimTime t);
  void RunRound(SimTime horizon);
  void RunDomainRange(SimTime horizon);
  void MergeOutboxes();
  void WorkerLoop();

  SimTime lookahead_;
  int threads_;
  std::vector<std::unique_ptr<Simulator>> sims_;

  // Per-source outbox. Within a round only the thread running domain d
  // appends to outboxes_[d]; the merge (main thread, after the barrier)
  // drains them. The barrier's mutex hand-off is the publication point.
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

  // Worker-pool state. Workers claim domains with next_domain_ and report
  // through done_; generation counts make the condvar waits race-free.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable round_cv_;
  std::condition_variable done_cv_;
  uint64_t round_gen_ = 0;
  SimTime round_horizon_ = 0;
  int done_ = 0;
  bool stop_ = false;
  std::atomic<int> next_domain_{0};

  uint64_t rounds_ = 0;
  uint64_t merged_ = 0;
  uint64_t merge_digest_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_PARALLEL_H_

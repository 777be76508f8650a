// Deterministic weighted-share arbitration of one pooled SoC core set
// across tenants.
//
// Each WeightedArbiter owns `cores` identical SoC cores and one FIFO per
// tenant. Grants use smooth weighted round-robin: every time a core frees
// up (or a job arrives to an idle pool), each *backlogged* tenant earns its
// weight in credits, the tenant with the most credits is granted (ties break
// to the lowest tenant id) and pays back the sum of active weights. This is
// the classic nginx/LVS smooth-WRR schedule: over any window where a set of
// tenants stays backlogged, grants interleave proportionally to weight with
// no bursts, and the decision depends only on (queue occupancy, credits) —
// both pure functions of sim-time-ordered Submit/completion events — so the
// schedule is byte-stable at any --jobs.
//
// The arbiter is intentionally NOT a MultiServer: next-free-time servers
// pick by earliest availability, which is fair but weightless. Tenancy
// needs the opposite — explicit, configurable shares — and the per-tenant
// head-of-line delay (QueueDelay) doubles as the CoDel signal for the
// per-tenant shedders in src/offload/tenancy.cc.
#ifndef SRC_OFFLOAD_ARBITER_H_
#define SRC_OFFLOAD_ARBITER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace snicsim {
namespace offload {

class WeightedArbiter {
 public:
  // `weights[t]` is tenant t's share; all tenants submitting to this pool
  // must be registered up front so credit state is stable.
  WeightedArbiter(Simulator* sim, int cores, std::vector<int> weights);

  WeightedArbiter(const WeightedArbiter&) = delete;
  WeightedArbiter& operator=(const WeightedArbiter&) = delete;

  // Enqueues `service` picoseconds of work for tenant `t`; `done(finish)`
  // fires when a core completes it.
  void Submit(int t, SimTime service, std::function<void(SimTime)> done);

  // Head-of-line wait of tenant t's queue: now - enqueue time of the oldest
  // undispatched job (0 when empty). This is the standing-queue signal the
  // per-tenant CoDel controllers observe.
  SimTime QueueDelay(int t) const;

  // Epoch-autoscaler actuators. SetWeight retunes tenant t's share for all
  // *future* grants (credits carry over, so the smooth-WRR schedule shifts
  // without a burst). SetCores re-provisions the pool: growth frees cores
  // immediately; shrink first takes idle cores and books the remainder as
  // retire debt — the next completions retire their cores instead of
  // re-entering the pool, so running jobs are never killed and every
  // Submit still completes exactly once.
  void SetWeight(int t, int weight);
  void SetCores(int n);

  int cores() const { return cores_; }
  // Total service time granted across all tenants (the pool-utilization
  // signal the autoscaler samples per epoch).
  SimTime busy_total() const { return busy_total_; }
  uint64_t grants(int t) const { return grants_[t]; }
  SimTime busy(int t) const { return busy_[t]; }

 private:
  struct Job {
    SimTime service;
    SimTime enqueued;
    std::function<void(SimTime)> done;
  };

  // Grants queued work to idle cores until one of them runs out.
  void Dispatch();

  Simulator* sim_;
  int cores_;
  int idle_;
  int retire_debt_ = 0;  // completions still owed to a shrink
  std::vector<int> weights_;
  std::vector<int64_t> credits_;
  std::vector<std::deque<Job>> queues_;
  std::vector<uint64_t> grants_;
  std::vector<SimTime> busy_;
  SimTime busy_total_ = 0;
};

}  // namespace offload
}  // namespace snicsim

#endif  // SRC_OFFLOAD_ARBITER_H_

// Hierarchical timer wheel for cancellation-heavy clocks.
//
// The retransmit, epoch, and breaker clocks (src/workload, src/governor)
// arm far more timers than ever fire: the retransmission engine arms one
// timeout per reliable op and almost every one is superseded by a
// completion. On the plain event queue each of those timers costs a push
// and a pop plus a guaranteed stale-event dispatch. The wheel makes arming
// O(1), Cancel O(1), and lets a cancelled timer die without ever reaching
// the Simulator's queue: only a shared per-slot *sentinel* event enters it,
// and all timers that land in one slot amortize it.
//
// Firing-order contract (proved by tests/sim/timer_wheel_test.cc against the
// plain In() path it replaces):
//   * A timer fires at exactly its deadline (sentinels run earlier, but the
//     final hop is sim->At(deadline), so no precision is lost to slotting).
//   * Two timers with the same deadline fire in Schedule() order — the same
//     tie-break the plain path gets from the DES (time, seq) order. This
//     holds because equal-deadline timers provably converge into the same
//     level-0 bucket before release, where the dispatch sorts by
//     (deadline, arm order).
//   Cross-kind ties (a wheel timer vs an unrelated event at the same
//   picosecond) may take a different DES sequence number than a directly
//   armed timer would have; callers for whom that tie matters must arm via
//   sim->At directly.
//
// Thread-safety: none — a wheel belongs to exactly one Simulator (one
// domain, see src/sim/domain.h) and must only be touched from that domain's
// events, like every other component hanging off a Simulator.
#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/sim/callback.h"
#include "src/sim/simulator.h"

namespace snicsim {

class TimerWheel {
 public:
  // Opaque handle for Cancel: packs (generation << 32 | record index), so a
  // stale handle to a recycled record is rejected instead of cancelling an
  // unrelated timer. 0 is never a valid id.
  using TimerId = uint64_t;
  static constexpr TimerId kNoTimer = 0;

  // `tick` is the innermost slot width: timers due within the same tick of
  // each other share a sentinel. It bounds batching, not precision —
  // firing is always exact-time.
  explicit TimerWheel(Simulator* sim, SimTime tick = FromNanos(500));
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms `cb` to run at absolute time `deadline` (>= sim->now()). Like
  // Simulator::At, the closure is built straight into its timer record.
  template <typename F>
  TimerId Schedule(SimTime deadline, F&& cb) {
    SNIC_CHECK(HasTarget(cb));
    const uint32_t idx = Arm(deadline);
    records_[idx].cb.Emplace(std::forward<F>(cb));
    Place(idx, sim_->now());
    return (static_cast<TimerId>(records_[idx].gen) << 32) | idx;
  }

  // After `delay`, like Simulator::In.
  template <typename F>
  TimerId In(SimTime delay, F&& cb) {
    return Schedule(sim_->now() + delay, std::forward<F>(cb));
  }

  // O(1): marks the timer dead; its record is reclaimed lazily the next
  // time its bucket is scanned. Returns false if the id is stale (already
  // fired, already cancelled, or recycled) — callers may Cancel
  // unconditionally on completion paths.
  bool Cancel(TimerId id);

  Simulator* sim() const { return sim_; }
  SimTime tick() const { return tick_; }

  // Live = scheduled - fired - reclaimed-after-cancel.
  size_t live() const { return live_; }
  uint64_t scheduled() const { return scheduled_; }
  uint64_t fired() const { return fired_; }
  uint64_t cancelled() const { return cancelled_; }
  // Heap events actually consumed: per-slot sentinels + exact-time release
  // hops. The wheel's win is this staying far below `scheduled` when most
  // timers cancel.
  uint64_t sentinels() const { return sentinels_; }
  uint64_t cascades() const { return cascades_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64 slots per level
  static constexpr int kLevels = 6;              // tick << 36 total span
  static constexpr SimTime kNoSentinel = -1;
  static constexpr uint32_t kNil = ~0u;  // end of a bucket's timer list

  enum class State : uint8_t { kFree, kQueued, kReleased };

  struct Timer {
    SimTime deadline = 0;
    uint64_t order = 0;    // global arm counter: the equal-deadline tie-break
    uint32_t gen = 1;      // recycle guard, part of the public TimerId
    uint32_t next = kNil;  // the next timer in its bucket, in arrival order
    State state = State::kFree;
    bool cancelled = false;
    SimCallback cb;
  };

  // A bucket is an intrusive FIFO list through Timer::next, so it holds no
  // storage of its own: a bucket that once held a burst keeps nothing after
  // it drains, and queueing a timer never allocates.
  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    // Earliest pending sentinel for this bucket (kNoSentinel when none).
    // Invariant: whenever the bucket is non-empty, a sentinel is pending at
    // or before the earliest member's slot start, so no timer is ever
    // scanned later than its own slot.
    SimTime next_sentinel = kNoSentinel;
  };

  SimTime Width(int level) const {
    return tick_ << (kSlotBits * level);
  }
  SimTime SlotStart(int level, SimTime deadline) const {
    return deadline - deadline % Width(level);
  }

  uint32_t AllocRecord();
  void FreeRecord(uint32_t idx);
  // Places `idx` as seen from time `now`: the coarsest level whose slot
  // start still lies in the future, or the level-0 bucket with an immediate
  // sentinel when the deadline's innermost slot has already begun.
  void Place(uint32_t idx, SimTime now);
  // Schedule's untyped half: checks `deadline`, takes a record and stamps
  // its deadline and arm order. The caller fills in the closure.
  uint32_t Arm(SimTime deadline);
  void Append(Bucket& b, uint32_t idx);
  void ArmSentinel(int level, int bucket_index, SimTime at);
  // Sentinel body: drain everything whose slot has started — cascade from
  // level > 0, release exact-time events from level 0 in (deadline, order).
  void Process(int level, int bucket_index, SimTime at);
  void Release(uint32_t idx);

  Simulator* sim_;
  SimTime tick_;
  std::vector<Bucket> levels_[kLevels];
  std::vector<Timer> records_;
  std::vector<uint32_t> free_;
  // Process's scratch for the due timers: no sentinel runs inside another,
  // so one serves them all and stops allocating once warm.
  std::vector<uint32_t> due_;

  uint64_t next_order_ = 0;
  size_t live_ = 0;
  uint64_t scheduled_ = 0;
  uint64_t fired_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t sentinels_ = 0;
  uint64_t cascades_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_TIMER_WHEEL_H_

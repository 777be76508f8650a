// Deterministic discrete-event simulation kernel.
//
// Events are (time, sequence) ordered: two events at the same simulated time
// fire in scheduling order, making every run bit-reproducible regardless of
// queue internals. Callbacks are type-erased closures; components schedule
// follow-up work from inside callbacks.
//
// Hot-path layout: the closures live in a slab of stable slots, constructed
// once at schedule time and invoked in place at dispatch, and each slot has
// a 16-byte queue node (time, seq, next) in an array beside the slab. The
// queue orders nodes, never closures; closures up to
// SimCallback::kInlineBytes never touch the allocator, and freed slots are
// recycled through a free list, so a steady-state experiment runs with no
// per-event allocation at all.
//
// Events scheduled at exactly now() — token grants, zero-delay hand-offs,
// a large share of all schedules — append to a FIFO lane, which is already
// in (time, seq) order because every lane entry carries time == now() and a
// fresh, larger seq. Every later event goes to a monotone radix queue
// (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990), which needs only that the
// clock never runs backwards. Let last_ be the time of the last event taken
// from it. Bucket 0 holds the events at exactly last_, sorted by seq;
// bucket i >= 1 holds the events whose time first differs from last_ at
// bit i-1, as an unordered intrusive list through the nodes, with its
// minimum time recorded on push. Every time in bucket i is below every time
// in bucket i+1, so the lowest non-empty bucket (one ctz of a 64-bit mask)
// holds the minimum. A pop that finds bucket 0 empty drains that lowest
// bucket in one pass: last_ moves to its minimum, the events at exactly
// that time become bucket 0 (one sort by seq), and the rest drop to lower
// buckets, so each event descends a handful of buckets in its lifetime.
// Equal times always share a bucket, so the seq sort makes the order exact.
// last_ moves only on a pop: a peek (next_event_time(), which the parallel
// core reads before merging events below that minimum) changes nothing.
//
// Dispatch takes the lane front unless the queue's minimum is also at
// now(); such an event was scheduled before the clock reached now(), so
// its seq is below every lane entry's, and the order is exactly (time,
// seq). A warm simulator allocates nothing: nodes grow with the slab
// chunks, bucket lists live in the nodes, and the lane and bucket 0 reuse
// their vectors' capacity.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/sim/callback.h"

namespace snicsim {

class Tracer;  // src/obs/trace.h — attached by the harness when tracing is on
class TimerWheel;  // src/sim/timer_wheel.h — the simulator's own, see timers()
namespace fault {
class FaultInjector;  // src/fault/injector.h — attached when a plan is set
}

// Thread-safety: none. A Simulator and everything reachable from its events
// form one *domain* (src/sim/domain.h) that must be driven by at most one
// thread at a time. ParallelSimulator (src/sim/parallel.h) runs many
// Simulators concurrently but hands each one to a single worker per round —
// that barrier discipline, not locking here, is what keeps parallel runs
// both safe and byte-identical to serial ones.
class Simulator {
 public:
  using Callback = SimCallback;

  Simulator() {
    head_.fill(kNil);
    min_.fill(kNoEvent);
  }
  ~Simulator();  // src/sim/timer_wheel.cc, where TimerWheel is complete
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` at absolute time `t` (>= now). `cb` must be non-empty.
  // A closure is constructed straight into its slot; a Callback is moved
  // there once.
  template <typename F>
  void At(SimTime t, F&& cb) {
    SNIC_CHECK(HasTarget(cb));
    const uint32_t slot = NewSlot(t);
    SlotAt(slot).Emplace(std::forward<F>(cb));
    Enqueue(slot);
  }

  // Schedules `cb` after `delay`.
  template <typename F>
  void In(SimTime delay, F&& cb) {
    At(now_ + delay, std::forward<F>(cb));
  }

  // At(t, cb) for an optional callback: does nothing when `cb` is nullptr
  // or an empty Callback (see HasTarget). The pass-through layers finish
  // with this.
  template <typename F>
  void AtIfAny(SimTime t, F&& cb) {
    if constexpr (!std::is_same_v<std::decay_t<F>, std::nullptr_t>) {
      if (HasTarget(cb)) {
        At(t, std::forward<F>(cb));
      }
    }
  }

  // True when no event is due at now(): the zero-delay lane is empty and
  // every queued event is later. An event dispatched now that ends by
  // scheduling zero-delay work knows, when this holds, that the work would
  // be dispatched next, in scheduling order, ahead of anything it
  // schedules itself (see NicEndpoint's tail-issued grants).
  bool NothingDueNow() const { return lane_head_ == lane_.size() && QueueTop() > now_; }

  // Runs until the event queue drains.
  void Run() {
    while (!empty()) {
      Step();
    }
  }

  // Runs all events with time <= t, then advances the clock to exactly t.
  void RunUntil(SimTime t) {
    while (!empty() && next_event_time() <= t) {
      Step();
    }
    SNIC_CHECK_GE(t, now_);
    now_ = t;
  }

  void RunFor(SimTime d) { RunUntil(now_ + d); }

  // Runs all events with time strictly before `t`, then advances the clock
  // to exactly t. The parallel core's round primitive: `t` is the
  // conservative horizon, and the exclusive bound is what makes it safe —
  // every cross-domain event generated this round lands at >= t (the
  // lookahead contract, src/sim/parallel.h), so an event at exactly t may
  // still be merged in from another domain and must not have been passed.
  void RunBefore(SimTime t) {
    while (!empty() && next_event_time() < t) {
      Step();
    }
    SNIC_CHECK_GE(t, now_);
    now_ = t;
  }

  // Sentinel for next_event_time() on an empty queue: later than any
  // schedulable time.
  static constexpr SimTime kNoEvent = INT64_MAX;

  // Earliest pending event time (kNoEvent when idle). The horizon
  // computation reads this for every domain between rounds.
  SimTime next_event_time() const {
    // A lane entry is always at now(), which no queued event precedes.
    return lane_head_ < lane_.size() ? now_ : QueueTop();
  }

  bool empty() const { return mask_ == 0 && lane_head_ == lane_.size(); }
  uint64_t processed() const { return processed_; }

  // Nullable observability hook. Components emit trace events iff non-null;
  // the single pointer test is the entire disabled-mode overhead.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* t) { tracer_ = t; }

  // Nullable fault-injection hook, same pattern as the tracer: components
  // consult the injector iff non-null, and with it unset no fault code path
  // may schedule events or draw randomness — runs stay bit-identical to a
  // fault-free build.
  fault::FaultInjector* faults() const { return faults_; }
  void set_faults(fault::FaultInjector* f) { faults_ = f; }

  // The timer wheel every cancellation-heavy clock (retransmit timeouts,
  // retry timers, governor epochs) arms through. It fires at exact
  // deadlines with queue-equivalent timer ordering (src/sim/timer_wheel.h).
  // Built on first use, so a simulator that arms no timer pays nothing;
  // callers include src/sim/timer_wheel.h.
  TimerWheel& timers() {
    if (timers_ == nullptr) [[unlikely]] {
      timers_ = NewTimerWheel();
    }
    return *timers_;
  }

 private:
  friend class SimulatorTestPeer;  // tests fast-forward next_seq_ to the
                                   // renumber threshold

  TimerWheel* NewTimerWheel();  // src/sim/timer_wheel.cc

  // At()'s closure-free halves, so only the Emplace between them is
  // stamped out per closure type: take a free slot and stamp its key ...
  uint32_t NewSlot(SimTime t) {
    SNIC_CHECK_GE(t, now_);
    if (next_seq_ >= kSeqRenumberAt) [[unlikely]] {
      RenumberSeqs();
    }
    const uint32_t slot = AllocSlot();
    nodes_[slot].time = t;
    nodes_[slot].seq = next_seq_++;
    return slot;
  }

  // ... then queue it: the lane at now(), the radix queue later.
  void Enqueue(uint32_t slot) {
    if (nodes_[slot].time == now_) {
      lane_.push_back(slot);
      return;
    }
    Push(slot);
  }

  // The queue node of one slot: its dispatch key and its bucket-list link.
  // The closure stays put in its slot; 16 bytes keep four nodes per line.
  struct Node {
    SimTime time;
    uint32_t seq;
    uint32_t next;  // next slot in the same bucket list, kNil at its end
  };
  static_assert(sizeof(Node) == 16);
  static constexpr uint32_t kNil = UINT32_MAX;

  // Seqs break ties between listed events at one time (Refill's sort).
  // That is exact because a seq never reaches 2^31: At() renumbers before
  // the counter gets there, so plain unsigned order is scheduling order for
  // any schedule count and any event lifetime (a far-future timer stays
  // ordered against events scheduled billions of At() calls later).
  //
  // Only the bucket lists need new seqs. Lane entries are ordered by their
  // place in the lane, and bucket 0 is already sorted and takes no event
  // until it drains, so neither compares a seq again. Renumbering the lists
  // by old seq keeps their order. Amortized cost: one O(n log n) sort per
  // ~2^31 schedules, i.e. effectively free.
  [[gnu::noinline]] void RenumberSeqs() {
    std::vector<uint32_t> listed;
    for (uint64_t m = mask_ & ~uint64_t{1}; m != 0; m &= m - 1) {
      for (uint32_t s = head_[std::countr_zero(m)]; s != kNil; s = nodes_[s].next) {
        listed.push_back(s);
      }
    }
    std::sort(listed.begin(), listed.end(),
              [this](uint32_t a, uint32_t b) { return nodes_[a].seq < nodes_[b].seq; });
    next_seq_ = 0;
    for (uint32_t s : listed) {
      nodes_[s].seq = next_seq_++;
    }
  }

  static constexpr uint32_t kSeqRenumberAt = 1u << 31;

  // Earliest queued time: bucket 0's (last_) or the lowest list's minimum.
  SimTime QueueTop() const { return mask_ == 0 ? kNoEvent : min_[std::countr_zero(mask_)]; }

  // Links `slot` (time > last_) into bucket bit_width(time ^ last_), in
  // [1, 63]: times are non-negative, so the top bucket takes every time
  // that first differs from last_ at bit 62.
  void Push(uint32_t slot) {
    Node& n = nodes_[slot];
    const int b = std::bit_width(static_cast<uint64_t>(n.time ^ last_));
    n.next = head_[b];
    head_[b] = slot;
    min_[b] = std::min(min_[b], n.time);
    mask_ |= uint64_t{1} << b;
  }

  // Empties bucket `b`, the lowest non-empty one with bucket 0 empty, in
  // one pass: last_ moves to its minimum, the events at exactly that time
  // become bucket 0 in seq order, and every other event drops to a lower
  // bucket (it now first differs from last_ below bit b-1).
  void Refill(int b) {
    const SimTime m = min_[b];
    uint32_t slot = head_[b];
    head_[b] = kNil;
    min_[b] = kNoEvent;
    mask_ &= mask_ - 1;
    last_ = m;
    while (slot != kNil) {
      const uint32_t next = nodes_[slot].next;
      if (nodes_[slot].time == m) {
        due_.push_back(slot);
      } else {
        Push(slot);
      }
      slot = next;
    }
    if (due_.size() > 1) {
      std::sort(due_.begin(), due_.end(),
                [this](uint32_t a, uint32_t c) { return nodes_[a].seq < nodes_[c].seq; });
    }
    min_[0] = m;
    mask_ |= 1;
  }

  // Takes the queue's next event in (time, seq) order.
  uint32_t PopQueued() {
    if ((mask_ & 1) == 0) {
      const int b = std::countr_zero(mask_);
      const uint32_t lone = head_[b];
      if (nodes_[lone].next == kNil) {  // a lone event is the minimum: no pass
        last_ = nodes_[lone].time;
        head_[b] = kNil;
        min_[b] = kNoEvent;
        mask_ &= mask_ - 1;
        return lone;
      }
      Refill(b);
    }
    const uint32_t slot = due_[due_head_++];
    if (due_head_ == due_.size()) {
      due_.clear();
      due_head_ = 0;
      mask_ &= ~uint64_t{1};
    }
    return slot;
  }

  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // slots per chunk

  Callback& SlotAt(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  uint32_t AllocSlot() {
    if (free_slots_.empty()) [[unlikely]] {
      AddChunk();
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  // Chunked growth keeps existing slots at stable addresses: a callback is
  // constructed in place once and never relocated by later growth.
  [[gnu::noinline]] void AddChunk() {
    const uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
    nodes_.resize(nodes_.size() + kChunkSize);
    free_slots_.reserve(free_slots_.size() + kChunkSize);
    for (uint32_t i = kChunkSize; i > 0; --i) {
      free_slots_.push_back(base + i - 1);
    }
  }

  uint32_t PopLane() {
    const uint32_t slot = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    return slot;
  }

  void Step() {
    // The lane front, unless a queued event is also at now(): that one was
    // scheduled before the clock got here, so its seq is the lower.
    const uint32_t slot =
        lane_head_ < lane_.size() && now_ < QueueTop() ? PopLane() : PopQueued();
    const SimTime t = nodes_[slot].time;
    SNIC_CHECK_GE(t, now_);
    now_ = t;
    ++processed_;
    // The closure runs in place in its slot; the slot returns to the free
    // list only afterwards, so reentrant scheduling from inside the
    // callback can never overwrite a running closure. Slot storage is
    // chunk-stable, so growth during the callback cannot relocate it.
    SlotAt(slot).CallOnce();
    free_slots_.push_back(slot);
  }

  // Radix queue: bit b of mask_ is set iff bucket b is non-empty. Bucket 0
  // is due_[due_head_..] (min_[0] == last_ while it is); bucket b >= 1 is
  // the list from head_[b] with minimum time min_[b].
  uint64_t mask_ = 0;
  std::array<uint32_t, 64> head_;
  std::array<SimTime, 64> min_;
  std::vector<uint32_t> due_;
  size_t due_head_ = 0;
  SimTime last_ = 0;
  // FIFO of slots scheduled at exactly now(); lane_[lane_head_..] pending.
  std::vector<uint32_t> lane_;
  size_t lane_head_ = 0;
  std::vector<Node> nodes_;  // one per slot
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  Tracer* tracer_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
  TimerWheel* timers_ = nullptr;  // owned; built by timers()
  SimTime now_ = 0;
  uint32_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_SIMULATOR_H_

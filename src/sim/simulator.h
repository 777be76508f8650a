// Deterministic discrete-event simulation kernel.
//
// Events are (time, sequence) ordered: two events at the same simulated time
// fire in scheduling order, making every run bit-reproducible regardless of
// heap internals. Callbacks are type-erased closures; components schedule
// follow-up work from inside callbacks.
//
// Hot-path layout: a 4-ary min-heap orders 16-byte POD handles
// (time, seq, slot) while the closures themselves live in a slab of stable
// slots, constructed once at schedule time and invoked in place at
// dispatch. Sift operations therefore shuffle PODs instead of type-erased
// closures (at half the depth of a binary heap), closures up to
// SimCallback::kInlineBytes never touch the allocator, and freed slots are
// recycled through a free list, so a steady-state experiment runs with no
// per-event allocation at all.
//
// Events scheduled at exactly now() — token grants, zero-delay hand-offs,
// a large share of all schedules — skip the heap: they append to a FIFO
// lane, which is already in (time, seq) order because every lane entry
// carries time == now() and a fresh, larger seq. Dispatch takes whichever
// of the lane front and the heap root is smaller in (time, seq), so the
// order is exactly the one a single heap would produce. The heap pop is
// Floyd's bottom-up variant: the hole left by the root descends along the
// smaller child to a leaf without comparing against the displaced last
// element, which then sifts up the (usually very short) way back.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/sim/callback.h"

namespace snicsim {

class Tracer;  // src/obs/trace.h — attached by the harness when tracing is on
class TimerWheel;  // src/sim/timer_wheel.h — attached for cancel-heavy clocks
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

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `cb` at absolute time `t` (>= now). `cb` must be non-empty.
  void At(SimTime t, Callback cb) {
    SNIC_CHECK_GE(t, now_);
    SNIC_CHECK(cb != nullptr);
    if (next_seq_ >= kSeqRenumberAt) {
      RenumberSeqs();
    }
    const uint32_t slot = AllocSlot();
    SlotAt(slot) = std::move(cb);
    const EventHandle ev{t, next_seq_++, slot};
    if (t == now_) {
      lane_.push_back(ev);
      return;
    }
    heap_.push_back(ev);
    SiftUp(heap_.size() - 1);
  }

  // Schedules `cb` after `delay`.
  void In(SimTime delay, Callback cb) { At(now_ + delay, std::move(cb)); }

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
    // A lane entry is always at now(), which no heap entry precedes.
    if (lane_head_ < lane_.size()) {
      return lane_[lane_head_].time;
    }
    return heap_.empty() ? kNoEvent : heap_.front().time;
  }

  bool empty() const { return heap_.empty() && lane_head_ == lane_.size(); }
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

  // Nullable timer-wheel hook, same pattern again: cancellation-heavy
  // clocks (retransmit timeouts, governor epochs) arm through the wheel iff
  // one is attached and fall back to plain In() otherwise. The wheel fires
  // at exact deadlines with heap-equivalent timer ordering
  // (src/sim/timer_wheel.h), so attaching one may only perturb a run
  // through the DES tie-break seq of same-picosecond cross-kind ties.
  TimerWheel* timer_wheel() const { return timer_wheel_; }
  void set_timer_wheel(TimerWheel* w) { timer_wheel_ = w; }

 private:
  friend class SimulatorTestPeer;  // tests fast-forward next_seq_ to the
                                   // renumber threshold

  // POD handle the heap and the lane order; the closure stays put in its
  // slot. 16 bytes so a 64-byte cache line holds four of them — one 4-ary
  // heap node.
  struct EventHandle {
    SimTime time;
    uint32_t seq;
    uint32_t slot;
  };
  static_assert(sizeof(EventHandle) == 16);

  // Dispatch order on (time, seq) as one unsigned 128-bit integer. Exact
  // because time is never negative and seq never reaches 2^31: At()
  // renumbers pending events before the counter gets there, so every live
  // seq lies in [0, 2^31) and plain unsigned order is scheduling order,
  // for any schedule count and any event lifetime (a far-future timer
  // stays ordered against events scheduled billions of At() calls later).
  __extension__ using Key = unsigned __int128;
  static Key KeyOf(const EventHandle& e) {
    return (static_cast<Key>(static_cast<uint64_t>(e.time)) << 64) | e.seq;
  }
  static bool Before(const EventHandle& a, const EventHandle& b) {
    return KeyOf(a) < KeyOf(b);
  }

  // Compacts pending seqs, heap and lane alike, to [0, pending). Invoked
  // from At() whenever next_seq_ reaches 2^31. Amortized cost: one
  // O(n log n) sort per ~2^31 schedules, i.e. effectively free.
  void RenumberSeqs() {
    // A sorted array is a valid d-ary min-heap, so sorting restores the
    // heap invariant for free; the lane is already sorted. Merging the two
    // assigns new seqs in exact dispatch order.
    std::sort(heap_.begin(), heap_.end(), Before);
    uint32_t seq = 0;
    size_t h = 0;
    size_t l = lane_head_;
    while (h < heap_.size() || l < lane_.size()) {
      if (l == lane_.size() || (h < heap_.size() && Before(heap_[h], lane_[l]))) {
        heap_[h++].seq = seq++;
      } else {
        lane_[l++].seq = seq++;
      }
    }
    next_seq_ = seq;
  }

  static constexpr uint32_t kSeqRenumberAt = 1u << 31;

  // Hand-rolled 4-ary sift operations: half the levels of a binary heap, so
  // a pop at figure-bench queue depths touches half as many cache lines,
  // and all four children of a node share one line.
  void SiftUp(size_t i) {
    const EventHandle v = heap_[i];
    const Key k = KeyOf(v);
    while (i > 0) {
      const size_t parent = (i - 1) >> 2;
      if (!(k < KeyOf(heap_[parent]))) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  // Index (0..3) of the smallest of four sibling handles, without branches
  // on the comparisons.
  static size_t MinOf4(const EventHandle* c) {
    const Key k0 = KeyOf(c[0]);
    const Key k1 = KeyOf(c[1]);
    const Key k2 = KeyOf(c[2]);
    const Key k3 = KeyOf(c[3]);
    const bool b01 = k1 < k0;
    const bool b23 = k3 < k2;
    const Key lo = b01 ? k1 : k0;
    const Key hi = b23 ? k3 : k2;
    const size_t i01 = b01 ? 1 : 0;
    const size_t i23 = b23 ? 3 : 2;
    return hi < lo ? i23 : i01;
  }

  // Removes heap_[0], restoring the heap over the remaining elements
  // (Floyd: descend the hole to a leaf, then sift the old last element up).
  void PopRoot() {
    const EventHandle last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return;
    }
    EventHandle* const h = heap_.data();
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      size_t best;
      if (first + 4 <= n) {
        best = first + MinOf4(h + first);
      } else if (first < n) {
        best = first;
        for (size_t c = first + 1; c < n; ++c) {
          if (Before(h[c], h[best])) {
            best = c;
          }
        }
      } else {
        break;
      }
      h[i] = h[best];
      i = best;
    }
    h[i] = last;
    SiftUp(i);
  }

  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // slots per chunk

  Callback& SlotAt(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  uint32_t AllocSlot() {
    if (free_slots_.empty()) {
      // Chunked growth keeps existing slots at stable addresses: a callback
      // is constructed in place once and never relocated by later growth.
      const uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
      chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
      free_slots_.reserve(free_slots_.size() + kChunkSize);
      for (uint32_t i = kChunkSize; i > 0; --i) {
        free_slots_.push_back(base + i - 1);
      }
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  // Takes the next event in (time, seq) order from the lane or the heap.
  EventHandle PopNext() {
    if (lane_head_ < lane_.size() &&
        (heap_.empty() || Before(lane_[lane_head_], heap_.front()))) {
      const EventHandle ev = lane_[lane_head_++];
      if (lane_head_ == lane_.size()) {
        lane_.clear();
        lane_head_ = 0;
      }
      return ev;
    }
    const EventHandle ev = heap_.front();
    PopRoot();
    return ev;
  }

  void Step() {
    const EventHandle ev = PopNext();
    SNIC_CHECK_GE(ev.time, now_);
    now_ = ev.time;
    ++processed_;
    // The closure runs in place in its slot; the slot returns to the free
    // list only afterwards, so reentrant scheduling from inside the
    // callback can never overwrite a running closure. Slot storage is
    // chunk-stable, so growth during the callback cannot relocate it.
    SlotAt(ev.slot).CallOnce();
    free_slots_.push_back(ev.slot);
  }

  std::vector<EventHandle> heap_;
  // FIFO of events scheduled at exactly now(); lane_[lane_head_..] pending.
  std::vector<EventHandle> lane_;
  size_t lane_head_ = 0;
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<uint32_t> free_slots_;
  Tracer* tracer_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
  TimerWheel* timer_wheel_ = nullptr;
  SimTime now_ = 0;
  uint32_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_SIMULATOR_H_

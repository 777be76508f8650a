// Slab allocator for per-event records (WRs, packets, in-flight ops).
//
// The event core already keeps its own callbacks in chunk-stable slabs
// (src/sim/simulator.h); this pool extends the same discipline to the
// workload-side records that ride along with events. Records are
// default-constructed once per chunk, recycled through a free list, and
// never relocated, so steady-state traffic allocates nothing and pointers
// stay valid for the record's whole lifetime. Chunks start small and double
// up to a cap, so a component that keeps a handful of records in flight
// (most of a rack's many engines and endpoints) pays for a handful, and
// nothing is reserved before the first Alloc.
//
// Thread-safety: none — a SlabPool must be owned by exactly one domain and
// touched only from that domain's events (the same affinity rule as every
// other piece of domain state, see src/sim/domain.h). Records that cross
// domains inside closures are opaque until they return home; Alloc and Free
// for one record therefore always run on the owning domain's thread.
#ifndef SRC_SIM_POOL_H_
#define SRC_SIM_POOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/log.h"

namespace snicsim {

template <typename T>
class SlabPool {
 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Hands out a recycled record (state is whatever the previous user left —
  // callers reinitialize the fields they use). O(1) amortized; allocates
  // only when the free list is empty, one chunk at a time.
  T* Alloc() {
    if (free_.empty()) {
      const size_t n = capacity_ == 0 ? kFirstChunk : std::min(capacity_, kMaxChunk);
      chunks_.push_back(std::make_unique<T[]>(n));
      free_.reserve(free_.size() + n);
      for (size_t i = n; i > 0; --i) {
        free_.push_back(&chunks_.back()[i - 1]);
      }
      capacity_ += n;
    }
    T* out = free_.back();
    free_.pop_back();
    ++live_;
    return out;
  }

  // Returns `rec` to the free list. The pointer must have come from this
  // pool's Alloc and must not be freed twice (not checked — records carry
  // no per-slot header by design, they are exactly sizeof(T)).
  void Free(T* rec) {
    SNIC_CHECK_GT(live_, 0u);
    --live_;
    free_.push_back(rec);
  }

  size_t live() const { return live_; }
  size_t capacity() const { return capacity_; }

 private:
  // Chunk sizes run 16, 16, 32, 64, 64, ...: each new chunk doubles
  // capacity until chunks reach kMaxChunk. The cap is kept small on
  // purpose: chunks of a few KiB fit the holes a torn-down testbed leaves
  // in the heap, where 256-record chunks of the larger records pushed the
  // process's peak RSS up.
  static constexpr size_t kFirstChunk = 16;
  static constexpr size_t kMaxChunk = 64;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
  size_t live_ = 0;
  size_t capacity_ = 0;
};

// A SlabPool whose records carry a reuse guard, `uint64_t gen`: Alloc stamps
// it with the pool's next generation (1, 2, ...) and Free zeroes it. A
// handle that kept (record, gen) can then tell whether the slot it points at
// is still the same record, however often the slot has been reused since.
template <typename T>
class GuardedPool {
 public:
  T* Alloc() {
    T* rec = pool_.Alloc();
    rec->gen = ++gen_;
    return rec;
  }
  void Free(T* rec) {
    rec->gen = 0;
    pool_.Free(rec);
  }

  size_t live() const { return pool_.live(); }
  size_t capacity() const { return pool_.capacity(); }

 private:
  SlabPool<T> pool_;
  uint64_t gen_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_POOL_H_

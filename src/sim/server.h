// Deterministic queueing primitives.
//
// Nearly every hardware resource in the simulator — a PCIe link direction, a
// NIC pipeline stage, a DRAM bank, a CPU core — is a serial server with a
// deterministic service time. Instead of simulating queue entries as events,
// a server tracks its next-free time: enqueueing work of duration S that may
// start no earlier than E completes at max(next_free, E, now) + S. This is
// exact for FIFO servers and keeps event counts proportional to *jobs*, not
// queue state transitions.
//
// The primitives carry no names: a machine builds hundreds of them (every
// DRAM bank is one), and the only reader of a name is a trace or metrics
// sink, which formats the lane it wants itself.
#ifndef SRC_SIM_SERVER_H_
#define SRC_SIM_SERVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace snicsim {

// A single FIFO server.
class BusyServer {
 public:
  explicit BusyServer(Simulator* sim) : sim_(sim) {}

  // Enqueues a job of duration `service` that may not start before
  // `earliest`. Returns the completion time; `cb` (optional) fires then.
  template <typename F = std::nullptr_t>
  SimTime EnqueueAt(SimTime earliest, SimTime service, F&& cb = nullptr) {
    SNIC_CHECK_GE(service, 0);
    const SimTime start = std::max({next_free_, earliest, sim_->now()});
    next_free_ = start + service;
    busy_time_ += service;
    ++jobs_;
    sim_->AtIfAny(next_free_, std::forward<F>(cb));
    return next_free_;
  }

  template <typename F = std::nullptr_t>
  SimTime Enqueue(SimTime service, F&& cb = nullptr) {
    return EnqueueAt(sim_->now(), service, std::forward<F>(cb));
  }

  SimTime next_free() const { return std::max(next_free_, sim_->now()); }
  // Queueing delay a job arriving now would see before starting service.
  SimTime Backlog() const { return std::max<SimTime>(0, next_free_ - sim_->now()); }

  SimTime busy_time() const { return busy_time_; }
  uint64_t jobs() const { return jobs_; }

  double Utilization(SimTime window) const {
    return window <= 0 ? 0.0 : static_cast<double>(busy_time_) / static_cast<double>(window);
  }

 private:
  Simulator* sim_;
  SimTime next_free_ = 0;
  SimTime busy_time_ = 0;
  uint64_t jobs_ = 0;
};

// K identical parallel servers fed from one FIFO queue (e.g., a CPU core
// pool or the banks of a DRAM channel when accesses are unconstrained).
// Jobs are dispatched to the earliest-free server.
class MultiServer {
 public:
  MultiServer(Simulator* sim, int servers)
      : sim_(sim), next_free_(static_cast<size_t>(servers), 0) {
    SNIC_CHECK_GT(servers, 0);
  }

  template <typename F = std::nullptr_t>
  SimTime EnqueueAt(SimTime earliest, SimTime service, F&& cb = nullptr) {
    SNIC_CHECK_GE(service, 0);
    // Pick the server that frees first.
    size_t best = 0;
    for (size_t i = 1; i < next_free_.size(); ++i) {
      if (next_free_[i] < next_free_[best]) {
        best = i;
      }
    }
    const SimTime start = std::max({next_free_[best], earliest, sim_->now()});
    next_free_[best] = start + service;
    busy_time_ += service;
    ++jobs_;
    sim_->AtIfAny(next_free_[best], std::forward<F>(cb));
    return next_free_[best];
  }

  template <typename F = std::nullptr_t>
  SimTime Enqueue(SimTime service, F&& cb = nullptr) {
    return EnqueueAt(sim_->now(), service, std::forward<F>(cb));
  }

  // Re-provisions the pool to `n` servers (the epoch autoscaler's host/SoC
  // core actuator). Growth adds servers free at the current time; shrink
  // retires the servers that free *earliest*, so work already dispatched to
  // a retired-late server still completes — jobs are conserved, only future
  // dispatch capacity changes.
  void SetServers(int n) {
    SNIC_CHECK_GT(n, 0);
    while (static_cast<int>(next_free_.size()) < n) {
      next_free_.push_back(sim_->now());
    }
    while (static_cast<int>(next_free_.size()) > n) {
      size_t best = 0;
      for (size_t i = 1; i < next_free_.size(); ++i) {
        if (next_free_[i] < next_free_[best]) {
          best = i;
        }
      }
      next_free_.erase(next_free_.begin() + static_cast<ptrdiff_t>(best));
    }
  }

  int size() const { return static_cast<int>(next_free_.size()); }
  SimTime busy_time() const { return busy_time_; }
  uint64_t jobs() const { return jobs_; }

  // Queueing delay a job arriving now would see before a server frees up
  // (0 when any server is idle).
  SimTime Backlog() const {
    SimTime best = next_free_[0];
    for (size_t i = 1; i < next_free_.size(); ++i) {
      best = std::min(best, next_free_[i]);
    }
    return std::max<SimTime>(0, best - sim_->now());
  }

 private:
  Simulator* sim_;
  std::vector<SimTime> next_free_;
  SimTime busy_time_ = 0;
  uint64_t jobs_ = 0;
};

// A counted resource with FIFO waiters (e.g., NIC processing-unit slots or
// DMA-engine outstanding-read credits). Unlike BusyServer, hold times are
// not known at acquire time: the holder calls Release explicitly.
class TokenPool {
 public:
  TokenPool(Simulator* sim, int tokens) : sim_(sim), available_(tokens), capacity_(tokens) {
    SNIC_CHECK_GT(tokens, 0);
  }

  // Runs `cb` once a token is held (immediately if one is free).
  template <typename F>
  void Acquire(F&& cb) {
    if (available_ > 0) {
      --available_;
      // Defer through the event queue so acquire order == FIFO order even
      // when tokens are free, and callers never reenter synchronously.
      sim_->In(0, std::forward<F>(cb));
    } else {
      waiters_.push_back(std::forward<F>(cb));
      max_waiters_ = std::max(max_waiters_, waiters_.size());
    }
  }

  // Non-blocking acquire: returns true and consumes a token if one is free.
  bool TryAcquire() {
    if (available_ == 0) {
      return false;
    }
    --available_;
    return true;
  }

  void Release() {
    SNIC_CHECK_LT(available_, capacity_);
    if (!waiters_.empty()) {
      // Moved once, from the ring straight into its event slot.
      sim_->In(0, std::move(waiters_.front()));
      waiters_.pop_front();
    } else {
      ++available_;
    }
  }

  int available() const { return available_; }
  int capacity() const { return capacity_; }
  size_t waiting() const { return waiters_.size(); }
  size_t max_waiters() const { return max_waiters_; }

 private:
  // The waiter FIFO: a ring over a power-of-two array, doubled when full,
  // that allocates nothing until the first waiter. A machine builds several
  // token pools whose waiters stay empty in most experiments, and an empty
  // std::deque still allocates its map and a 480-byte node.
  class CallbackFifo {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    template <typename F>
    void push_back(F&& cb) {
      if (size_ == capacity_) {
        Grow();
      }
      ring_[(head_ + size_) & (capacity_ - 1)].Emplace(std::forward<F>(cb));
      ++size_;
    }

    Simulator::Callback& front() { return ring_[head_]; }

    // Drops the front entry; the caller has moved its closure out.
    void pop_front() {
      head_ = (head_ + 1) & (capacity_ - 1);
      --size_;
    }

   private:
    void Grow() {
      const size_t capacity = capacity_ == 0 ? 8 : 2 * capacity_;
      auto ring = std::make_unique<Simulator::Callback[]>(capacity);
      for (size_t i = 0; i < size_; ++i) {
        ring[i] = std::move(ring_[(head_ + i) & (capacity_ - 1)]);
      }
      ring_ = std::move(ring);
      capacity_ = capacity;
      head_ = 0;
    }

    std::unique_ptr<Simulator::Callback[]> ring_;
    size_t capacity_ = 0;  // 0 or a power of two
    size_t head_ = 0;
    size_t size_ = 0;
  };

  Simulator* sim_;
  int available_;
  int capacity_;
  CallbackFifo waiters_;
  size_t max_waiters_ = 0;
};

}  // namespace snicsim

#endif  // SRC_SIM_SERVER_H_

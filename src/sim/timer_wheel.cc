#include "src/sim/timer_wheel.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/log.h"

namespace snicsim {

// Simulator's two out-of-line members: its header only declares TimerWheel.
Simulator::~Simulator() { delete timers_; }

TimerWheel* Simulator::NewTimerWheel() { return new TimerWheel(this); }

TimerWheel::TimerWheel(Simulator* sim, SimTime tick) : sim_(sim), tick_(tick) {
  SNIC_CHECK(sim != nullptr);
  SNIC_CHECK_GT(tick, 0);
  for (int l = 0; l < kLevels; ++l) {
    levels_[l].resize(kSlots);
  }
}

uint32_t TimerWheel::AllocRecord() {
  if (free_.empty()) {
    records_.emplace_back();
    free_.push_back(static_cast<uint32_t>(records_.size() - 1));
  }
  const uint32_t idx = free_.back();
  free_.pop_back();
  ++live_;
  return idx;
}

void TimerWheel::FreeRecord(uint32_t idx) {
  Timer& t = records_[idx];
  t.state = State::kFree;
  t.cancelled = false;
  t.cb = nullptr;
  ++t.gen;  // invalidates every outstanding TimerId for this record
  --live_;
  free_.push_back(idx);
}

uint32_t TimerWheel::Arm(SimTime deadline) {
  SNIC_CHECK_GE(deadline, sim_->now());
  SNIC_CHECK_GE(deadline, 0);
  const uint32_t idx = AllocRecord();
  Timer& t = records_[idx];
  t.deadline = deadline;
  t.order = next_order_++;
  ++scheduled_;
  return idx;
}

bool TimerWheel::Cancel(TimerId id) {
  const uint32_t idx = static_cast<uint32_t>(id & 0xffffffffu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (id == kNoTimer || idx >= records_.size()) {
    return false;
  }
  Timer& t = records_[idx];
  if (t.gen != gen || t.state == State::kFree || t.cancelled) {
    return false;
  }
  // O(1): just flag it. A kQueued record is reclaimed the next time its
  // bucket is scanned — without ever touching the Simulator's queue, which
  // is the whole point. A kReleased record already has its exact-time event
  // queued; that event no-ops and reclaims.
  t.cancelled = true;
  ++cancelled_;
  return true;
}

void TimerWheel::Place(uint32_t idx, SimTime now) {
  // The deadline in ticks: level l's slot number is q >> (kSlotBits * l),
  // so every level's slot start and bucket come from shifts of one divide.
  const SimTime q = records_[idx].deadline / tick_;
  // Coarsest level whose slot for the deadline has not started yet. The
  // slot start is non-increasing in the level, so scanning from the top
  // finds the max.
  int level = -1;
  SimTime at = 0;
  for (int l = kLevels - 1; l >= 0; --l) {
    const SimTime start = ((q >> (kSlotBits * l)) << (kSlotBits * l)) * tick_;
    if (start > now) {
      level = l;
      at = start;
      break;
    }
  }
  if (level < 0) {
    // The innermost slot already began: park in the level-0 bucket and run
    // its sentinel at `now`. Routing even this case through the bucket (not
    // straight to sim->At) is what keeps equal-deadline timers in one
    // sorted release run — see the ordering proof sketch in the header.
    level = 0;
    at = now;
  }
  const int bucket_index = static_cast<int>((q >> (kSlotBits * level)) & (kSlots - 1));
  Bucket& b = levels_[level][bucket_index];
  Append(b, idx);
  records_[idx].state = State::kQueued;
  if (b.next_sentinel == kNoSentinel || at < b.next_sentinel) {
    ArmSentinel(level, bucket_index, at);
  }
}

void TimerWheel::Append(Bucket& b, uint32_t idx) {
  records_[idx].next = kNil;
  if (b.tail == kNil) {
    b.head = idx;
  } else {
    records_[b.tail].next = idx;
  }
  b.tail = idx;
}

void TimerWheel::ArmSentinel(int level, int bucket_index, SimTime at) {
  levels_[level][bucket_index].next_sentinel = at;
  sim_->At(at, [this, level, bucket_index, at] {
    // A sentinel superseded by an earlier one (or re-armed at the same time
    // by a bucket refill) finds a mismatched stamp and dies.
    if (levels_[level][bucket_index].next_sentinel != at) {
      return;
    }
    ++sentinels_;
    Process(level, bucket_index, at);
  });
}

void TimerWheel::Process(int level, int bucket_index, SimTime at) {
  Bucket& b = levels_[level][bucket_index];
  b.next_sentinel = kNoSentinel;
  // Partition in list order: timers whose slot has started are due;
  // collisions from later wheel revolutions are re-queued in their order.
  due_.clear();
  uint32_t cur = b.head;
  b.head = b.tail = kNil;
  SimTime earliest = std::numeric_limits<SimTime>::max();
  while (cur != kNil) {
    Timer& t = records_[cur];
    const uint32_t next = t.next;
    if (t.cancelled) {
      FreeRecord(cur);  // the lazy half of Cancel
    } else if (const SimTime start = SlotStart(level, t.deadline); start <= at) {
      due_.push_back(cur);
    } else {
      Append(b, cur);
      earliest = std::min(earliest, start);
    }
    cur = next;
  }
  if (b.head != kNil) {
    ArmSentinel(level, bucket_index, earliest);
  }
  if (level > 0) {
    // Cascade: re-place as seen from now; strictly descends because this
    // level's slot start is no longer in the future.
    cascades_ += due_.size();
    for (const uint32_t idx : due_) {
      Place(idx, at);
    }
    return;
  }
  // Level 0: release in (deadline, arm order) — byte-for-byte the firing
  // order the plain In() path produces, where arm order == DES seq order.
  std::sort(due_.begin(), due_.end(), [this](uint32_t a, uint32_t c) {
    const Timer& ta = records_[a];
    const Timer& tc = records_[c];
    if (ta.deadline != tc.deadline) {
      return ta.deadline < tc.deadline;
    }
    return ta.order < tc.order;
  });
  for (const uint32_t idx : due_) {
    Release(idx);
  }
}

void TimerWheel::Release(uint32_t idx) {
  Timer& t = records_[idx];
  t.state = State::kReleased;
  const uint32_t gen = t.gen;
  sim_->At(t.deadline, [this, idx, gen] {
    Timer& rec = records_[idx];
    SNIC_CHECK(rec.gen == gen && rec.state == State::kReleased);
    if (rec.cancelled) {
      FreeRecord(idx);
      return;
    }
    // Move the closure out before reclaiming so the callback may itself
    // Schedule into this wheel (and land in this very record).
    SimCallback cb = std::move(rec.cb);
    FreeRecord(idx);
    ++fired_;
    cb.CallOnce();
  });
}

}  // namespace snicsim

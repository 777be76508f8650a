// Differential test of the event queue. A Simulator and a reference model,
// a std::set of (time, id) with ids handed out in scheduling order, receive
// the same schedules, and every dispatch must be the model's minimum at the
// model's time. The schedules reach every part of the queue: the zero-delay
// lane, same-time ties, pushes below a peeked minimum between RunBefore
// rounds, a 50k-event burst at one time, times in the top radix bucket (at
// or above 2^62), and seq renumbers with the lane, bucket 0 and the bucket
// lists all populated.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "tests/sim/simulator_test_peer.h"

namespace snicsim {
namespace {

class Differential {
 public:
  using Then = std::function<void()>;

  Simulator& sim() { return sim_; }

  // Schedules at absolute time `t` through Simulator::At; `then` runs inside
  // the event, after its order check.
  void At(SimTime t, Then then = nullptr) {
    const uint64_t id = Model(t);
    sim_.At(t, Event(t, id, std::move(then)));
  }

  // The same through Simulator::In.
  void In(SimTime delay, Then then = nullptr) {
    const SimTime t = sim_.now() + delay;
    const uint64_t id = Model(t);
    sim_.In(delay, Event(t, id, std::move(then)));
  }

  // The peek must agree with the model without disturbing the queue.
  void CheckPeek() {
    const SimTime want = model_.empty() ? Simulator::kNoEvent : model_.begin()->first;
    EXPECT_EQ(sim_.next_event_time(), want);
    EXPECT_EQ(sim_.empty(), model_.empty());
  }

  // Drains both and checks that they ended together.
  void Finish() {
    sim_.Run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(mismatches_, 0u) << first_mismatch_;
    EXPECT_EQ(sim_.processed(), fired_);
  }

  uint64_t fired() const { return fired_; }

 private:
  uint64_t Model(SimTime t) {
    const uint64_t id = next_id_++;
    model_.emplace(t, id);
    return id;
  }

  SimCallback Event(SimTime t, uint64_t id, Then then) {
    return [this, t, id, then = std::move(then)] {
      Check(t, id);
      if (then) {
        then();
      }
    };
  }

  void Check(SimTime t, uint64_t id) {
    ++fired_;
    const auto want = model_.begin();
    if (want == model_.end() || want->first != t || want->second != id || sim_.now() != t) {
      if (mismatches_++ == 0) {
        std::ostringstream os;
        os << "dispatch " << fired_ << " ran (" << t << ", " << id << ") at now "
           << sim_.now() << "; the model's minimum is ";
        if (want == model_.end()) {
          os << "none";
        } else {
          os << "(" << want->first << ", " << want->second << ")";
        }
        first_mismatch_ = os.str();
      }
    }
    model_.erase({t, id});
  }

  Simulator sim_;
  std::set<std::pair<SimTime, uint64_t>> model_;
  uint64_t next_id_ = 0;
  uint64_t fired_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
};

// A seeded random process on top of a Differential: every fired event
// schedules up to three successors, through At or In, with delays drawn
// from every scale the queue distinguishes — zero (the lane), a few
// picoseconds, a shared grid of future instants (ties at one time), up to
// 2^20 ps and up to 2^40 ps.
class RandomProcess {
 public:
  RandomProcess(Differential* d, uint64_t seed, uint64_t budget)
      : d_(d), rng_(seed), budget_(budget) {}

  void Spawn() {
    if (spawned_ >= budget_) {
      return;
    }
    ++spawned_;
    const SimTime delay = Delay();
    Differential::Then then = [this] {
      const uint64_t n = rng_.NextBelow(4);
      for (uint64_t k = 0; k < n; ++k) {
        Spawn();
      }
    };
    if (rng_.NextBelow(2) == 0) {
      d_->In(delay, std::move(then));
    } else {
      d_->At(d_->sim().now() + delay, std::move(then));
    }
  }

  SimTime Delay() {
    const SimTime now = d_->sim().now();
    switch (rng_.NextBelow(6)) {
      case 0:
      case 1:
        return 0;
      case 2:
        return static_cast<SimTime>(1 + rng_.NextBelow(16));
      case 3:  // the next few 1000 ps grid points, shared by many events
        return (now / 1000 + 1 + static_cast<SimTime>(rng_.NextBelow(4))) * 1000 - now;
      case 4:
        return static_cast<SimTime>(1 + rng_.NextBelow(uint64_t{1} << 20));
      default:
        return static_cast<SimTime>(1 + rng_.NextBelow(uint64_t{1} << 40));
    }
  }

  uint64_t spawned() const { return spawned_; }

 private:
  Differential* d_;
  Rng rng_;
  uint64_t budget_;
  uint64_t spawned_ = 0;
};

TEST(EventQueueProperty, RandomAtInMixWithZeroDelayMatchesModel) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    Differential d;
    RandomProcess p(&d, seed, 150000);
    for (int i = 0; i < 64; ++i) {
      p.Spawn();
    }
    d.CheckPeek();
    d.Finish();
    EXPECT_EQ(d.fired(), p.spawned());
    EXPECT_GT(p.spawned(), 100000u);
  }
}

TEST(EventQueueProperty, RunBeforeRoundsWithPushesBelowThePeekedMinimum) {
  // The parallel core's round: peek every domain, run strictly before the
  // horizon, then merge events that may land anywhere at or after it —
  // below the peeked minimum included. RunUntil rounds are mixed in.
  for (uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE(seed);
    Differential d;
    RandomProcess p(&d, seed, 120000);
    Rng rng(seed * 7919);
    for (int i = 0; i < 32; ++i) {
      p.Spawn();
    }
    int below = 0;
    for (int round = 0; !d.sim().empty(); ++round) {
      d.CheckPeek();
      const SimTime peeked = d.sim().next_event_time();
      const SimTime horizon = peeked + static_cast<SimTime>(rng.NextBelow(5000));
      if (rng.NextBelow(4) == 0) {
        d.sim().RunUntil(horizon);
      } else {
        d.sim().RunBefore(horizon);
      }
      EXPECT_EQ(d.sim().now(), horizon);
      d.CheckPeek();
      const SimTime next = d.sim().next_event_time();
      // Merge-time pushes: at now() (the lane), just after it, below the
      // peeked minimum and tied with it.
      const int merges = round < 20000 ? static_cast<int>(rng.NextBelow(6)) : 0;
      for (int k = merges; k > 0; --k) {
        SimTime t = horizon;
        if (next != Simulator::kNoEvent && next > horizon) {
          t += static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(next - horizon) + 1));
          below += t < next ? 1 : 0;
        } else {
          t += static_cast<SimTime>(rng.NextBelow(3));
        }
        d.At(t, [&p] { p.Spawn(); });
      }
    }
    d.Finish();
    EXPECT_GT(below, 1000);
  }
}

TEST(EventQueueProperty, FiftyThousandEventBurstAtOneTimeDrainsInOrder) {
  constexpr int kBurst = 50000;
  const SimTime t = FromMicros(1);
  Differential d;
  d.At(t - 1);
  for (int i = 0; i < kBurst; ++i) {
    // Every burst event also feeds the lane at t and a second, later burst,
    // so bucket 0 drains interleaved with zero-delay work.
    d.At(t, [&d, i] {
      if (i % 2 == 0) {
        d.In(0);
      }
      if (i % 5 == 0) {
        d.At(d.sim().now() + 7);
      }
    });
    if (i % 1000 == 0) {
      d.At(t + 1);
      d.At(t + FromMicros(3));
    }
  }
  d.CheckPeek();
  d.sim().RunBefore(t);  // runs only the event at t - 1
  d.CheckPeek();
  d.Finish();
  EXPECT_EQ(d.fired(), 1u + kBurst + 2u * (kBurst / 1000) + kBurst / 2 + kBurst / 5);
}

TEST(EventQueueProperty, TopBucketTimesOrderExactly) {
  // Times at or above 2^62 first differ from a small last_ at bit 62: the
  // top bucket. Cross into that range with events on both sides of it,
  // ties included, then keep scheduling from up there.
  constexpr SimTime kTop = SimTime{1} << 62;
  Differential d;
  Rng rng(5);
  const SimTime times[] = {kTop, kTop - 1, kTop + 1, kTop, Simulator::kNoEvent - 1,
                           kTop + (kTop >> 1), 1, 1000, kTop - 1, Simulator::kNoEvent - 2};
  for (SimTime t : times) {
    d.At(t);
  }
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = kTop + static_cast<SimTime>(rng.NextBelow(uint64_t{1} << 61));
    d.At(t, [&d, &rng] {
      if (rng.NextBelow(3) == 0) {
        d.In(0);
      }
      if (rng.NextBelow(3) == 0) {
        d.In(static_cast<SimTime>(1 + rng.NextBelow(uint64_t{1} << 40)));
      }
    });
  }
  d.CheckPeek();
  d.sim().RunBefore(kTop);
  d.CheckPeek();
  d.Finish();
  EXPECT_GE(d.sim().now(), Simulator::kNoEvent - 1);
}

TEST(EventQueueProperty, SeqRenumberWithEveryPartPopulated) {
  // Twice, from inside the first of twenty events tied at one time (so
  // the other nineteen wait in bucket 0), fill the lane and the bucket
  // lists, then cross the renumber threshold mid-schedule.
  Differential d;
  d.At(FromMicros(900));
  for (int round = 0; round < 2; ++round) {
    const SimTime t = FromNanos(100 + 300 * round);
    d.At(t, [&d] {
      for (int i = 0; i < 5; ++i) {
        d.In(0);
        d.In(FromNanos(50));
        d.In(FromNanos(70));
      }
      SimulatorTestPeer::FastForwardSeqToNearRenumber(d.sim(), 3);
      for (int i = 0; i < 10; ++i) {
        d.At(d.sim().now());
        d.In(FromNanos(50));
        d.In(FromNanos(60));
        d.At(FromMicros(900));
      }
    });
    for (int i = 0; i < 19; ++i) {
      d.At(t);
    }
    d.At(t + FromNanos(50));
  }
  d.Finish();
  EXPECT_EQ(d.fired(), 1u + 2u * (1 + 15 + 40 + 19 + 1));
}

}  // namespace
}  // namespace snicsim

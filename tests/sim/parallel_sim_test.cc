// The parallel core's determinism contract (DESIGN.md §12): any
// --sim-threads count — serial included — produces byte-identical results,
// because domains only interact through the (time, src, seq)-ordered merge
// at lookahead horizons. These tests drive the contract directly on
// ParallelSimulator; tests/topo/rack_kv_test.cc carries it end-to-end
// through the multi-domain rack, fault-free and under drop/flap/crash plans.
#include "src/sim/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/units.h"
#include "src/sim/pool.h"
#include "src/sim/simulator.h"

namespace snicsim {
namespace {

TEST(Simulator, RunBeforeIsExclusiveAndAdvancesClock) {
  Simulator sim;
  std::vector<SimTime> ran;
  sim.At(10, [&] { ran.push_back(10); });
  sim.At(20, [&] { ran.push_back(20); });
  sim.RunBefore(20);
  ASSERT_EQ(ran.size(), 1u);  // the event at exactly the horizon must wait
  EXPECT_EQ(ran[0], 10);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.next_event_time(), 20);
  sim.RunBefore(21);
  EXPECT_EQ(ran.size(), 2u);
  EXPECT_EQ(sim.next_event_time(), Simulator::kNoEvent);
}

// Cross-domain ties at one timestamp must resolve by (src, seq) — never by
// which worker finished first. Observed through the arrival order in the
// destination domain, compared across thread counts.
std::vector<int> CrossTieOrder(int threads) {
  ParallelSimulator psim(3, /*lookahead=*/100, threads);
  std::vector<int> order;
  ParallelSimulator* pp = &psim;
  // Both source domains post two events to domain 2 for the same instant.
  psim.domain(0)->At(0, [pp, &order] {
    pp->Post(0, 2, 100, [&order] { order.push_back(1); });
    pp->Post(0, 2, 100, [&order] { order.push_back(2); });
  });
  psim.domain(1)->At(0, [pp, &order] {
    pp->Post(1, 2, 100, [&order] { order.push_back(11); });
    pp->Post(1, 2, 100, [&order] { order.push_back(12); });
  });
  psim.Run();
  return order;
}

TEST(ParallelSimulator, MergeOrderIsTimeSrcSeq) {
  const std::vector<int> expect = {1, 2, 11, 12};
  EXPECT_EQ(CrossTieOrder(1), expect);
  EXPECT_EQ(CrossTieOrder(2), expect);
  EXPECT_EQ(CrossTieOrder(8), expect);
}

// Runners start and stop inside each Run(), so the accounting must also hold
// for a Run() with nothing to do and for a second Run() on the same rack.
TEST(ParallelSimulator, RoundAccountingIsThreadInvariant) {
  using Accounting = std::tuple<uint64_t, uint64_t, uint64_t>;
  // `runs` Run() calls, each after seeding one ping-pong of `pings` hops
  // (none when pings is 0).
  auto run = [](int threads, int pings, int runs) {
    ParallelSimulator psim(2, /*lookahead=*/50, threads);
    ParallelSimulator* pp = &psim;
    // Ping-pong a few times to force several horizons.
    std::function<void(int, int, int)> ping = [pp, &ping](int from, int to,
                                                          int hops) {
      if (hops == 0) {
        return;
      }
      pp->Post(from, to, pp->domain(from)->now() + 50,
               [&ping, to, from, hops] { ping(to, from, hops - 1); });
    };
    for (int r = 0; r < runs; ++r) {
      if (pings > 0) {
        psim.domain(0)->At(psim.domain(0)->now(), [&ping, pings] { ping(0, 1, pings); });
      }
      psim.Run();
    }
    return Accounting(psim.rounds(), psim.merged(), psim.merge_digest());
  };
  const Accounting serial = run(1, 6, 1);
  const Accounting idle = run(1, 0, 1);
  const Accounting rerun = run(1, 6, 2);
  for (const int threads : {2, 4}) {
    EXPECT_EQ(serial, run(threads, 6, 1)) << threads;
    EXPECT_EQ(idle, run(threads, 0, 1)) << threads;
    EXPECT_EQ(rerun, run(threads, 6, 2)) << threads;
  }
  EXPECT_GT(std::get<0>(serial), 0u);
  EXPECT_EQ(std::get<1>(serial), 6u);
  EXPECT_EQ(std::get<0>(idle), 0u);
  EXPECT_EQ(std::get<1>(idle), 0u);
  EXPECT_EQ(std::get<0>(rerun), 2 * std::get<0>(serial));
  EXPECT_EQ(std::get<1>(rerun), 12u);
  EXPECT_NE(std::get<2>(rerun), std::get<2>(serial));
}

// A runner beyond the domain count would only meet the others at every
// barrier, so Run() stops at one runner per domain.
TEST(ParallelSimulator, WorkersNeverOutnumberDomains) {
  EXPECT_EQ(ParallelSimulator(2, /*lookahead=*/50, 8).threads(), 2);
  EXPECT_EQ(ParallelSimulator(4, /*lookahead=*/50, 3).threads(), 3);
  EXPECT_EQ(ParallelSimulator(3, /*lookahead=*/50, 1).threads(), 1);
}

TEST(SlabPool, RecyclesRecordsWithoutGrowth) {
  SlabPool<int> pool;
  int* a = pool.Alloc();
  int* b = pool.Alloc();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.live(), 2u);
  const size_t cap = pool.capacity();
  pool.Free(b);
  EXPECT_EQ(pool.Alloc(), b);  // LIFO recycling, no new chunk
  EXPECT_EQ(pool.capacity(), cap);
  pool.Free(a);
  pool.Free(b);
  EXPECT_EQ(pool.live(), 0u);
}

// Many sources posting at equal times, out of time order within each
// source and across several rounds: delivery must follow (time, src, seq)
// exactly, and merge_digest() must be FNV-1a over those tuples, byte by
// byte, in that order.
TEST(ParallelSimulator, MergeOrdersEqualTimesBySrcThenSeq) {
  struct Arrival {
    SimTime time;
    int src;
    uint64_t seq;
    bool operator==(const Arrival&) const = default;
  };
  constexpr int kSources = 3;
  constexpr int kDst = kSources;
  // Per source: the post times of one round, relative to the round start.
  const std::vector<SimTime> offsets = {300, 100, 300, 200, 100, 300};
  const auto run = [&](int threads) {
    ParallelSimulator psim(kSources + 1, /*lookahead=*/100, threads);
    ParallelSimulator* pp = &psim;
    std::vector<Arrival> arrivals;
    for (int src = 0; src < kSources; ++src) {
      for (int round = 0; round < 3; ++round) {
        const SimTime start = 1000 * round;
        psim.domain(src)->At(start, [pp, &arrivals, &offsets, src, start, round] {
          for (size_t k = 0; k < offsets.size(); ++k) {
            const uint64_t seq = static_cast<uint64_t>(round) * offsets.size() + k;
            const SimTime t = start + offsets[k];
            pp->Post(src, kDst, t,
                     [&arrivals, t, src, seq] { arrivals.push_back({t, src, seq}); });
          }
        });
      }
    }
    psim.Run();
    return std::make_pair(arrivals, psim.merge_digest());
  };
  const auto [arrivals, digest] = run(1);
  std::vector<Arrival> expect = arrivals;
  std::sort(expect.begin(), expect.end(), [](const Arrival& a, const Arrival& b) {
    return std::tie(a.time, a.src, a.seq) < std::tie(b.time, b.src, b.seq);
  });
  ASSERT_EQ(arrivals.size(), kSources * 3 * offsets.size());
  EXPECT_EQ(arrivals, expect);
  uint64_t ref = 1469598103934665603ULL;
  for (const Arrival& a : expect) {
    for (const uint64_t v : {static_cast<uint64_t>(a.time), static_cast<uint64_t>(a.src),
                             static_cast<uint64_t>(kDst), a.seq}) {
      for (int i = 0; i < 8; ++i) {
        ref = (ref ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
      }
    }
  }
  EXPECT_EQ(digest, ref);
  const auto threaded = run(3);
  EXPECT_EQ(threaded.first, arrivals);
  EXPECT_EQ(threaded.second, digest);
}

}  // namespace
}  // namespace snicsim

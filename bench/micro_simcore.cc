// Microbenchmarks of the simulation kernel itself (google-benchmark): event
// throughput, queueing-primitive costs, and one full end-to-end experiment.
// These bound how much simulated time the figure benches can afford.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/serve_tenants_shape.h"
#include "src/common/rng.h"
#include "src/governor/serving.h"
#include "src/mem/memory.h"
#include "src/runtime/sweep_runner.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"
#include "src/topo/rack_kv.h"
#include "src/topo/shard.h"
#include "src/topo/testbed.h"
#include "src/workload/harness.h"

namespace snicsim {
namespace {

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.In(i, [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

// The classic hold model: `range(0)` events stay pending while each step
// pops the earliest and schedules one successor — a quarter of them at
// zero delay (token grants, hand-offs), the rest 1..1000 ns out. Unlike
// BM_EventQueueThroughput (fill, then drain) the queue holds a steady
// depth, which is how every experiment drives the core.
class HoldModel {
 public:
  HoldModel(Simulator* sim, int64_t steps) : sim_(sim), steps_(steps) {}

  void Fire() {
    if (steps_-- > 0) {
      sim_->In(Delay(), [this] { Fire(); });
    }
  }
  SimTime Delay() {
    return rng_.Next() % 4 == 0 ? 0 : FromNanos(1 + static_cast<int64_t>(rng_.Next() % 1000));
  }
  bool running() const { return steps_ > 0; }

 private:
  Simulator* sim_;
  int64_t steps_;
  Rng rng_{7};
};

void BM_EventQueueHold(benchmark::State& state) {
  constexpr int64_t kSteps = 200000;
  const int64_t depth = state.range(0);
  for (auto _ : state) {
    Simulator sim;
    HoldModel hold(&sim, kSteps);
    for (int64_t i = 0; i < depth; ++i) {
      sim.In(hold.Delay(), [&hold] { hold.Fire(); });
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.processed());
  }
  state.SetItemsProcessed(state.iterations() * (kSteps + depth));
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(4096)->Arg(100000);

// An event parked 16..130 us out that re-arms itself while a hold model
// runs, like the fleets' think-time arrivals: on snicbench serve_tenants
// about 280 events are pending on average, about 170 of them 16 us or more
// ahead of the clock, far behind the nanosecond-scale traffic at the front.
class ParkedArrivals {
 public:
  ParkedArrivals(Simulator* sim, const HoldModel* hold) : sim_(sim), hold_(hold) {}

  void Park() {
    if (hold_->running()) {
      sim_->In(FromMicros(16) + FromNanos(static_cast<int64_t>(rng_.Next() % 114000)),
               [this] { Park(); });
    }
  }

 private:
  Simulator* sim_;
  const HoldModel* hold_;
  Rng rng_{11};
};

// The hold model at depth range(0) plus range(1) parked arrivals.
void BM_EventQueueParked(benchmark::State& state) {
  constexpr int64_t kSteps = 200000;
  const int64_t depth = state.range(0);
  const int64_t parked = state.range(1);
  uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    HoldModel hold(&sim, kSteps);
    ParkedArrivals arrivals(&sim, &hold);
    for (int64_t i = 0; i < parked; ++i) {
      arrivals.Park();
    }
    for (int64_t i = 0; i < depth; ++i) {
      sim.In(hold.Delay(), [&hold] { hold.Fire(); });
    }
    sim.Run();
    events += sim.processed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_EventQueueParked)->Args({64, 256});

// range(0) events scheduled at one future time, then drained in
// scheduling order.
void BM_EventQueueSameTimeBurst(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < n; ++i) {
      sim.At(FromMicros(1), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueSameTimeBurst)->Arg(40000);

// The pre-optimization event core (std::function payloads ordered directly
// in a binary heap of full event records, 64-bit seq), kept alive as the
// in-run reference: the CI perf gate compares BM_EventQueueThroughput
// against BM_EventQueueThroughputLegacy from the *same* process, so the
// gated quantity is the fast path's speedup over this baseline — a ratio
// that transfers across machines — not an absolute throughput that only
// held on the machine that recorded it.
class LegacyEventQueue {
 public:
  void In(int64_t delay, std::function<void()> cb) {
    heap_.push_back(Event{now_ + delay, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), After);
  }

  void Run() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      Event ev = std::move(heap_.back());
      heap_.pop_back();
      now_ = ev.time;
      ++processed_;
      ev.cb();
    }
  }

  uint64_t processed() const { return processed_; }

 private:
  struct Event {
    int64_t time;
    uint64_t seq;
    std::function<void()> cb;
  };
  static bool After(const Event& a, const Event& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::vector<Event> heap_;
  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

void BM_EventQueueThroughputLegacy(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEventQueue sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.In(i, [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueThroughputLegacy)->Arg(1000)->Arg(100000);

void BM_BusyServerEnqueue(benchmark::State& state) {
  Simulator sim;
  BusyServer s(&sim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Enqueue(10));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BusyServerEnqueue);

void BM_DramAccess(benchmark::State& state) {
  Simulator sim;
  MemorySubsystem mem(&sim, "m", MemoryParams::Soc());
  uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Access(sim.now(), addr, 64, false));
    addr += 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramAccess);

// The PCIe layer alone: one 4 KiB completion burst back from the SoC over
// the BlueField route (PCIe1, then the switch) and the control TLP that
// requested it, as each sub-read of a path-② READ does.
void BM_PciePathBurst(benchmark::State& state) {
  Simulator sim;
  Testbed tb(&sim, TestbedParams::Default(), ServerCard::kBluefield, {});
  NicEndpoint* const ep = tb.bf->soc_ep();
  const uint32_t mtu = ep->params().pcie_mtu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ep->to_mem().TransferControlAt(&sim, sim.now()));
    benchmark::DoNotOptimize(ep->from_mem().TransferAt(&sim, sim.now(), 4096, mtu));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PciePathBurst);

// One 10 MiB READ against the SoC endpoint: 2,560 sub-reads on the
// head-of-line window (paper Fig. 8), request TLP, memory, completion burst
// and credit grant each, on a fresh testbed. Items are sub-reads.
void BM_SubReadStream(benchmark::State& state) {
  constexpr uint64_t kLen = 10 * kMiB;
  for (auto _ : state) {
    Simulator sim;
    Testbed tb(&sim, TestbedParams::Default(), ServerCard::kBluefield, {});
    SimTime done = 0;
    tb.bf->soc_ep()->DmaRead(0, kLen, [&done](SimTime t) { done = t; });
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kLen / 4096));
}
BENCHMARK(BM_SubReadStream)->Unit(benchmark::kMillisecond);

// The rack's shard map (src/topo/shard.h): one PrimaryOf per item over
// consecutive ranks, as the rack planes ask it, at (servers, vnodes).
void BM_HashRingLookup(benchmark::State& state) {
  const HashRing ring(static_cast<int>(state.range(0)),
                      static_cast<int>(state.range(1)));
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.PrimaryOf(key++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRingLookup)->Args({5, 64})->Args({64, 64});

// The pre-jump-table ring search, kept as the in-run reference of the
// "shard_lookup" gate like LegacyEventQueue above: the same points
// HashRing derives, sorted the same way, searched by lower_bound.
class ReferenceRing {
 public:
  ReferenceRing(int servers, int vnodes, uint64_t seed = 0x5a4dULL) {
    const uint64_t keyed = SplitMix64(seed);
    for (int s = 0; s < servers; ++s) {
      for (int v = 0; v < vnodes; ++v) {
        points_.push_back(Point{SplitMix64(keyed ^ (static_cast<uint64_t>(s) << 32 |
                                                    static_cast<uint64_t>(v))),
                                s});
      }
    }
    std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
      return a.hash != b.hash ? a.hash < b.hash : a.server < b.server;
    });
  }

  int PrimaryOf(uint64_t key) const {
    const uint64_t h = SplitMix64(key);
    auto it = std::lower_bound(points_.begin(), points_.end(), h,
                               [](const Point& p, uint64_t v) { return p.hash < v; });
    return (it == points_.end() ? points_.front() : *it).server;
  }

 private:
  struct Point {
    uint64_t hash;
    int server;
  };
  std::vector<Point> points_;
};

void BM_HashRingLookupReference(benchmark::State& state) {
  const ReferenceRing ring(static_cast<int>(state.range(0)),
                           static_cast<int>(state.range(1)));
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.PrimaryOf(key++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashRingLookupReference)->Args({5, 64})->Args({64, 64});

// The parallel DES core on the rack-scale sharded KV (src/topo/rack_kv.h):
// per-server domains, each running the full per-server stack — SmartNIC
// model, governor, resilience, replication — sharded across runner threads
// vs the same workload on one event core. The CI perf gate
// (BENCH_simcore.json "rack_sharded_parallel_vs_serial",
// scripts/check_bench.py) requires the same-run parallel/serial speedup to
// hold on the 8-domain point whenever the runner has the cores to show it
// (the gate carries min_cores; a starved runner skips it loudly instead of
// failing on scheduler noise). Fingerprints are byte-identical at any
// thread count per the §12 determinism contract — asserted here once
// before the timed loop, and continuously by tests/topo/rack_kv_test.
RackKvParams BenchShardedRack(int servers) {
  RackKvParams p;
  p.servers = servers;
  p.users = 1000 * static_cast<uint64_t>(servers);
  p.think_mean_us = 500.0;
  p.zipf_theta = 0.9;
  p.layout.keys = 4096;
  p.layout.cached_keys = 1024;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.window = FromMicros(150);
  p.seed = 42;
  return p;
}

void BM_RackShardedSerial(benchmark::State& state) {
  RackKvParams p = BenchShardedRack(static_cast<int>(state.range(0)));
  p.sim_threads = 1;
  uint64_t ops = 0;
  for (auto _ : state) {
    const RackKvResult r = RunRackKv(p);
    ops += r.completed;
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
// UseRealTime on both rack benchmarks: the parallel run spreads its work
// over the timed thread and helper threads, whose CPU time the timed
// thread's clock does not see, so CPU-time-based items/s would be
// meaningless there. Wall clock is the quantity the speedup gate is about.
BENCHMARK(BM_RackShardedSerial)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RackShardedParallel(benchmark::State& state) {
  RackKvParams p = BenchShardedRack(static_cast<int>(state.range(0)));
  p.sim_threads = std::max(2, std::min(p.servers, runtime::DefaultJobs()));
  {
    RackKvParams serial = p;
    serial.sim_threads = 1;
    const std::string par = RunRackKv(p).Fingerprint();
    const std::string ser = RunRackKv(serial).Fingerprint();
    if (par != ser) {
      state.SkipWithError("parallel fingerprint diverged from serial run");
      return;
    }
  }
  uint64_t ops = 0;
  for (auto _ : state) {
    const RackKvResult r = RunRackKv(p);
    ops += r.completed;
    benchmark::DoNotOptimize(r.completed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(ops));
}
BENCHMARK(BM_RackShardedParallel)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EndToEndExperiment(benchmark::State& state) {
  for (auto _ : state) {
    HarnessConfig cfg;
    cfg.client_machines = 4;
    cfg.warmup = FromMicros(10);
    cfg.window = FromMicros(50);
    const Measurement m =
        MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, 64, cfg);
    benchmark::DoNotOptimize(m.ops);
  }
}
BENCHMARK(BM_EndToEndExperiment)->Unit(benchmark::kMillisecond);

// One paths-grid point with a 1 ps window: the BlueField testbed and its
// eleven 12-thread requester machines are built, started and torn down, so
// the time is testbed construction (snicbench's setup_s, one point of it).
void BM_TestbedSetup(benchmark::State& state) {
  HarnessConfig cfg;
  cfg.warmup = 1;
  cfg.window = 1;
  for (auto _ : state) {
    const Measurement m =
        MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, 64, cfg);
    benchmark::DoNotOptimize(m.ops);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TestbedSetup)->Unit(benchmark::kMicrosecond);

// One serve_tenants point (RunServing with tenants, the diurnal trace and
// the autoscaler) built, started and torn down with a 1 ps window: the
// per-point setup cost snicbench reports as setup_s, in points per second.
void BM_ServingSetup(benchmark::State& state) {
  governor::ServingRunConfig c = ServeTenantsShape();
  c.warmup = 1;
  c.window = 1;
  for (auto _ : state) {
    const governor::ServingResult r = governor::RunServing(c);
    benchmark::DoNotOptimize(r.generated);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServingSetup)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace snicsim

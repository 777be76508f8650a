#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "src/common/rng.h"
#include "src/governor/governor.h"
#include "src/kvstore/serving.h"
#include "src/mem/memory.h"
#include "src/offload/arbiter.h"
#include "src/resilience/resilience.h"
#include "src/sim/parallel.h"
#include "src/sim/simulator.h"
#include "src/sim/timer_wheel.h"
#include "src/topo/shard.h"
#include "src/topo/testbed_params.h"
#include "src/workload/addr_gen.h"
#include "src/workload/aggregate_fleet.h"

namespace snicbench {

using snicsim::SimTime;

namespace {

// Timed batches per probe; the median batch is reported.
constexpr int kBatches = 7;

// Keeps loop results observable so the optimizer cannot drop the calls.
volatile uint64_t g_sink = 0;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Runs `batch` kBatches times; each call returns the number of operations
// it performed. Returns the median nanoseconds per operation.
double TimeBatches(const std::function<uint64_t()>& batch) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t ops = batch();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    per_op.push_back(ns / static_cast<double>(std::max<uint64_t>(ops, 1)));
  }
  return Median(per_op);
}

// Draws a size-class index from the workload's mixture.
int DrawClass(snicsim::Rng* rng, const std::vector<double>& mix) {
  double total = 0.0;
  for (double w : mix) {
    total += w;
  }
  double u = rng->NextDouble() * total;
  for (size_t c = 0; c < mix.size(); ++c) {
    u -= mix[c];
    if (u < 0.0) {
      return static_cast<int>(c);
    }
  }
  return static_cast<int>(mix.size()) - 1;
}

double ClampTheta(double theta) { return std::min(0.999, std::max(0.01, theta)); }

// Simulator::In + Run: a batch of events at delays spread over the
// workload's timeout horizon, then drained.
double ProbeEvents(const ProbeInputs& in) {
  snicsim::Rng rng(in.seed);
  const uint64_t span = static_cast<uint64_t>(std::max<SimTime>(in.timeout, 1));
  return TimeBatches([&] {
    constexpr uint64_t kEvents = 100000;
    snicsim::Simulator sim;
    uint64_t fired = 0;
    for (uint64_t i = 0; i < kEvents; ++i) {
      sim.In(static_cast<SimTime>(rng.NextBelow(span)), [&fired] { ++fired; });
    }
    sim.Run();
    g_sink = g_sink + fired;
    return kEvents;
  });
}

// TimerWheel::Schedule + Cancel at the workload's timeout: nine in ten
// timers are cancelled before they fire, as retransmit clocks are.
double ProbeTimers(const ProbeInputs& in) {
  snicsim::Rng rng(in.seed ^ 0x7133);
  return TimeBatches([&] {
    constexpr uint64_t kTimers = 100000;
    snicsim::Simulator sim;
    snicsim::TimerWheel wheel(&sim);
    uint64_t fired = 0;
    SimTime now = 0;
    for (uint64_t i = 0; i < kTimers; ++i) {
      now += static_cast<SimTime>(rng.NextBelow(static_cast<uint64_t>(in.timeout / 64 + 1)));
      sim.RunUntil(now);
      const auto id = wheel.In(in.timeout, [&fired] { ++fired; });
      if (i % 10 != 0) {
        wheel.Cancel(id);
      }
    }
    sim.Run();
    g_sink = g_sink + fired;
    return kTimers;
  });
}

// One token hop per event: each domain forwards to the next domain one
// lookahead later, with a local event per hop, until `end`.
void Hop(snicsim::ParallelSimulator* ps, snicsim::DomainId d, SimTime end) {
  snicsim::Simulator* sim = ps->domain(d);
  const SimTime t = sim->now() + ps->lookahead();
  if (t >= end) {
    return;
  }
  sim->In(ps->lookahead() / 2, [] {});
  const snicsim::DomainId dst = (d + 1) % ps->domains();
  ps->Post(d, dst, t, [ps, dst, end] { Hop(ps, dst, end); });
}

// ParallelSimulator::Run over the workload's domains and threads with
// lookahead-spaced Post traffic; reports nanoseconds per round.
double ProbeRounds(const ProbeInputs& in) {
  snicsim::Rng rng(in.seed ^ 0xbad5);
  const int domains = std::max(2, in.servers);
  std::vector<double> per_round;
  for (int b = 0; b < kBatches; ++b) {
    snicsim::ParallelSimulator ps(domains, in.lookahead, in.sim_threads);
    const SimTime end = 400 * in.lookahead;
    for (int d = 0; d < domains; ++d) {
      for (int token = 0; token < 16; ++token) {
        const SimTime at = static_cast<SimTime>(
            rng.NextBelow(static_cast<uint64_t>(in.lookahead)));
        ps.domain(d)->At(at, [p = &ps, d, end] { Hop(p, d, end); });
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    ps.Run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    per_round.push_back(ns / static_cast<double>(std::max<uint64_t>(ps.rounds(), 1)));
  }
  return Median(per_round);
}

// MemorySubsystem::Access on the host DRAM/LLC model over the workload's
// key space and value sizes.
double ProbeMemory(const ProbeInputs& in) {
  snicsim::Rng rng(in.seed ^ 0x3e3);
  const uint64_t span = std::max<uint64_t>(in.keys, 1) * 4096;
  return TimeBatches([&] {
    constexpr uint64_t kAccesses = 50000;
    snicsim::Simulator sim;
    snicsim::MemorySubsystem mem(&sim, "probe.mem", snicsim::MemoryParams::Host());
    SimTime done = 0;
    for (uint64_t i = 0; i < kAccesses; ++i) {
      const int cls = DrawClass(&rng, in.mix);
      const uint32_t len = in.class_bytes[static_cast<size_t>(cls)];
      const bool write = rng.NextDouble() < in.write_fraction;
      done = mem.Access(static_cast<SimTime>(i) * snicsim::FromNanos(5),
                        rng.NextBelow(span) & ~uint64_t{63}, len, write);
    }
    g_sink = g_sink + static_cast<uint64_t>(done);
    return kAccesses;
  });
}

// HashRing::PrimaryOf over the workload's Zipf-distributed keys.
double ProbeShard(const ProbeInputs& in) {
  const snicsim::HashRing ring(std::max(2, in.servers), 64, in.seed);
  const snicsim::ZipfDist zipf(std::max<uint64_t>(in.keys, 1), ClampTheta(in.zipf_theta));
  snicsim::Rng rng(in.seed ^ 0x5a4d);
  std::vector<uint64_t> ranks(1 << 16);
  for (uint64_t& r : ranks) {
    r = zipf.RankOf(rng.NextDouble());
  }
  return TimeBatches([&] {
    uint64_t acc = 0;
    for (int rep = 0; rep < 4; ++rep) {
      for (uint64_t r : ranks) {
        acc += static_cast<uint64_t>(ring.PrimaryOf(r));
      }
    }
    g_sink = g_sink + acc;
    return static_cast<uint64_t>(4 * ranks.size());
  });
}

// AggregateFleet arrivals: the workload's per-server closed-loop
// population, each accepted arrival completing one think-free service
// time later; reports nanoseconds per generated request.
double ProbeFleet(const ProbeInputs& in) {
  return TimeBatches([&] {
    constexpr uint64_t kArrivals = 50000;
    snicsim::Simulator sim;
    snicsim::AggregateFleetParams p;
    p.users_per_class = snicsim::AggregateFleet::Partition(std::max<uint64_t>(in.users, 1),
                                                            in.mix);
    p.think_mean_us = in.think_mean_us;
    p.seed = in.seed;
    snicsim::AggregateFleet fleet(&sim, p);
    snicsim::AggregateFleet* f = &fleet;
    fleet.Start([&sim, f](int cls, uint64_t user) {
      sim.In(snicsim::FromMicros(2), [f, cls, user] { f->OnComplete(cls, user); });
    });
    while (fleet.generated() < kArrivals && !sim.empty()) {
      sim.RunFor(snicsim::FromMicros(10));
    }
    fleet.Stop();
    sim.Run();
    g_sink = g_sink + fleet.draws();
    return fleet.generated();
  });
}

// AdaptiveGovernor::Route (plus the matching OnComplete, so the SoC
// in-flight count stays bounded as it does in a run) over the workload's
// Zipf keys and size mixture.
double ProbeGovernor(const ProbeInputs& in) {
  snicsim::kv::ServingLayout layout;
  layout.keys = std::max<uint64_t>(in.keys, 1);
  layout.cached_keys = in.cached_keys;
  layout.class_bytes = in.class_bytes;
  const snicsim::TestbedParams tp = snicsim::TestbedParams::Default();
  const snicsim::kv::ServingConfig serving = snicsim::kv::ServingConfig::FromTestbed(tp, layout);
  const snicsim::ZipfDist zipf(layout.keys, ClampTheta(in.zipf_theta));
  snicsim::Rng rng(in.seed ^ 0x90f);
  constexpr size_t kRequests = 1 << 15;
  std::vector<snicsim::KvRequest> reqs(kRequests);
  for (size_t i = 0; i < kRequests; ++i) {
    reqs[i].client = i;
    reqs[i].seq = i;
    reqs[i].rank = zipf.RankOf(rng.NextDouble());
    reqs[i].size_class = DrawClass(&rng, in.mix);
    reqs[i].bytes = in.class_bytes[static_cast<size_t>(reqs[i].size_class)];
    reqs[i].hdr = layout.Pack(reqs[i].rank, reqs[i].size_class);
  }
  return TimeBatches([&] {
    snicsim::Simulator sim;
    snicsim::governor::GovernorConfig cfg;
    cfg.seed = in.seed;
    snicsim::governor::AdaptiveGovernor gov(&sim, cfg, &layout, serving, tp,
                                            snicsim::ClientParams(), layout.class_bytes);
    uint64_t acc = 0;
    for (const snicsim::KvRequest& r : reqs) {
      const int path = gov.Route(r);
      gov.OnComplete(path, r, snicsim::FromMicros(3), true);
      acc += static_cast<uint64_t>(path);
    }
    g_sink = g_sink + acc;
    return static_cast<uint64_t>(reqs.size());
  });
}

// ResilienceManager::Admit with CoDel shedding and a token bucket, fed a
// queue-delay signal that swings around the CoDel target.
double ProbeAdmit(const ProbeInputs& in) {
  snicsim::Rng rng(in.seed ^ 0xad1);
  return TimeBatches([&] {
    constexpr uint64_t kAdmits = 100000;
    snicsim::resilience::ResilienceConfig cfg;
    cfg.deadline = 4 * in.timeout;
    cfg.shedding = true;
    cfg.bucket_mops = 8.0;
    snicsim::resilience::ResilienceManager mgr(cfg);
    SimTime backlog = 0;
    for (int ep = 0; ep < snicsim::resilience::kEndpointCount; ++ep) {
      mgr.BindQueueSignal(ep, [&backlog] { return backlog; });
    }
    SimTime now = 0;
    uint64_t admitted = 0;
    for (uint64_t i = 0; i < kAdmits; ++i) {
      now += snicsim::FromNanos(100);
      backlog = static_cast<SimTime>(
          rng.NextBelow(static_cast<uint64_t>(2 * cfg.codel_target)));
      const int cls = DrawClass(&rng, in.mix);
      admitted += mgr.Admit(static_cast<int>(i & 1), cls, mgr.StampDeadline(now), now) ? 1 : 0;
    }
    g_sink = g_sink + admitted;
    return kAdmits;
  });
}

// WeightedArbiter::Submit through dispatch and completion on the
// workload's SoC pool and tenant weights.
double ProbeArbiter(const ProbeInputs& in) {
  snicsim::Rng rng(in.seed ^ 0xa7b);
  const int tenants = static_cast<int>(in.tenant_weights.size());
  return TimeBatches([&] {
    constexpr uint64_t kJobs = 50000;
    snicsim::Simulator sim;
    snicsim::offload::WeightedArbiter arb(&sim, std::max(1, in.soc_cores), in.tenant_weights);
    uint64_t done = 0;
    for (uint64_t i = 0; i < kJobs; ++i) {
      const int t = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(tenants)));
      arb.Submit(t, snicsim::FromNanos(200 + static_cast<double>(rng.NextBelow(800))),
                 [&done](SimTime) { ++done; });
      if (i % 64 == 63) {
        sim.RunFor(snicsim::FromMicros(4));
      }
    }
    sim.Run();
    g_sink = g_sink + done;
    return kJobs;
  });
}

}  // namespace

std::vector<ProbeResult> RunProbes(const ProbeInputs& in) {
  return {
      {"sim.event_ns", ProbeEvents(in)},     {"sim.timer_ns", ProbeTimers(in)},
      {"par.round_ns", ProbeRounds(in)},     {"mem.access_ns", ProbeMemory(in)},
      {"shard.lookup_ns", ProbeShard(in)},   {"fleet.arrival_ns", ProbeFleet(in)},
      {"gov.route_ns", ProbeGovernor(in)},   {"resil.admit_ns", ProbeAdmit(in)},
      {"arb.submit_ns", ProbeArbiter(in)},
  };
}

}  // namespace snicbench

// Figure 1: the motivating distributed KV-store example.
//
// (a) RNIC client-direct gets: one-sided READ traversal of the index plus a
//     value READ = 2+ network round trips (network amplification).
// (b) SmartNIC offload: one SEND to the SoC, which resolves the get locally
//     (values in SoC memory) or over path ③ (values in host memory).
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/kvstore/kv.h"
#include "src/runtime/sweep_runner.h"
#include "src/sim/meter.h"

using namespace snicsim;     // NOLINT: bench brevity
using namespace snicsim::kv;  // NOLINT

namespace {

constexpr uint64_t kKeys = 100000;

IndexConfig MakeIndexConfig() {
  IndexConfig c;
  c.buckets = 1u << 16;
  c.value_bytes = 256;
  c.value_base = 1ull * kGiB;
  return c;
}

struct KvResult {
  double avg_latency_us = 0.0;
  double avg_rts = 0.0;
  double kgets_per_sec = 0.0;
};

// Client-direct gets over one-sided READs against the host region.
KvResult RunDirect(int concurrent_gets) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientMachine client(&sim, &fabric, ClientParams{}, "cli");
  KvIndex index(MakeIndexConfig());
  for (uint64_t k = 1; k <= kKeys; ++k) {
    index.Put(k);
  }
  rdma::RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = server.host_ep();
  mr.server_port = server.port();
  mr.addr = 0;
  mr.length = 8ull * kGiB;

  Rng rng(5);
  double total_lat = 0;
  double total_rts = 0;
  auto gets = std::make_shared<uint64_t>(0);
  const SimTime deadline = FromMillis(2);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int t = 0; t < concurrent_gets; ++t) {
    auto qp = std::make_shared<rdma::QueuePair>(&client, t % 12, mr);
    auto kv = std::make_shared<DirectKvClient>(&index, qp.get());
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    *loop = [&sim, &rng, kv, qp, loop, gets, &total_lat, &total_rts, deadline] {
      if (sim.now() >= deadline) {
        return;
      }
      const uint64_t key = 1 + rng.NextBelow(kKeys);
      const SimTime start = sim.now();
      kv->Get(key, [&sim, loop, gets, &total_lat, &total_rts, start](GetResult r) {
        total_lat += ToMicros(sim.now() - start);
        total_rts += r.round_trips;
        ++*gets;
        (*loop)();
      });
    };
    sim.In(0, *loop);
  }
  sim.RunUntil(deadline);
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  KvResult out;
  if (*gets > 0) {
    out.avg_latency_us = total_lat / static_cast<double>(*gets);
    out.avg_rts = total_rts / static_cast<double>(*gets);
    out.kgets_per_sec = static_cast<double>(*gets) / ToSeconds(deadline) / 1e3;
  }
  return out;
}

// SoC-offloaded gets: one SEND per get.
KvResult RunOffload(int concurrent_gets, bool values_on_host) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientMachine client(&sim, &fabric, ClientParams{}, "cli");
  KvIndex index(MakeIndexConfig());
  for (uint64_t k = 1; k <= kKeys; ++k) {
    index.Put(k);
  }
  SocOffloadKvServer::Config cfg;
  cfg.values_on_host = values_on_host;
  SocOffloadKvServer offload(&sim, &server, &index, cfg);
  offload.SeedKeys(kKeys);
  rdma::RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = server.soc_ep();
  mr.server_port = server.port();
  mr.addr = 0;
  mr.length = 1ull * kGiB;

  double total_lat = 0;
  auto gets = std::make_shared<uint64_t>(0);
  const SimTime deadline = FromMillis(2);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int t = 0; t < concurrent_gets; ++t) {
    auto qp = std::make_shared<rdma::QueuePair>(&client, t % 12, mr);
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    *loop = [&sim, qp, loop, gets, &total_lat, deadline] {
      if (sim.now() >= deadline) {
        return;
      }
      const SimTime start = sim.now();
      qp->PostSend(16, 0, [&sim, loop, gets, &total_lat, start](SimTime) {
        total_lat += ToMicros(sim.now() - start);
        ++*gets;
        (*loop)();
      });
    };
    sim.In(0, *loop);
  }
  sim.RunUntil(deadline);
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  KvResult out;
  if (*gets > 0) {
    out.avg_latency_us = total_lat / static_cast<double>(*gets);
    out.avg_rts = 1.0;
    out.kgets_per_sec = static_cast<double>(*gets) / ToSeconds(deadline) / 1e3;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t conc = flags.GetInt("concurrency", 24, "concurrent gets");
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();
  const int c = static_cast<int>(conc);

  // The three designs are independent experiments: run them as a sweep.
  runtime::SweepQueue<KvResult> sweep(jobs);
  sweep.Add([c] { return RunDirect(c); });
  sweep.Add([c] { return RunOffload(c, /*values_on_host=*/false); });
  sweep.Add([c] { return RunOffload(c, /*values_on_host=*/true); });
  const std::vector<KvResult> results = sweep.Run();
  const KvResult& direct = results[0];
  const KvResult& soc_local = results[1];
  const KvResult& soc_host = results[2];

  std::printf("== Figure 1: KV get, %llu keys, %d concurrent gets ==\n",
              static_cast<unsigned long long>(kKeys), c);
  Table t({"design", "net round trips", "avg latency us", "Kgets/s"});
  t.Row().Add("RNIC one-sided (a)").Add(direct.avg_rts, 2).Add(direct.avg_latency_us, 2)
      .Add(direct.kgets_per_sec, 0);
  t.Row().Add("SNIC offload, values on SoC (b)").Add(soc_local.avg_rts, 2)
      .Add(soc_local.avg_latency_us, 2).Add(soc_local.kgets_per_sec, 0);
  t.Row().Add("SNIC offload, values on host (b+3)").Add(soc_host.avg_rts, 2)
      .Add(soc_host.avg_latency_us, 2).Add(soc_host.kgets_per_sec, 0);
  t.Print(std::cout, flags.csv());
  std::printf("\noffload removes the index-traversal round trips; placing values in\n"
              "host memory re-adds a path-(3) hop but keeps one network RT.\n");
  return 0;
}

// KV-store offload study: when does shipping gets to the SmartNIC SoC beat
// client-side one-sided traversal?
//
// The paper's Fig. 1 motivates offloading with the latency of a single get;
// this example sweeps *concurrency* and shows the trade the paper's §4
// take-away predicts: the offloaded design wins latency at low load but the
// wimpy SoC cores saturate first, so the one-sided design overtakes it in
// throughput — use both paths, not either.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/kvstore/kv.h"
#include "src/sim/meter.h"

using namespace snicsim;      // NOLINT: example brevity
using namespace snicsim::kv;  // NOLINT

namespace {

constexpr uint64_t kKeys = 200000;

IndexConfig MakeIndexConfig() {
  IndexConfig c;
  c.buckets = 1u << 17;
  c.value_bytes = 256;
  c.value_base = 1ull * kGiB;
  return c;
}

struct Result {
  double kgets = 0.0;
  double avg_us = 0.0;
};

Result RunDirect(int concurrency) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientParams cp;
  cp.threads = 12;
  ClientMachine client(&sim, &fabric, cp, "cli");
  KvIndex index(MakeIndexConfig());
  for (uint64_t k = 1; k <= kKeys; ++k) {
    index.Put(k);
  }
  rdma::RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = server.host_ep();
  mr.server_port = server.port();
  mr.length = 16ull * kGiB;

  Rng rng(5);
  auto gets = std::make_shared<uint64_t>(0);
  auto lat = std::make_shared<double>(0.0);
  const SimTime deadline = FromMillis(3);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int t = 0; t < concurrency; ++t) {
    auto qp = std::make_shared<rdma::QueuePair>(&client, t % 12, mr);
    auto kv = std::make_shared<DirectKvClient>(&index, qp.get());
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    *loop = [&sim, &rng, kv, qp, loop, gets, lat, deadline] {
      if (sim.now() >= deadline) {
        return;
      }
      const SimTime start = sim.now();
      kv->Get(1 + rng.NextBelow(kKeys), [&sim, loop, gets, lat, start](GetResult) {
        *lat += ToMicros(sim.now() - start);
        ++*gets;
        (*loop)();
      });
    };
    sim.In(FromNanos(300) * t, *loop);
  }
  sim.RunUntil(deadline);
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  Result r;
  if (*gets > 0) {
    r.kgets = static_cast<double>(*gets) / ToSeconds(deadline) / 1e3;
    r.avg_us = *lat / static_cast<double>(*gets);
  }
  return r;
}

Result RunOffload(int concurrency, bool values_on_host) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientParams cp;
  cp.threads = 12;
  ClientMachine client(&sim, &fabric, cp, "cli");
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
  mr.length = 1ull * kGiB;

  auto gets = std::make_shared<uint64_t>(0);
  auto lat = std::make_shared<double>(0.0);
  const SimTime deadline = FromMillis(3);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int t = 0; t < concurrency; ++t) {
    auto qp = std::make_shared<rdma::QueuePair>(&client, t % 12, mr);
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    *loop = [&sim, qp, loop, gets, lat, deadline] {
      if (sim.now() >= deadline) {
        return;
      }
      const SimTime start = sim.now();
      qp->PostSend(16, 0, [&sim, loop, gets, lat, start](SimTime) {
        *lat += ToMicros(sim.now() - start);
        ++*gets;
        (*loop)();
      });
    };
    sim.In(FromNanos(300) * t, *loop);
  }
  sim.RunUntil(deadline);
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  Result r;
  if (*gets > 0) {
    r.kgets = static_cast<double>(*gets) / ToSeconds(deadline) / 1e3;
    r.avg_us = *lat / static_cast<double>(*gets);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  flags.Finish();

  std::printf("KV get designs vs concurrency (%llu keys, 256B values)\n\n",
              static_cast<unsigned long long>(kKeys));
  Table t({"concurrency", "direct Kget/s", "direct us", "offload Kget/s", "offload us",
           "offload+path3 Kget/s"});
  for (int c : {1, 4, 16, 64, 144}) {
    const Result direct = RunDirect(c);
    const Result off = RunOffload(c, false);
    const Result off3 = RunOffload(c, true);
    t.Row().Add(c);
    t.Add(direct.kgets, 0).Add(direct.avg_us, 2);
    t.Add(off.kgets, 0).Add(off.avg_us, 2);
    t.Add(off3.kgets, 0);
  }
  t.Print(std::cout, flags.csv());
  std::printf("\nlesson (paper §4): offload wins latency, one-sided wins peak\n"
              "throughput once the SoC saturates - concurrently use both paths.\n");
  return 0;
}

// Distributed OCC transactions over the simulated testbed: throughput and
// abort rate vs. contention, RNIC vs. SmartNIC host path.
//
// Each transaction costs ~4 one-sided round trips (read, lock, validate,
// commit), so the SmartNIC's per-op latency tax (paper §3.1) compounds —
// and longer lock hold times also raise the conflict window, a second-order
// effect the paper's guidance about path choice is meant to avoid.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/topo/server.h"
#include "src/txn/occ.h"

using namespace snicsim;       // NOLINT: example brevity
using namespace snicsim::txn;  // NOLINT

namespace {

struct RunResult {
  double ktps = 0.0;
  double abort_pct = 0.0;
  double p50_us = 0.0;
};

// `hot_records` controls contention: every write lands in [0, hot_records).
RunResult Run(bool use_rnic, uint64_t hot_records, int coordinators) {
  Simulator sim;
  Fabric fabric(&sim);
  const TestbedParams tp;
  std::unique_ptr<RnicServer> rnic;
  std::unique_ptr<BluefieldServer> bf;
  rdma::RemoteMemoryRegion mr;
  if (use_rnic) {
    rnic = std::make_unique<RnicServer>(&sim, &fabric, tp);
    mr.engine = &rnic->nic();
    mr.endpoint = rnic->host_ep();
    mr.server_port = rnic->port();
  } else {
    bf = std::make_unique<BluefieldServer>(&sim, &fabric, tp);
    mr.engine = &bf->nic();
    mr.endpoint = bf->host_ep();
    mr.server_port = bf->port();
  }
  TxnStoreConfig sc;
  sc.records = 1u << 16;
  TxnStore store(sc);
  mr.addr = 0;
  mr.length = sc.records * sc.record_bytes;
  ClientParams cp;
  cp.threads = 12;
  ClientMachine client(&sim, &fabric, cp, "cli");

  std::vector<std::unique_ptr<rdma::QueuePair>> qps;
  std::vector<std::unique_ptr<OccCoordinator>> coords;
  for (int i = 0; i < coordinators; ++i) {
    qps.push_back(std::make_unique<rdma::QueuePair>(&client, i % 12, mr));
    coords.push_back(std::make_unique<OccCoordinator>(&sim, &store, qps.back().get(),
                                                      static_cast<uint64_t>(i + 1)));
  }

  Histogram latency;
  uint64_t commits = 0;
  uint64_t total = 0;
  const SimTime deadline = FromMillis(4);
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int i = 0; i < coordinators; ++i) {
    auto rng = std::make_shared<Rng>(42 + static_cast<uint64_t>(i));
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    OccCoordinator* coord = coords[static_cast<size_t>(i)].get();
    *loop = [&, coord, rng, loop, hot_records] {
      if (sim.now() >= deadline) {
        return;
      }
      std::vector<uint64_t> reads = {4096 + rng->NextBelow(32768),
                                     4096 + rng->NextBelow(32768)};
      std::vector<uint64_t> writes = {rng->NextBelow(hot_records)};
      coord->Execute(reads, writes, [&, loop](TxnResult r) {
        ++total;
        commits += r.committed ? 1 : 0;
        latency.Record(r.latency);
        (*loop)();
      });
    };
    sim.In(FromNanos(500) * i, *loop);
  }
  sim.RunUntil(deadline);
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  RunResult out;
  if (total > 0) {
    out.ktps = static_cast<double>(commits) / ToSeconds(deadline) / 1e3;
    out.abort_pct = 100.0 * static_cast<double>(total - commits) /
                    static_cast<double>(total);
    out.p50_us = ToMicros(latency.Percentile(50));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t coordinators = flags.GetInt("coordinators", 48, "concurrent txns");
  flags.Finish();
  const int c = static_cast<int>(coordinators);

  std::printf("OCC transactions: 2 reads + 1 write, %d coordinators\n\n", c);
  Table t({"hot set", "RNIC Ktxn/s", "RNIC abort%", "RNIC p50 us", "SNIC Ktxn/s",
           "SNIC abort%", "SNIC p50 us"});
  for (uint64_t hot : {4096ull, 256ull, 32ull, 8ull}) {
    const RunResult rn = Run(true, hot, c);
    const RunResult sn = Run(false, hot, c);
    t.Row().Add(FormatBytes(hot * 128));
    t.Add(rn.ktps, 0).Add(rn.abort_pct, 1).Add(rn.p50_us, 1);
    t.Add(sn.ktps, 0).Add(sn.abort_pct, 1).Add(sn.p50_us, 1);
  }
  t.Print(std::cout, flags.csv());
  std::printf("\nshrinking the hot set raises conflicts; the SmartNIC's latency tax\n"
              "both slows each transaction and widens its conflict window.\n");
  return 0;
}

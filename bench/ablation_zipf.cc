// Advice-#1 ablation with realistic skew: instead of truncating the address
// range (the paper's Fig. 7 methodology), draw record addresses from a
// YCSB-style Zipfian distribution and sweep theta. The SoC's missing DDIO
// and single DRAM channel make it progressively slower as the head of the
// distribution heats up; the DDIO host barely notices.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/rdma/verbs.h"
#include "src/runtime/sweep_runner.h"
#include "src/sim/meter.h"
#include "src/topo/server.h"
#include "src/workload/addr_gen.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

// Closed-loop 64B WRITEs against one endpoint with zipf-distributed record
// addresses; returns M reqs/s.
double Run(bool soc, double theta, bool uniform = false) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientParams cp;
  auto clients = MakeClients(&sim, &fabric, cp, 8);
  rdma::RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = soc ? server.soc_ep() : server.host_ep();
  mr.server_port = server.port();
  mr.addr = 0;
  mr.length = 8ull * kGiB;
  const uint64_t records = 1u << 14;  // a 1 MB hot table of 64 B records

  Meter meter(&sim);
  const SimTime warm = FromMicros(60);
  const SimTime win = FromMicros(200);
  meter.SetWindow(warm, warm + win);
  int qp_seq = 0;
  std::vector<std::unique_ptr<rdma::QueuePair>> qps;
  std::vector<std::shared_ptr<ZipfGenerator>> zipfs;
  std::vector<std::shared_ptr<Rng>> rngs;
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (auto& machine : clients) {
    for (int t = 0; t < cp.threads; ++t) {
      qps.push_back(std::make_unique<rdma::QueuePair>(machine.get(), t, mr));
      zipfs.push_back(std::make_shared<ZipfGenerator>(
          records, theta, 1234 + static_cast<uint64_t>(qp_seq)));
      rngs.push_back(std::make_shared<Rng>(99 + static_cast<uint64_t>(qp_seq)));
      rdma::QueuePair* qp = qps.back().get();
      auto zipf = zipfs.back();
      auto rng = rngs.back();
      for (int w = 0; w < 8; ++w) {
        auto loop = std::make_shared<std::function<void()>>();
        loops.push_back(loop);
        *loop = [&meter, qp, zipf, rng, uniform, records, loop] {
          const uint64_t rank = uniform ? rng->NextBelow(records) : zipf->Next();
          qp->PostWrite(rank * 64, 64, 0, [&meter, loop](SimTime) {
            meter.RecordOp(64);
            (*loop)();
          });
        };
        sim.In(FromNanos(150) * qp_seq, *loop);
      }
      ++qp_seq;
    }
  }
  sim.RunUntil(warm + win);
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  return meter.MReqsPerSec();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();

  struct Row {
    const char* name;
    double theta;
    bool uniform;
  };
  const std::vector<Row> rows = {Row{"uniform", 0.5, true}, Row{"zipf 0.70", 0.70, false},
                                 Row{"zipf 0.90", 0.90, false},
                                 Row{"zipf 0.99", 0.99, false}};

  // Pass 1: submit every cell in consumption order (see fig4_latency.cc).
  runtime::SweepQueue<double> sweep(jobs);
  for (const Row& row : rows) {
    const double theta = row.theta;
    const bool uniform = row.uniform;
    sweep.Add([theta, uniform] { return Run(true, theta, uniform); });
    sweep.Add([theta, uniform] { return Run(false, theta, uniform); });
  }
  const std::vector<double> results = sweep.Run();

  std::printf("== Advice #1 under Zipfian skew: 64B WRITE peak (M reqs/s) ==\n");
  Table t({"distribution", "SoC (SNIC 2)", "host DDIO (SNIC 1)", "SoC/host"});
  size_t k = 0;
  for (const Row& row : rows) {
    const double soc = results[k++];
    const double host = results[k++];
    t.Row().Add(row.name).Add(soc, 1).Add(host, 1).Add(soc / host, 2);
  }
  t.Print(std::cout, flags.csv());
  std::printf("\nthe hotter the head, the fewer SoC DRAM banks absorb the writes;\n"
              "with DDIO the host LLC soaks them regardless (paper Advice #1).\n");
  return 0;
}

// LineFS-style pipeline offload study: which stages belong on the SoC?
//
// A three-stage log-processing pipeline (parse -> digest -> publish)
// handles a stream of 4 KB items while the host also serves inter-machine
// RDMA traffic. Offloading the heavy digest stage to the SoC frees host
// cores, but ships every item across path ③ twice — adding item latency
// AND skimming network throughput through the shared PCIe1/NIC resources
// (the §4 interference). The budget rule arbitrates exactly this trade.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/offload/pipeline.h"
#include "src/sim/meter.h"
#include "src/workload/client.h"

using namespace snicsim;           // NOLINT: example brevity
using namespace snicsim::offload;  // NOLINT

namespace {

struct RunResult {
  double pipeline_kitems = 0.0;
  double pipeline_p50_us = 0.0;
  double network_mreqs = 0.0;
  double host_busy_cores = 0.0;
};

RunResult Run(Placement digest_placement, double item_rate_per_sec) {
  Simulator sim;
  const TestbedParams tp;
  Fabric fabric(&sim, tp.network_link_propagation, tp.network_switch_forward);
  BluefieldServer bf(&sim, &fabric, tp);

  // Background inter-machine traffic (64 B READs from 6 machines).
  ClientParams cp;
  auto clients = MakeClients(&sim, &fabric, cp, 6);
  Meter net(&sim);
  const SimTime warm = FromMicros(60);
  const SimTime end = FromMicros(600);
  net.SetWindow(warm, end);
  TargetSpec t;
  t.engine = &bf.nic();
  t.endpoint = bf.host_ep();
  t.server_port = bf.port();
  t.verb = Verb::kRead;
  t.payload = 64;
  uint64_t seed = 1;
  for (auto& c : clients) {
    c->Start(t, AddressGenerator(0, 10ull * 1024 * kMiB, 64, seed++), &net);
  }

  // The pipeline: heavy digest stage on host or SoC.
  std::vector<StageSpec> stages = {
      {"parse", FromNanos(350), 2, Placement::kHost},
      {"digest", FromNanos(1400), 4, digest_placement},
      {"publish", FromNanos(250), 2, Placement::kHost},
  };
  OffloadPipeline pipeline(&sim, &bf, stages, 4096);
  Histogram latency;
  uint64_t items = 0;
  // Open-loop item arrivals.
  const SimTime interval = static_cast<SimTime>(1e12 / item_rate_per_sec);
  auto arrival = std::make_shared<std::function<void()>>();
  *arrival = [&, arrival] {
    if (sim.now() >= end) {
      return;
    }
    const SimTime start = sim.now();
    pipeline.Submit([&, start](SimTime done) {
      if (start >= warm) {
        ++items;
        latency.Record(done - start);
      }
    });
    sim.In(interval, *arrival);
  };
  sim.In(0, *arrival);
  sim.RunUntil(end);
  *arrival = nullptr;  // it owns itself through its closure

  RunResult r;
  const double secs = ToSeconds(end - warm);
  r.pipeline_kitems = static_cast<double>(items) / secs / 1e3;
  r.pipeline_p50_us = ToMicros(latency.Percentile(50));
  r.network_mreqs = net.MReqsPerSec();
  r.host_busy_cores = ToSeconds(pipeline.stats().host_cpu_time) / secs;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double rate = flags.GetDouble("items-per-sec", 1.2e6, "pipeline item arrivals");
  flags.Finish();

  Table t({"digest stage", "Kitems/s", "item p50 us", "net Mreq/s", "host cores used"});
  for (Placement p : {Placement::kHost, Placement::kSoc}) {
    const RunResult r = Run(p, rate);
    t.Row().Add(p == Placement::kHost ? "on host" : "offloaded to SoC");
    t.Add(r.pipeline_kitems, 0).Add(r.pipeline_p50_us, 2).Add(r.network_mreqs, 1);
    t.Add(r.host_busy_cores, 2);
  }
  t.Print(std::cout, flags.csv());
  std::printf("\noffloading the digest stage frees host cores at the cost of two\n"
              "path-3 hops per item (LineFS's trade, arbitrated by the §4 budget).\n");
  return 0;
}

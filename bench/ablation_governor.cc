// §4's budget rule as a mechanism: greedy vs. governed path-③ traffic.
//
// Clients saturate path ① with 4 KB mixed READ/WRITE traffic while a
// host->SoC stream demands more than the P − N headroom. Greedy grabs all
// the PCIe it can and throttles the network; the pacer (src/governor/pacer.h)
// samples the port counters each epoch and keeps the stream at the measured
// headroom.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/governor/pacer.h"
#include "src/runtime/sweep_runner.h"
#include "src/sim/meter.h"
#include "src/topo/server.h"
#include "src/workload/client.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

struct PhaseResult {
  double net_busy = 0.0;  // network Gbps under contention
  double p3_busy = 0.0;   // path-③ Gbps under contention
};

PhaseResult Run(bool governed, double greedy_demand_gbps) {
  Simulator sim;
  const TestbedParams tp;
  Fabric fabric(&sim, tp.network_link_propagation, tp.network_switch_forward);
  BluefieldServer bf(&sim, &fabric, tp);

  const SimTime busy_end = FromMicros(500);

  // Clients: mixed-direction 4 KB streams saturating the NIC.
  ClientParams cp;
  auto clients = MakeClients(&sim, &fabric, cp, 8);
  Meter net_busy_meter(&sim);
  net_busy_meter.SetWindow(FromMicros(100), busy_end);
  TargetSpec read;
  read.engine = &bf.nic();
  read.endpoint = bf.host_ep();
  read.server_port = bf.port();
  read.verb = Verb::kRead;
  read.payload = 4096;
  TargetSpec write = read;
  write.verb = Verb::kWrite;
  uint64_t seed = 1;
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i]->Start(i % 2 == 0 ? read : write,
                      AddressGenerator(0, 10ull * 1024 * kMiB, 64, seed++),
                      &net_busy_meter);
  }

  // Path ③: paced H2S writes, demanding `greedy_demand_gbps`.
  LocalRequesterParams lp = LocalRequesterParams::Host();
  lp.threads = 12;
  lp.paced_gbps = greedy_demand_gbps;
  LocalRequester h2s(&sim, &bf.nic(), bf.host_ep(), bf.soc_ep(), lp, "h2s");
  // One open-window meter, sampled at the phase edge to split busy/idle.
  Meter p3_all(&sim);
  p3_all.SetWindow(FromMicros(100), 0);
  h2s.Start(Verb::kWrite, 4096, AddressGenerator(0, 10ull * 1024 * kMiB, 64, 77), &p3_all);

  std::unique_ptr<governor::Path3Pacer> pacer;
  if (governed) {
    pacer = std::make_unique<governor::Path3Pacer>(&sim, bf.port(), &h2s);
    pacer->Start();
  }

  sim.RunUntil(busy_end);
  PhaseResult r;
  r.net_busy = net_busy_meter.Gbps();
  r.p3_busy = static_cast<double>(p3_all.ops()) * 4096 * 8 / 1e9 /
              ToSeconds(busy_end - FromMicros(100));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double demand = flags.GetDouble("demand", 140.0, "greedy path-3 demand Gbps");
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();

  // Pass 1: submit every cell in consumption order (see fig4_latency.cc).
  runtime::SweepQueue<PhaseResult> sweep(jobs);
  sweep.Add([demand] { return Run(false, demand); });
  sweep.Add([demand] { return Run(true, demand); });
  const std::vector<PhaseResult> results = sweep.Run();

  Table t({"path-3 policy", "net Gbps (busy)", "p3 Gbps (busy)", "total (busy)"});
  const PhaseResult greedy = results[0];
  const PhaseResult governed = results[1];
  t.Row().Add("greedy (fixed demand)");
  t.Add(greedy.net_busy, 1).Add(greedy.p3_busy, 1).Add(greedy.net_busy + greedy.p3_busy, 1);
  t.Row().Add("governed (P - N budget)");
  t.Add(governed.net_busy, 1).Add(governed.p3_busy, 1)
      .Add(governed.net_busy + governed.p3_busy, 1);
  t.Print(std::cout, flags.csv());

  std::printf("\nthe governor trades a little path-3 bandwidth while the network is\n"
              "busy for a much healthier network path — the paper's §4 take-away\n"
              "('use (3) only when spare resources are available') automated.\n");
  return 0;
}

// Figure 10: (a) the latency of posting requests to the NIC per requester
// location, and (b) the impact of doorbell batching (Advice #4).
//
// DB always helps remote clients a little, transforms the SoC side of path
// ③ (2.7-4.6x — one MMIO replaces a batch of slow uncached stores, and the
// NIC reads SoC memory quickly), and *hurts* the host side of path ③ at
// small batch sizes (the WQE-fetch round trip through two PCIe hops lands
// in the critical path).
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/flags.h"
#include "src/common/spec.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/runtime/sweep_runner.h"
#include "src/topo/server.h"
#include "src/workload/harness.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

// The --faults plan, applied to every throughput cell (set once in main
// before the sweep; the helpers below build their configs locally).
fault::FaultPlan g_faults;

// Posting latency: CPU post start -> doorbell at the NIC (Fig. 10(a)).
void PrintPostingLatency(bool csv) {
  Simulator sim;
  Fabric fabric(&sim);
  const TestbedParams tp;
  RnicServer rnic(&sim, &fabric, tp, "r");
  BluefieldServer bf(&sim, &fabric, tp, "b");
  const LocalRequesterParams host = LocalRequesterParams::Host();
  const LocalRequesterParams soc = LocalRequesterParams::Soc();
  const ClientParams cli;

  std::printf("== Figure 10(a): posting latency (ns per doorbell) ==\n");
  Table t({"requester", "mmio block", "flight", "total"});
  auto row = [&](const char* name, SimTime block, SimTime flight) {
    t.Row().Add(name);
    t.Add(ToNanos(block), 0).Add(ToNanos(flight), 0).Add(ToNanos(block + flight), 0);
  };
  row("client -> its RNIC", cli.mmio_block, cli.mmio_flight);
  row("host -> RNIC (RNIC 1)", cli.mmio_block, rnic.host_ep()->to_mem().BaseLatency());
  row("host -> BF NIC (SNIC 3 H2S)", host.mmio_block, bf.host_ep()->to_mem().BaseLatency());
  row("SoC -> BF NIC (SNIC 3 S2H)", soc.mmio_block, bf.soc_ep()->to_mem().BaseLatency());
  t.Print(std::cout, csv);
}

double ClientDbThroughput(ServerKind kind, bool batch, int batch_size) {
  // One requester machine: posting efficiency only shows when the
  // requester, not the responder, is the limiter.
  HarnessConfig cfg;
  cfg.client_machines = 1;
  cfg.faults = g_faults;
  cfg.client.doorbell_batch = batch;
  cfg.client.batch = batch_size;
  if (batch) {
    cfg.client.window = 2;  // two batches in flight: fetch pipelined
  }
  return MeasureInboundPath(kind, Verb::kRead, 64, cfg).mreqs;
}

double LocalDbThroughput(bool s2h, bool batch, int batch_size,
                         const std::string& trace = "", const std::string& metrics = "") {
  LocalRequesterParams p = s2h ? LocalRequesterParams::Soc() : LocalRequesterParams::Host();
  p.doorbell_batch = batch;
  p.batch = batch_size;
  HarnessConfig cfg;
  cfg.client_machines = 1;
  cfg.faults = g_faults;
  cfg.warmup = FromMicros(80);   // several batch cycles
  cfg.window = FromMicros(600);
  cfg.trace_path = trace;
  cfg.metrics_path = metrics;
  return MeasureLocalPath(s2h, Verb::kRead, 64, p, cfg).mreqs;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string trace = spec::OutputPathFlag(
      flags, "trace", "trace JSON output (S2H doorbell-batch B=32 run)");
  const std::string metrics = spec::OutputPathFlag(
      flags, "metrics", "metrics JSON output (S2H doorbell-batch B=32 run)");
  const int jobs = runtime::JobsFlag(flags);
  g_faults = fault::FaultsFlag(flags);
  flags.Finish();

  PrintPostingLatency(flags.csv());

  std::printf("\n== Figure 10(b): doorbell batching impact on 64B READ (M reqs/s) ==\n");
  const std::vector<int> batches = {16, 32, 48, 64, 80};
  Table t({"config", "no DB", "B=16", "B=32", "B=48", "B=64", "B=80", "best DB/base"});

  struct Series {
    const char* name;
    std::function<double(bool, int)> run;
  };
  const Series series[] = {
      {"RNIC(1) client", [](bool b, int n) {
         return ClientDbThroughput(ServerKind::kRnicHost, b, n);
       }},
      {"SNIC(1) client", [](bool b, int n) {
         return ClientDbThroughput(ServerKind::kBluefieldHost, b, n);
       }},
      {"SNIC(3) SoC-side (S2H)",
       [&](bool b, int n) {
         // Trace the batched run: post_batch + wqe_fetch spans only show up
         // with doorbell batching on.
         const bool sink = b && n == 32;
         return LocalDbThroughput(true, b, n, sink ? trace : "", sink ? metrics : "");
       }},
      {"SNIC(3) host-side (H2S)", [](bool b, int n) {
         return LocalDbThroughput(false, b, n);
       }},
  };

  // Pass 1: submit every cell in consumption order (see fig4_latency.cc).
  runtime::SweepQueue<double> sweep(jobs);
  for (const Series& s : series) {
    sweep.Add([&s] { return s.run(false, 1); });
    for (int b : batches) {
      sweep.Add([&s, b] { return s.run(true, b); });
    }
  }
  const std::vector<double> results = sweep.Run();

  size_t k = 0;
  for (const Series& s : series) {
    const double base = results[k++];
    t.Row().Add(s.name).Add(base, 1);
    double best = 0;
    for (size_t bi = 0; bi < batches.size(); ++bi) {
      const double v = results[k++];
      best = std::max(best, v);
      t.Add(v, 1);
    }
    t.Add(best / base, 2);
  }
  t.Print(std::cout, flags.csv());

  std::printf("\npaper: DB gives +2-30%% on RNIC(1)/SNIC(1), 2.7-4.6x on the SoC side\n"
              "of path (3), and -9/-7/-6%% at batches 16/32/48 on the host side.\n");
  return 0;
}

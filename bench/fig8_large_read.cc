// Figure 8: bandwidth (a) and PCIe packet throughput (b) of large READs and
// WRITEs against the host (SNIC ①) vs. the SoC (SNIC ②).
//
// The SoC's 128 B PCIe MTU head-of-line-blocks READs above ~9 MB: payload
// bandwidth collapses from network-bound (~191 Gbps) to ~100-130 Gbps and
// the PCIe1 packet rate falls from ~186 Mpps to ~115 Mpps (Advice #2).
// WRITEs are posted and unaffected; the host's 512 B MTU path is flat.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/flags.h"
#include "src/common/spec.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/runtime/sweep_runner.h"
#include "src/workload/harness.h"

using namespace snicsim;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.GetBool("quick", false, "skip the >16MB points");
  const std::string trace =
      spec::OutputPathFlag(flags, "trace", "trace JSON output (first READ SNIC(2) point)");
  const std::string metrics = spec::OutputPathFlag(
      flags, "metrics", "metrics JSON output (first READ SNIC(2) point)");
  const int jobs = runtime::JobsFlag(flags);
  const fault::FaultPlan faults = fault::FaultsFlag(flags);
  flags.Finish();

  std::vector<uint32_t> payloads = {64 * 1024,       256 * 1024,      1024 * 1024,
                                    4 * 1024 * 1024, 8 * 1024 * 1024, 10 * 1024 * 1024,
                                    16 * 1024 * 1024};
  if (!quick) {
    payloads.push_back(32 * 1024 * 1024);
  }

  HarnessConfig cfg;
  cfg.client_machines = 8;
  cfg.faults = faults;

  std::printf("== Figure 8(a): bandwidth (Gbps) ==\n");
  Table a({"payload", "READ SNIC(1)", "READ SNIC(2)", "WRITE SNIC(2)"});
  std::printf("== collecting... ==\n");
  runtime::SweepQueue<Measurement> sweep(jobs);
  for (uint32_t p : payloads) {
    // The sinks attach to the first SNIC(2) READ point: the path whose
    // sub-read pipeline (128 B MTU, HoL stalls) Fig. 8 is about.
    HarnessConfig r2cfg = cfg;
    if (p == payloads.front()) {
      r2cfg.trace_path = trace;
      r2cfg.metrics_path = metrics;
    }
    sweep.Add([p, cfg] {
      return MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, p, cfg);
    });
    sweep.Add([p, r2cfg] {
      return MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, p, r2cfg);
    });
    sweep.Add([p, cfg] {
      return MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kWrite, p, cfg);
    });
  }
  const std::vector<Measurement> results = sweep.Run();
  std::vector<Measurement> r1s, r2s, w2s;
  for (size_t i = 0; i < payloads.size(); ++i) {
    r1s.push_back(results[3 * i]);
    r2s.push_back(results[3 * i + 1]);
    w2s.push_back(results[3 * i + 2]);
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    a.Row().Add(FormatBytes(payloads[i]));
    a.Add(r1s[i].gbps, 1).Add(r2s[i].gbps, 1).Add(w2s[i].gbps, 1);
  }
  a.Print(std::cout, flags.csv());

  std::printf("\n== Figure 8(b): PCIe packet throughput (Mpps, PCIe1+PCIe0) ==\n");
  Table b({"payload", "READ SNIC(1)", "READ SNIC(2)"});
  for (size_t i = 0; i < payloads.size(); ++i) {
    b.Row().Add(FormatBytes(payloads[i]));
    b.Add(r1s[i].pcie_total_mpps / 2.0, 1);  // per-link rate, like the paper
    b.Add(r2s[i].pcie1_mpps, 1);
  }
  b.Print(std::cout, flags.csv());

  std::printf("\npaper: SNIC(2) READ collapses above 9MB (186 -> <120 Mpps); SNIC(1)\n"
              "stays ~46.7 Mpps per link / ~191 Gbps, network-bound.\n");
  return 0;
}

// Figure 4 (upper): end-to-end latency of random inbound RDMA requests vs.
// payload, for every communication path.
//
// Paper series: RNIC①, SNIC①, SNIC②, SNIC③(S2H), SNIC③(H2S) for READ,
// WRITE, SEND/RECV. One requester, one outstanding op (paper §3 setup).
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

namespace {

double LocalLatency(bool s2h, Verb verb, uint32_t payload, const fault::FaultPlan& faults) {
  LocalRequesterParams p = s2h ? LocalRequesterParams::Soc() : LocalRequesterParams::Host();
  p.threads = 1;
  p.window = 1;
  HarnessConfig cfg = HarnessConfig::Latency();
  cfg.faults = faults;
  return MeasureLocalPath(s2h, verb, payload, p, cfg).p50_us;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t max_payload =
      flags.GetInt("max-payload", 16384, "largest payload in the sweep");
  const std::string trace =
      spec::OutputPathFlag(flags, "trace", "trace JSON output (SNIC(1) READ 64B run)");
  const std::string metrics =
      spec::OutputPathFlag(flags, "metrics", "metrics JSON output (SNIC(1) READ 64B run)");
  const int jobs = runtime::JobsFlag(flags);
  const fault::FaultPlan faults = fault::FaultsFlag(flags);
  flags.Finish();

  const std::vector<uint32_t> payloads = {8, 16, 64, 256, 512, 1024, 4096, 16384};
  HarnessConfig lat = HarnessConfig::Latency();
  lat.faults = faults;

  // Pass 1: enqueue every cell's experiment in exactly the order the table
  // pass below consumes them, so --jobs=N output is byte-identical.
  runtime::SweepQueue<double> sweep(jobs);
  for (Verb verb : {Verb::kRead, Verb::kWrite, Verb::kSend}) {
    for (uint32_t p : payloads) {
      if (p > static_cast<uint64_t>(max_payload)) {
        continue;
      }
      HarnessConfig snic1 = lat;
      if (verb == Verb::kRead && p == 64) {
        snic1.trace_path = trace;
        snic1.metrics_path = metrics;
      }
      sweep.Add([verb, p, lat] {
        return MeasureInboundPath(ServerKind::kRnicHost, verb, p, lat).p50_us;
      });
      sweep.Add([verb, p, snic1] {
        return MeasureInboundPath(ServerKind::kBluefieldHost, verb, p, snic1).p50_us;
      });
      sweep.Add([verb, p, lat] {
        return MeasureInboundPath(ServerKind::kBluefieldSoc, verb, p, lat).p50_us;
      });
      sweep.Add([verb, p, faults] { return LocalLatency(/*s2h=*/true, verb, p, faults); });
      sweep.Add([verb, p, faults] { return LocalLatency(/*s2h=*/false, verb, p, faults); });
    }
  }
  const std::vector<double> results = sweep.Run();

  // Pass 2: consume in the same order.
  size_t k = 0;
  for (Verb verb : {Verb::kRead, Verb::kWrite, Verb::kSend}) {
    std::printf("== Figure 4 (upper): %s latency (us, p50) ==\n", VerbName(verb));
    Table t({"payload", "RNIC(1)", "SNIC(1)", "SNIC(2)", "SNIC(3)S2H", "SNIC(3)H2S"});
    for (uint32_t p : payloads) {
      if (p > static_cast<uint64_t>(max_payload)) {
        continue;
      }
      t.Row().Add(FormatBytes(p));
      for (int col = 0; col < 5; ++col) {
        t.Add(results[k++], 2);
      }
    }
    t.Print(std::cout, flags.csv());
    std::printf("\n");
  }
  std::printf("paper bands: SNIC(1) READ +15-30%% / WRITE +15-21%% / SEND +6-9%% vs "
              "RNIC(1); SNIC(2) READ up to -14%% vs SNIC(1); S2H highest.\n");
  return 0;
}

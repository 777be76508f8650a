// Figure 4 (lower): peak throughput of random inbound RDMA requests vs.
// payload, for every path plus the concurrent combinations ①+② and ①+③.
//
// Up to eleven requester machines saturate the responder (paper §3 setup).
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/runtime/sweep_runner.h"
#include "src/workload/harness.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

Measurement Local(bool s2h, Verb verb, uint32_t payload, const HarnessConfig& cfg) {
  LocalRequesterParams p = s2h ? LocalRequesterParams::Soc() : LocalRequesterParams::Host();
  if (s2h) {
    p.doorbell_batch = true;  // the sane configuration on the SoC (Advice #4)
    p.batch = 32;
  }
  return MeasureLocalPath(s2h, verb, payload, p, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t clients = flags.GetInt("clients", 11, "requester machines");
  const bool small_only = flags.GetBool("small-only", false, "only payloads < 1 KB");
  const int jobs = runtime::JobsFlag(flags);
  const fault::FaultPlan faults = fault::FaultsFlag(flags);
  flags.Finish();

  HarnessConfig cfg;
  cfg.client_machines = static_cast<int>(clients);
  cfg.faults = faults;

  std::vector<uint32_t> payloads = {8, 16, 64, 256, 512, 1024, 4096, 16384, 65536};
  if (small_only) {
    payloads = {8, 16, 64, 256, 512};
  }

  // Pass 1: submit every cell in consumption order (see fig4_latency.cc).
  runtime::SweepQueue<Measurement> sweep(jobs);
  for (Verb verb : {Verb::kRead, Verb::kWrite, Verb::kSend}) {
    for (uint32_t p : payloads) {
      sweep.Add([verb, p, cfg] {
        return MeasureInboundPath(ServerKind::kRnicHost, verb, p, cfg);
      });
      sweep.Add([verb, p, cfg] {
        return MeasureInboundPath(ServerKind::kBluefieldHost, verb, p, cfg);
      });
      sweep.Add([verb, p, cfg] {
        return MeasureInboundPath(ServerKind::kBluefieldSoc, verb, p, cfg);
      });
      sweep.Add([verb, p, cfg] { return MeasureConcurrentInbound(verb, p, cfg); });
      sweep.Add([verb, p, cfg] { return Local(true, verb, p, cfg); });
      sweep.Add([verb, p, cfg] { return Local(false, verb, p, cfg); });
    }
  }
  const std::vector<Measurement> results = sweep.Run();

  size_t k = 0;
  for (Verb verb : {Verb::kRead, Verb::kWrite, Verb::kSend}) {
    std::printf("== Figure 4 (lower): %s peak throughput (M reqs/s) ==\n", VerbName(verb));
    Table t({"payload", "RNIC(1)", "SNIC(1)", "SNIC(2)", "SNIC(1+2)", "SNIC(3)S2H",
             "SNIC(3)H2S", "SNIC(1)gbps"});
    for (uint32_t p : payloads) {
      const Measurement& rnic = results[k++];
      const Measurement& snic1 = results[k++];
      const Measurement& snic2 = results[k++];
      const Measurement& both = results[k++];
      const Measurement& s2h = results[k++];
      const Measurement& h2s = results[k++];
      t.Row().Add(FormatBytes(p));
      t.Add(rnic.mreqs, 1).Add(snic1.mreqs, 1).Add(snic2.mreqs, 1).Add(both.mreqs, 1);
      t.Add(s2h.mreqs, 1).Add(h2s.mreqs, 1);
      t.Add(snic1.gbps, 1);
    }
    t.Print(std::cout, flags.csv());
    std::printf("\n");
  }
  std::printf(
      "paper bands (<512B): SNIC(1) vs RNIC(1): READ -19-26%%, WRITE -15-22%%, "
      "SEND -3-36%%; SNIC(2)/SNIC(1): 1.08-1.48x (READ can beat RNIC); SEND(2) "
      "up to -64%%; (3) READ: ~29M S2H / ~51M H2S.\n");
  return 0;
}

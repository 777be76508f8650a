// §5 Discussion ablation: the vendor mitigations the paper suggests.
//
//  * CCI-style SoC coherence (ARM CoreLink CCI-550): lets inbound I/O
//    allocate into an SoC LLC — should flatten the Advice-#1 write-skew
//    collapse exactly like DDIO does on the host.
//  * CXL-style host<->SoC window: a direct load/store path through the
//    switch, skipping the RNIC — should lift path ③'s double-PCIe1
//    bottleneck and its large-transfer collapse.
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/runtime/sweep_runner.h"
#include "src/sim/meter.h"
#include "src/topo/future.h"
#include "src/workload/harness.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

double SkewedSocWrite(const TestbedParams& tp, uint64_t range) {
  HarnessConfig cfg;
  cfg.testbed = tp;
  cfg.address_range = range;
  return MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kWrite, 64, cfg).mreqs;
}

// Streams `total` bytes host->SoC in `chunk`-sized units; returns Gbps.
double CxlStream(uint32_t chunk, uint64_t total) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  CxlWindow cxl(&sim, &server);
  auto moved = std::make_shared<uint64_t>(0);
  // Four concurrent streams, back-to-back chunks.
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (int s = 0; s < 4; ++s) {
    auto loop = std::make_shared<std::function<void()>>();
    loops.push_back(loop);
    auto offset = std::make_shared<uint64_t>(static_cast<uint64_t>(s) * total);
    *loop = [&sim, &cxl, loop, moved, offset, chunk, total] {
      if (*moved >= total) {
        return;
      }
      cxl.Copy(/*to_host=*/false, *offset, chunk, [loop, moved, chunk](SimTime) {
        *moved += chunk;
        (*loop)();
      });
      *offset += chunk;
    };
    sim.In(0, *loop);
  }
  sim.Run();
  for (const auto& loop : loops) {
    *loop = nullptr;  // it owns itself through its closure
  }
  return static_cast<double>(total) * 8.0 / 1e9 / ToSeconds(sim.now());
}

double Path3Stream(uint32_t chunk) {
  LocalRequesterParams p = LocalRequesterParams::Host();
  HarnessConfig cfg;
  return MeasureLocalPath(false, Verb::kWrite, chunk, p, cfg).gbps;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();

  const TestbedParams stock;
  const TestbedParams with_cci = WithSocCci(stock);
  const std::vector<uint64_t> ranges = {1536, 6 * kKiB, 48 * kKiB, 1 * kMiB};
  const std::vector<uint32_t> chunks = {64u * 1024, 1024u * 1024, 16u * 1024 * 1024};

  // Pass 1: submit every cell in consumption order (see fig4_latency.cc).
  runtime::SweepQueue<double> sweep(jobs);
  for (uint64_t range : ranges) {
    sweep.Add([stock, range] { return SkewedSocWrite(stock, range); });
    sweep.Add([with_cci, range] { return SkewedSocWrite(with_cci, range); });
  }
  for (uint32_t chunk : chunks) {
    sweep.Add([chunk] { return Path3Stream(chunk); });
    sweep.Add([chunk] { return CxlStream(chunk, 256 * kMiB); });
  }
  const std::vector<double> results = sweep.Run();
  size_t k = 0;

  std::printf("== Mitigation 1: CCI-style SoC coherence vs Advice #1 ==\n");
  Table cci({"range", "stock BF-2 (M/s)", "with CCI LLC (M/s)"});
  for (uint64_t range : ranges) {
    cci.Row().Add(FormatBytes(range));
    cci.Add(results[k++], 1);
    cci.Add(results[k++], 1);
  }
  cci.Print(std::cout, flags.csv());
  std::printf("expected: the CCI column stays flat, like the host's DDIO.\n\n");

  std::printf("== Mitigation 2: CXL-style window vs path 3 (H2S transfers) ==\n");
  Table cxl({"chunk", "RDMA path 3 (Gbps)", "CXL window (Gbps)"});
  for (uint32_t chunk : chunks) {
    cxl.Row().Add(FormatBytes(chunk));
    cxl.Add(results[k++], 1);
    cxl.Add(results[k++], 1);
  }
  cxl.Print(std::cout, flags.csv());
  std::printf("expected: the CXL column is immune to the >9MB collapse and does not\n"
              "consume PCIe1, freeing the whole NIC for network traffic (paper §5).\n");
  return 0;
}

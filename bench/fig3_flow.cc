// Figure 3: the execution flow of READ/WRITE on RNIC vs. SmartNIC — shown
// as a per-phase latency decomposition from the closed-form model, with the
// simulator's end-to-end p50 as the cross-check column.
//
// READ pays the PCIe path twice (request + completion) while WRITE posts
// and acks; the SmartNIC adds the PCIe1 + switch crossing to both.
#include <cstdio>
#include <iostream>
#include <vector>

#include "src/common/flags.h"
#include "src/common/spec.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/model/latency_model.h"
#include "src/runtime/sweep_runner.h"
#include "src/workload/harness.h"

using namespace snicsim;  // NOLINT: bench brevity

namespace {

ServerKind ToKind(LatencyTarget t) {
  switch (t) {
    case LatencyTarget::kRnicHost:
      return ServerKind::kRnicHost;
    case LatencyTarget::kBluefieldHost:
      return ServerKind::kBluefieldHost;
    case LatencyTarget::kBluefieldSoc:
      return ServerKind::kBluefieldSoc;
  }
  return ServerKind::kRnicHost;
}

const char* Name(LatencyTarget t) {
  switch (t) {
    case LatencyTarget::kRnicHost:
      return "RNIC(1)";
    case LatencyTarget::kBluefieldHost:
      return "SNIC(1)";
    case LatencyTarget::kBluefieldSoc:
      return "SNIC(2)";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t payload = flags.GetInt("payload", 64, "payload bytes");
  const std::string trace = spec::OutputPathFlag(
      flags, "trace", "Chrome trace_event JSON output (SNIC(1) READ run)");
  const std::string metrics =
      spec::OutputPathFlag(flags, "metrics", "metrics JSON output (SNIC(1) READ run)");
  const int jobs = runtime::JobsFlag(flags);
  const fault::FaultPlan faults = fault::FaultsFlag(flags);
  flags.Finish();
  const uint32_t p = static_cast<uint32_t>(payload);

  // Pass 1: submit the sim cross-check runs in consumption order.
  runtime::SweepQueue<double> sweep(jobs);
  for (Verb verb : {Verb::kRead, Verb::kWrite}) {
    for (LatencyTarget target : {LatencyTarget::kRnicHost, LatencyTarget::kBluefieldHost,
                                 LatencyTarget::kBluefieldSoc}) {
      HarnessConfig cfg = HarnessConfig::Latency();
      cfg.faults = faults;
      if (verb == Verb::kRead && target == LatencyTarget::kBluefieldHost) {
        // The SNIC(1) READ run is the one the paper's Fig. 3 narrates, so
        // that's the run the observability sinks attach to.
        cfg.trace_path = trace;
        cfg.metrics_path = metrics;
      }
      sweep.Add([target, verb, p, cfg] {
        return MeasureInboundPath(ToKind(target), verb, p, cfg).p50_us;
      });
    }
  }
  const std::vector<double> results = sweep.Run();

  size_t k = 0;
  for (Verb verb : {Verb::kRead, Verb::kWrite}) {
    std::printf("== Figure 3: %s execution flow, %s payload (us per phase) ==\n",
                VerbName(verb), FormatBytes(p).c_str());
    Table t({"config", "post", "req wire", "pcie", "memory", "resp wire", "cqe",
             "model total", "sim p50"});
    for (LatencyTarget target : {LatencyTarget::kRnicHost, LatencyTarget::kBluefieldHost,
                                 LatencyTarget::kBluefieldSoc}) {
      const LatencyBreakdown b = PredictLatency(target, verb, p);
      const double sim = results[k++];
      t.Row().Add(Name(target));
      t.Add(b.post_us, 2).Add(b.request_wire_us, 2).Add(b.pcie_round_trip_us, 2);
      t.Add(b.memory_us, 2).Add(b.response_wire_us, 2).Add(b.completion_us, 2);
      t.Add(b.total_us(), 2).Add(sim, 2);
    }
    t.Print(std::cout, flags.csv());
    std::printf("\n");
  }
  std::printf("READ pays the PCIe column twice as much as WRITE (request +\n"
              "completion vs posted, Fig. 3), and the SmartNIC rows pay the extra\n"
              "switch/PCIe1 crossing inside it.\n");
  return 0;
}

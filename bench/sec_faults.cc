// Fault ablation: how the paper's path advice holds up when the testbed
// misbehaves.
//
// Two experiments, both driven by the deterministic fault layer (src/fault):
//   1. Uniform frame loss on the network cables — READ throughput/latency on
//      RNIC(1), SNIC(1), SNIC(2) as the per-frame drop probability rises,
//      with the client retransmitting lost ops (per-op timeout, bounded
//      backoff).
//      The off-path advice survives loss: all three paths degrade by the
//      same transport mechanics, so their ordering is preserved.
//   2. SoC core stalls — recurring windows where the BlueField's Arm cores
//      make no progress (firmware hiccups, thermal throttling). Measured
//      with SEND (the two-sided verb whose handler runs on the endpoint's
//      CPU): only SNIC(2), the SoC-terminated path, is hurt, and one-sided
//      READ is immune on both paths because it never touches a core —
//      advice #1 restated as a fault argument.
//
// Every cell carries its own FaultPlan (same `--fault-seed`), so the table
// is byte-identical across runs and across `--jobs=N`.
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

// Small-but-saturating setup: a few machines and a transport timeout short
// enough that a lost 512 B op retransmits (several times if needed) inside
// the measurement window.
HarnessConfig FaultBenchConfig() {
  HarnessConfig cfg;
  cfg.client_machines = 3;
  cfg.client.threads = 4;
  cfg.warmup = FromMicros(40);
  cfg.window = FromMicros(160);
  cfg.client.transport_timeout = FromMicros(20);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int64_t payload_flag = flags.GetInt("payload", 512, "payload bytes");
  const int64_t fault_seed = flags.GetInt("fault-seed", 7, "fault plan RNG seed");
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();
  const uint32_t payload = static_cast<uint32_t>(payload_flag);

  const std::vector<double> drops = {0.0, 0.001, 0.01, 0.05};
  const std::vector<ServerKind> kinds = {ServerKind::kRnicHost,
                                         ServerKind::kBluefieldHost,
                                         ServerKind::kBluefieldSoc};

  // Pass 1: enqueue every cell (drop sweep first, stall ablation after) in
  // a fixed order so --jobs=N output is byte-identical.
  runtime::SweepQueue<Measurement> sweep(jobs);
  for (double drop : drops) {
    for (ServerKind kind : kinds) {
      HarnessConfig cfg = FaultBenchConfig();
      cfg.faults.drop_rate = drop;
      cfg.faults.seed = static_cast<uint64_t>(fault_seed);
      sweep.Add([kind, payload, cfg] {
        return MeasureInboundPath(kind, Verb::kRead, payload, cfg);
      });
    }
  }
  const std::vector<ServerKind> stall_kinds = {ServerKind::kBluefieldHost,
                                               ServerKind::kBluefieldSoc};
  const std::vector<Verb> stall_verbs = {Verb::kSend, Verb::kRead};
  for (ServerKind kind : stall_kinds) {
    for (Verb verb : stall_verbs) {
      for (bool stalled : {false, true}) {
        HarnessConfig cfg = FaultBenchConfig();
        if (stalled) {
          // Two 30 us SoC blackouts inside the measurement window.
          cfg.faults.seed = static_cast<uint64_t>(fault_seed);
          cfg.faults.stalls.push_back({"soc", FromMicros(60), FromMicros(90)});
          cfg.faults.stalls.push_back({"soc", FromMicros(120), FromMicros(150)});
        }
        sweep.Add([kind, verb, payload, cfg] {
          return MeasureInboundPath(kind, verb, payload, cfg);
        });
      }
    }
  }
  const std::vector<Measurement> results = sweep.Run();

  // Pass 2: consume in the same order.
  for (size_t ki = 0; ki < kinds.size(); ++ki) {
    std::printf("== READ %u B on %s under uniform frame loss ==\n", payload,
                ServerKindName(kinds[ki]));
    Table t({"drop", "mreqs", "p50_us", "retx", "failed", "frames_lost"});
    for (size_t di = 0; di < drops.size(); ++di) {
      const Measurement& m = results[di * kinds.size() + ki];
      t.Row()
          .Add(drops[di], 3)
          .Add(m.mreqs, 3)
          .Add(m.p50_us, 2)
          .Add(m.retransmits)
          .Add(m.op_failures)
          .Add(m.frames_dropped);
    }
    t.Print(std::cout, flags.csv());
    std::printf("\n");
  }

  const size_t stall_base = drops.size() * kinds.size();
  std::printf("== %u B with recurring 30 us SoC core stalls ==\n", payload);
  Table st({"path", "verb", "soc_stalls", "mreqs", "p50_us", "p99_us"});
  size_t si = stall_base;
  for (ServerKind kind : stall_kinds) {
    for (Verb verb : stall_verbs) {
      for (int stalled = 0; stalled < 2; ++stalled) {
        const Measurement& m = results[si++];
        st.Row()
            .Add(ServerKindName(kind))
            .Add(VerbName(verb))
            .Add(stalled ? "on" : "off")
            .Add(m.mreqs, 3)
            .Add(m.p50_us, 2)
            .Add(m.p99_us, 2);
      }
    }
  }
  st.Print(std::cout, flags.csv());
  std::printf(
      "\nexpected: loss degrades all paths through the same RC transport "
      "(ordering preserved); SoC stalls hurt only SNIC(2) SEND (the verb "
      "whose handler runs on the Arm cores) — one-sided READ and the host "
      "path are immune, which is advice #1 restated as a fault argument.\n");
  return 0;
}

// Figure 12 (ours): the adaptive path-selection governor on the scale-out
// KV serving workload, against both static deployments and the
// full-knowledge oracle, across a skew x value-size-mixture sweep.
//
// The serving host pool is deliberately small (--host-cores, default 2) so
// the paper's regime is visible: a pressured host pool makes path ② real
// extra capacity rather than a strictly slower detour. The governor splits
// traffic using the paper's advices — HoL gate above 9 MiB, P−N path-③
// budget, SoC in-flight cap, doorbell-batch-aware priors — plus its epoch
// EWMA feedback, and must match-or-beat the better static policy at every
// sweep point and strictly beat both statics somewhere.
//
// A second section sweeps a single value size across the HoL threshold and
// prints the governor's SoC share per size: the routing flip the README
// walkthrough points at. Pass --trace=PATH to capture a Chrome trace of the
// last below-threshold point (both paths active).
//
// --check replays the whole grid at --jobs=1 and at --jobs=N, and replays a
// faulted grid (frame drops + retransmits) the same way, asserting every
// ServingResult replay digest is byte-identical — the sweep-level determinism
// contract — and then asserts the dominance properties above.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/spec.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/governor/serving.h"
#include "src/runtime/check.h"

using namespace snicsim;  // NOLINT: bench brevity
using governor::PolicyKind;
using governor::RunServing;
using governor::ServingResult;
using governor::ServingRunConfig;

namespace {

struct MixSpec {
  const char* name;
  std::vector<uint32_t> class_bytes;
  std::vector<double> weights;
  // Fleet size per mix: enough clients to saturate the serving side, but
  // near the knee — not 10x past it, where every policy just measures its
  // own unbounded queue and the feedback signals are pure ramp transient.
  int logical_clients;
};

const std::vector<MixSpec>& Mixes() {
  static const std::vector<MixSpec> kMixes = {
      {"64B", {64}, {1.0}, 192},
      {"64B/4K", {64, 4096}, {0.7, 0.3}, 192},
      {"4K/64K", {4096, 65536}, {0.8, 0.2}, 24},
  };
  return kMixes;
}

const std::vector<PolicyKind>& Policies() {
  static const std::vector<PolicyKind> kPolicies = {
      PolicyKind::kStaticHost, PolicyKind::kStaticSoc, PolicyKind::kOracle,
      PolicyKind::kGovernor};
  return kPolicies;
}

ServingRunConfig Base(int host_cores) {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 192;
  c.fleet.window = 1;
  c.fleet.seed = 42;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.host_cores = host_cores;
  c.warmup = FromMicros(30);
  c.window = FromMicros(150);
  return c;
}

ServingRunConfig GridPoint(double theta, const MixSpec& mix, PolicyKind policy,
                           const fault::FaultPlan& plan, int host_cores) {
  ServingRunConfig c = Base(host_cores);
  c.zipf_theta = theta;
  c.layout.class_bytes = mix.class_bytes;
  c.mix.weights = mix.weights;
  c.fleet.logical_clients = mix.logical_clients;
  c.policy = policy;
  if (!plan.empty()) {
    c.faults = plan;
    c.client.transport_timeout = FromMicros(20);
  }
  return c;
}

// Appends the full (theta x mix x policy) grid to `cells`: point-major,
// Policies() order within each point.
void AddGrid(const std::vector<double>& thetas, const fault::FaultPlan& plan,
             int host_cores, bool governor_only,
             std::vector<ServingRunConfig>* cells) {
  for (double theta : thetas) {
    for (const MixSpec& mix : Mixes()) {
      for (PolicyKind policy : Policies()) {
        if (!governor_only || policy == PolicyKind::kGovernor) {
          cells->push_back(GridPoint(theta, mix, policy, plan, host_cores));
        }
      }
    }
  }
}

// The HoL-flip section: one value size per run, swept across the 9 MiB
// threshold with a small fleet (large replies, few ops needed).
ServingRunConfig FlipPoint(uint32_t bytes, int host_cores) {
  ServingRunConfig c = Base(host_cores);
  c.fleet.machines = 1;
  c.fleet.logical_clients = 8;
  c.layout.class_bytes = {bytes};
  c.mix = SizeMixture::Single();
  c.window = FromMicros(250);
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  // Full fault-plan grammar (drop=…,flap=…,crash=…; a bare number is
  // shorthand for a uniform drop rate, so --faults=0.02 keeps working).
  const fault::FaultPlan faults = fault::FaultsFlag(flags);
  const bool check = flags.GetBool("check", false,
                                   "assert dominance + --jobs/fault determinism");
  const std::string trace =
      spec::OutputPathFlag(flags, "trace", "Chrome trace of the 8 MiB flip point");
  const int64_t host_cores = flags.GetInt("host-cores", 2, "serving host pool size");
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();

  const std::vector<double> thetas = {0.6, 0.99};
  const int hc = static_cast<int>(host_cores);

  std::vector<ServingRunConfig> cells;
  AddGrid(thetas, faults, hc, /*governor_only=*/false, &cells);
  if (check) {
    // The --jobs replay also covers a faulted governor grid, so it runs
    // behind the table's cells.
    fault::FaultPlan fault_plan = faults;
    if (fault_plan.empty()) {
      fault_plan.drop_rate = 0.02;
      fault_plan.seed = 7;
    }
    AddGrid(thetas, fault_plan, hc, /*governor_only=*/true, &cells);
  }
  const std::vector<ServingResult> grid = runtime::RunEach(cells, jobs, RunServing);

  std::printf("== Figure 12: governor vs static paths vs oracle "
              "(%d-core host pool%s) ==\n",
              hc, !faults.empty() ? ", faulted" : "");
  Table t({"theta", "mix", "host mreqs", "soc mreqs", "oracle", "governor",
           "gov p99us", "gov soc%", "winner"});
  bool dominated_everywhere = true;
  bool strict_win_somewhere = false;
  size_t k = 0;
  for (double theta : thetas) {
    for (const MixSpec& mix : Mixes()) {
      const ServingResult& host = grid[k++];
      const ServingResult& soc = grid[k++];
      const ServingResult& oracle = grid[k++];
      const ServingResult& gov = grid[k++];
      const double best_static = std::max(host.mreqs, soc.mreqs);
      // Small tolerance: where one static is already optimal the governor
      // still pays its ε-exploration floor.
      if (gov.mreqs < best_static * 0.95) {
        dominated_everywhere = false;
      }
      if (gov.mreqs > host.mreqs && gov.mreqs > soc.mreqs) {
        strict_win_somewhere = true;
      }
      t.Row()
          .Add(theta, 2)
          .Add(mix.name)
          .Add(host.mreqs, 3)
          .Add(soc.mreqs, 3)
          .Add(oracle.mreqs, 3)
          .Add(gov.mreqs, 3)
          .Add(gov.p99_us, 2)
          .Add(100.0 * gov.share_soc, 1)
          .Add(gov.mreqs >= best_static
                   ? "governor"
                   : (host.mreqs >= soc.mreqs ? "static-host" : "static-soc"));
    }
  }
  t.Print(std::cout, flags.csv());

  // The routing flip at the HoL size threshold (advice #2 as a gate): SoC
  // share collapses to exactly zero once the value crosses 9 MiB.
  std::printf("\n== Governor SoC share vs value size across the HoL threshold ==\n");
  const std::vector<uint32_t> flip_bytes = {1u * kMiB, 4u * kMiB, 8u * kMiB,
                                            16u * kMiB};
  std::vector<ServingRunConfig> flip_cells;
  for (uint32_t bytes : flip_bytes) {
    flip_cells.push_back(FlipPoint(bytes, hc));
    if (!trace.empty() && bytes == 8u * kMiB) {
      flip_cells.back().trace_path = trace;  // last point with both paths in play
    }
  }
  const std::vector<ServingResult> flip = runtime::RunEach(flip_cells, jobs, RunServing);
  Table ft({"value", "issued", "soc%", "hol_gated", "draws"});
  bool flip_ok = true;
  for (size_t i = 0; i < flip_bytes.size(); ++i) {
    const ServingResult& r = flip[i];
    const bool above = flip_bytes[i] > 9 * kMiB;
    // The gate's signature: above the threshold every request is HoL-gated
    // to the host and the RNG is never consulted; below it requests stay
    // score-routed (and explorable) — hol_gated exactly zero.
    if (above ? (r.share_soc != 0.0 || r.hol_gated != r.issued || r.draws != 0)
              : (r.hol_gated != 0 || r.draws != r.issued)) {
      flip_ok = false;
    }
    ft.Row()
        .Add(FormatBytes(flip_bytes[i]))
        .Add(r.issued)
        .Add(100.0 * r.share_soc, 1)
        .Add(r.hol_gated)
        .Add(r.draws);
  }
  ft.Print(std::cout, flags.csv());
  if (!trace.empty()) {
    std::printf("trace of the 8 MiB point written to %s\n", trace.c_str());
  }
  std::printf("expected: SoC share > 0 below 9 MiB, exactly 0 (all requests "
              "HoL-gated, zero random draws) above it.\n");

  if (!check) {
    return 0;
  }

  // Determinism: the whole grid must be byte-identical at --jobs=1 and at
  // --jobs=N, fault-free and under a nonzero fault plan.
  runtime::Check c("determinism + dominance", jobs);
  c.Replay(cells, grid, RunServing, &ServingResult::ReplayDigest);
  c.FailIf(!dominated_everywhere,
           "governor fell >5%% below the best static at some point");
  c.FailIf(!strict_win_somewhere, "governor never strictly beat both statics");
  c.FailIf(!flip_ok, "HoL routing flip not clean at the 9 MiB threshold");
  return c.Finish("governor >= best static everywhere, strict win somewhere, "
                  "byte-identical across --jobs and under faults");
}

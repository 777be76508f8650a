// Multi-tenant SmartNIC-as-a-service isolation (ours): several tenants'
// offload pipelines (src/offload/tenancy.h) consolidated onto one BlueField
// SoC next to the governed KV serving plane, swept over an
// aggressor-load x isolation-arm grid.
//
// Three tenants share the server by default:
//   victim — a filter/scan tenant (host-resident records scanned on the
//            SoC, ~35% cross back) with a latency SLO;
//   agg    — a compression tenant with a high WRR weight and a swept
//            offered load, either uncapped or held to a per-tenant
//            admission cap (the isolation backstop under test);
//   kvtel  — a kv telemetry tenant whose sketch items ride the serving
//            path's real served stream, SLO-checked on request latency.
//
// Uncapped, the aggressor's high weight lets it drown the shared SoC pool:
// the victim's completions go late and its SLO-violation fraction blows
// through the budget. Capped, the aggressor's surplus is shed at *its own*
// admission gate and the victim stays inside its SLO at every offered
// load — per-tenant token buckets turn weighted sharing into isolation.
//
// --check replays every cell at --jobs=1 asserting byte-identical
// (serving + tenant) replay digests, closes every per-tenant conservation
// ledger (generated == admitted + shed, admitted == completed + failed)
// and the serving ledger, and — on fault-free runs — asserts the isolation
// contrast above. With --faults (or --tenants overriding the tenant set)
// the structural assertions still run; the isolation contrast is only
// asserted for the default fault-free grid.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/governor/serving.h"
#include "src/offload/tenant_config.h"
#include "src/runtime/check.h"

using namespace snicsim;  // NOLINT: bench brevity
using governor::PolicyKind;
using governor::RunServing;
using governor::ServingResult;
using governor::ServingRunConfig;
using offload::TenantKindName;
using offload::TenantResult;
using offload::TenantSetConfig;
using offload::TenantSpec;

namespace {

constexpr double kSloUs = 40.0;

// Serving plane below its knee: the KV side must stay healthy so the sweep
// isolates tenant-on-tenant interference, not serving overload.
ServingRunConfig Base() {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 128;
  c.fleet.seed = 42;
  c.fleet.open_loop = true;
  c.fleet.open_mops = 1.0;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.policy = PolicyKind::kGovernor;
  c.resil.deadline = FromMicros(kSloUs);
  c.warmup = FromMicros(30);
  c.window = FromMicros(200);
  return c;
}

// The default tenant set: one 2-core SoC pool shared by all three tenants.
// The aggressor's 8x WRR weight is deliberate — with equal weights the
// arbiter alone would isolate the victim and the cap would have nothing to
// prove.
TenantSetConfig Tenants(double agg_mops, bool capped) {
  TenantSetConfig t;
  t.pools = {2};
  t.host_cores = 2;
  t.seed = 7;
  t.slo_budget = 0.05;
  TenantSpec victim;
  victim.id = "victim";
  victim.kind = offload::TenantKind::kFilter;
  victim.weight = 1;
  victim.mops = 0.3;
  victim.item_bytes = 2048;
  victim.slo_us = kSloUs;
  t.tenants.push_back(victim);
  TenantSpec agg;
  agg.id = "agg";
  agg.kind = offload::TenantKind::kCompress;
  agg.weight = 8;
  agg.mops = agg_mops;
  agg.item_bytes = 4096;
  agg.cap_mops = capped ? 0.2 : 0.0;
  t.tenants.push_back(agg);
  TenantSpec kvtel;
  kvtel.id = "kvtel";
  kvtel.kind = offload::TenantKind::kKv;
  kvtel.weight = 2;
  kvtel.slo_us = kSloUs;
  t.tenants.push_back(kvtel);
  return t;
}

ServingRunConfig Cell(double agg_mops, bool capped,
                      const fault::FaultPlan& plan) {
  ServingRunConfig c = Base();
  c.tenants = Tenants(agg_mops, capped);
  if (!plan.empty()) {
    c.faults = plan;
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const fault::FaultPlan plan = fault::FaultsFlag(flags);
  const TenantSetConfig custom = offload::TenantsFlag(flags);
  const bool check = flags.GetBool(
      "check", false,
      "assert SLO isolation under caps, closed ledgers, --jobs determinism");
  const int jobs = runtime::JobsFlag(flags);
  flags.Finish();

  const std::vector<double> loads = {0.2, 0.4, 0.8};
  std::vector<ServingRunConfig> cells;
  for (double mops : loads) {
    cells.push_back(Cell(mops, /*capped=*/false, plan));
    cells.push_back(Cell(mops, /*capped=*/true, plan));
  }
  if (!custom.empty()) {
    // A user-supplied tenant set rides along as one extra cell; structural
    // checks apply, the isolation contrast does not.
    ServingRunConfig c = Base();
    c.tenants = custom;
    if (!plan.empty()) {
      c.faults = plan;
    }
    cells.push_back(c);
  }
  const std::vector<ServingResult> results = runtime::RunEach(cells, jobs, RunServing);

  const double budget = Tenants(0.0, false).slo_budget;
  std::printf("== Tenant isolation: aggressor load x {uncapped, capped} "
              "(victim SLO %.0f us, budget %.0f%%) ==\n",
              kSloUs, 100.0 * budget);
  Table t({"agg mops", "arm", "vic gen", "vic shed", "vic done", "vic vio",
           "vic vio%", "vic p99us", "agg admit", "agg shed", "kv vio%",
           "t3 KB"});
  std::vector<double> uncapped_vio(loads.size()), capped_vio(loads.size());
  for (size_t i = 0; i < loads.size(); ++i) {
    for (int arm = 0; arm < 2; ++arm) {
      const ServingResult& r = results[2 * i + static_cast<size_t>(arm)];
      const TenantResult* vic = r.tenants.Find("victim");
      const TenantResult* agg = r.tenants.Find("agg");
      const TenantResult* kvt = r.tenants.Find("kvtel");
      if (vic == nullptr || agg == nullptr || kvt == nullptr) {
        std::printf("missing tenant results\n");
        return 1;
      }
      const double vio = vic->ViolationFraction();
      (arm == 0 ? uncapped_vio : capped_vio)[i] = vio;
      uint64_t t3 = 0;
      for (const TenantResult& tr : r.tenants.tenants) {
        t3 += tr.path3_bytes;
      }
      t.Row()
          .Add(loads[i], 2)
          .Add(arm == 0 ? "uncapped" : "capped")
          .Add(vic->generated)
          .Add(vic->shed)
          .Add(vic->completed)
          .Add(vic->violations)
          .Add(100.0 * vio, 1)
          .Add(vic->p99_us, 1)
          .Add(agg->admitted)
          .Add(agg->shed)
          .Add(100.0 * kvt->ViolationFraction(), 1)
          .Add(static_cast<double>(t3) / 1024.0, 0);
    }
  }
  t.Print(std::cout, flags.csv());
  std::printf("expected: capped arms hold the victim inside its SLO budget "
              "at every aggressor load (the surplus is shed at the "
              "aggressor's own gate); the uncapped arm's high-weight "
              "aggressor drowns the shared pool at the top load and the "
              "victim's violation fraction blows through the budget.\n");

  if (!custom.empty()) {
    const ServingResult& r = results.back();
    std::printf("\n== --tenants override ==\n");
    Table ct({"tenant", "kind", "gen", "admit", "shed", "done", "failed",
              "filtered", "vio", "p99us", "grants", "busy_us"});
    for (const TenantResult& tr : r.tenants.tenants) {
      ct.Row()
          .Add(tr.id.c_str())
          .Add(TenantKindName(tr.kind))
          .Add(tr.generated)
          .Add(tr.admitted)
          .Add(tr.shed)
          .Add(tr.completed)
          .Add(tr.failed)
          .Add(tr.filtered)
          .Add(tr.violations)
          .Add(tr.p99_us, 1)
          .Add(tr.grants)
          .Add(tr.busy_us, 1);
    }
    ct.Print(std::cout, flags.csv());
  }

  if (!check) {
    return 0;
  }

  // Determinism: every cell byte-identical between --jobs=1 and --jobs=N,
  // serving and tenant digests both.
  runtime::Check c("determinism + ledgers + isolation", jobs);
  c.Replay(cells, results, RunServing, &ServingResult::ReplayDigest);

  // The serving ledger without its deadline identities, and every tenant's.
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string label = "cell " + std::to_string(i);
    c.Ledger(label, results[i].LedgerBreaks(/*deadlines=*/false));
    for (const TenantResult& tr : results[i].tenants.tenants) {
      c.FailAt(label, !tr.LedgerClosed(),
               "tenant '%s' ledger open: generated %llu admitted %llu shed %llu "
               "completed %llu failed %llu",
               tr.id.c_str(), static_cast<unsigned long long>(tr.generated),
               static_cast<unsigned long long>(tr.admitted),
               static_cast<unsigned long long>(tr.shed),
               static_cast<unsigned long long>(tr.completed),
               static_cast<unsigned long long>(tr.failed));
    }
  }

  // Isolation contrast (default fault-free grid only: a fault plan or a
  // custom tenant set changes what "isolated" means).
  if (plan.empty()) {
    for (size_t i = 0; i < loads.size(); ++i) {
      c.FailIf(capped_vio[i] > budget,
               "capped victim violation fraction %.3f > budget %.3f at %.2f Mops",
               capped_vio[i], budget, loads[i]);
    }
    c.FailIf(uncapped_vio.back() <= budget,
             "uncapped aggressor at %.2f Mops did not push the victim past the "
             "budget (%.3f <= %.3f)",
             loads.back(), uncapped_vio.back(), budget);
    const TenantResult* capped_agg =
        results[2 * loads.size() - 1].tenants.Find("agg");
    c.FailIf(capped_agg != nullptr && capped_agg->shed_bucket == 0,
             "capped aggressor shed nothing at the top load");
  }

  return c.Finish("byte-identical across --jobs, per-tenant ledgers closed, victim "
                  "inside its SLO budget under caps vs blown budget uncapped");
}

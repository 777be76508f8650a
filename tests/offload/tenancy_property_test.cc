// Property and metamorphic tests for the multi-tenant offload control plane.
//
// Properties (hold for every seed x fault-plan combination sampled here):
//   P1  Conservation: each tenant's ledger closes exactly after drain —
//       generated == admitted + shed, shed == shed_codel + shed_bucket,
//       admitted == completed + failed. Crashes move items between the
//       completed/failed columns; they never leak or mint items.
//   P2  Replay: the same (config, plan) reproduces the same TenantSetResult
//       fingerprint byte-for-byte; a different set seed does not.
// Metamorphic laws (relations between *pairs* of runs):
//   L1  Isolation monotonicity: raising a capped aggressor's *offered* load
//       never decreases a victim's in-SLO goodput — the admission cap, not
//       the offered rate, bounds what the aggressor can push at the shared
//       pool.
//   L2  Disjoint-pool composability: tenants on disjoint SoC pools with no
//       host stages and no crossings cannot observe each other; merging two
//       such solo configs into one TenantManager reproduces each tenant's
//       solo fingerprint byte-identically (TenantResult::Fingerprint()
//       deliberately omits the pool index to make this law expressible).
// Directed paths: a host-placed stage and a paused (bg=0) trace segment,
// each pinned to exact counters. The counter table: every row declared in
// tenancy.h reaches TenantResult::Fingerprint().
#include "src/offload/tenancy.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fault/injector.h"
#include "src/offload/tenant_config.h"
#include "src/topo/server.h"
#include "src/workload/trace/trace.h"

namespace snicsim {
namespace offload {
namespace {

TenantSetConfig Parse(const std::string& spec) {
  TenantSetConfig cfg;
  std::string error;
  EXPECT_TRUE(ParseTenantSet(spec, &cfg, &error)) << error;
  return cfg;
}

// One standalone experiment: a fresh testbed, one TenantManager (under
// `load_trace` when non-empty), open-loop issue until `horizon_us`, then
// drain to quiescence.
TenantSetResult RunTenants(const TenantSetConfig& cfg, const std::string& faults,
                           double horizon_us = 150.0, const std::string& load_trace = "") {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  fault::FaultPlan plan;
  if (!faults.empty()) {
    std::string error;
    EXPECT_TRUE(fault::ParseFaultPlan(faults, &plan, &error)) << error;
  }
  fault::FaultInjector injector(plan);
  if (!plan.empty()) {
    sim.set_faults(&injector);
  }
  TenantManager mgr(&sim, &server, plan.empty() ? nullptr : &injector, cfg);
  std::unique_ptr<trace::TraceDriver> driver;
  if (!load_trace.empty()) {
    trace::TracePlan tp;
    std::string error;
    EXPECT_TRUE(trace::ParseTracePlan(load_trace, &tp, &error)) << error;
    driver = std::make_unique<trace::TraceDriver>(tp);
    mgr.SetTrace(driver.get());
  }
  mgr.Start();
  sim.At(FromMicros(horizon_us), [&mgr] { mgr.StopIssuing(); });
  sim.Run();
  return mgr.Results();
}

// A three-kind mixed set exercising every mechanism: host-entry chains with
// path-3 crossings (filter, compress), an SoC-resident sketch, a token-bucket
// cap, and WRR weights 1:8:2 on a shared 2-core pool.
TenantSetConfig MixedSet(uint64_t seed) {
  TenantSetConfig cfg = Parse(
      "cores=2,host_cores=2,budget=0.05,"
      "tenant=victim:filter:1:0.3:2048:40,"
      "tenant=agg:compress:8:0.6:4096:0:0.2,"
      "tenant=tele:sketch:2:1.0:512:0");
  cfg.seed = seed;
  return cfg;
}

TEST(TenancyProperty, LedgerClosesAcrossSeedsAndFaultPlans) {
  const std::vector<std::string> plans = {
      "",                          // fault-free
      "stall=soc:50:90",           // SoC pool freezes mid-run
      "stall=host:40:70",          // host producers freeze instead
      "crash=soc:60:100:10",       // SoC dies and rewarms
      "crash=host:60:100,stall=soc:110:130",  // both sides misbehave
  };
  for (const uint64_t seed : {1ull, 7ull, 99ull}) {
    for (const std::string& plan : plans) {
      const TenantSetResult r = RunTenants(MixedSet(seed), plan);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " plan=" + plan);
      ASSERT_EQ(r.tenants.size(), 3u);
      EXPECT_TRUE(r.AllLedgersClosed()) << r.Fingerprint();
      for (const TenantResult& t : r.tenants) {
        EXPECT_GT(t.generated, 0u) << t.id;
        EXPECT_GT(t.completed, 0u) << t.id;
      }
    }
  }
}

TEST(TenancyProperty, CrashesFailItemsWithoutLeakingThem) {
  const TenantSetResult r = RunTenants(MixedSet(7), "crash=soc:60:100:10");
  uint64_t failed = 0;
  for (const TenantResult& t : r.tenants) {
    failed += t.failed;
  }
  // The 40 us SoC outage must kill in-flight work (P1 already verified no
  // item vanished: failures land in the `failed` ledger column).
  EXPECT_GT(failed, 0u);
  EXPECT_TRUE(r.AllLedgersClosed());
}

TEST(TenancyProperty, SameSeedReplaysByteIdentically) {
  for (const std::string& plan :
       {std::string(), std::string("crash=soc:60:100:10")}) {
    const TenantSetResult a = RunTenants(MixedSet(7), plan);
    const TenantSetResult b = RunTenants(MixedSet(7), plan);
    EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << "plan=" << plan;
  }
  // The set seed feeds every tenant's private per-item filter-hash stream;
  // changing it must show up in the digest (different scan pass/fail
  // decisions), or replay equality above would be vacuous.
  EXPECT_NE(RunTenants(MixedSet(7), "").Fingerprint(),
            RunTenants(MixedSet(8), "").Fingerprint());
}

// L1: sweep the capped aggressor's offered load upward and watch the
// victim's in-SLO goodput — it must be non-decreasing in offered load
// (equivalently: an aggressor's *cap*, not its arrival rate, is what the
// victim can observe).
TEST(TenancyProperty, CappedAggressorOfferedLoadCannotHurtVictimGoodput) {
  auto victim_goodput = [](double agg_mops) {
    TenantSetConfig cfg = Parse(
        "cores=2,host_cores=2,budget=0.05,"
        "tenant=victim:filter:1:0.3:2048:40,"
        "tenant=agg:compress:8:" + std::to_string(agg_mops) +
        ":4096:0:0.2");
    cfg.seed = 7;
    const TenantSetResult r = RunTenants(cfg, "", 200.0);
    EXPECT_TRUE(r.AllLedgersClosed());
    const TenantResult* v = r.Find("victim");
    EXPECT_NE(v, nullptr);
    // In-SLO completions; filtered-out items completed their scan in time
    // too, so goodput is completions minus deadline misses.
    return v->completed - v->violations;
  };
  const uint64_t at_half = victim_goodput(0.5);
  const uint64_t at_one = victim_goodput(1.0);
  const uint64_t at_two = victim_goodput(2.0);
  EXPECT_GT(at_half, 0u);
  EXPECT_GE(at_one, at_half);
  EXPECT_GE(at_two, at_one);
}

// L2: two SoC-resident sketch tenants on disjoint pools share no queue, no
// host core, and no path-3 crossing; running them merged must reproduce
// each solo digest byte-for-byte.
TEST(TenancyProperty, DisjointPoolMergeReproducesSoloFingerprints) {
  TenantSetConfig solo_a = Parse("cores=2,tenant=sa:sketch:1:0.8:1024:0");
  TenantSetConfig solo_b = Parse("cores=1,tenant=sb:sketch:3:0.5:2048:0");
  TenantSetConfig merged = Parse(
      "cores=2:1,"
      "tenant=sa:sketch:1:0.8:1024:0:0:0,"
      "tenant=sb:sketch:3:0.5:2048:0:0:1");
  solo_a.seed = solo_b.seed = merged.seed = 7;

  const TenantSetResult ra = RunTenants(solo_a, "");
  const TenantSetResult rb = RunTenants(solo_b, "");
  const TenantSetResult rm = RunTenants(merged, "");
  ASSERT_EQ(rm.tenants.size(), 2u);
  ASSERT_NE(rm.Find("sa"), nullptr);
  ASSERT_NE(rm.Find("sb"), nullptr);
  EXPECT_GT(ra.tenants[0].completed, 0u);
  EXPECT_EQ(rm.Find("sa")->Fingerprint(), ra.tenants[0].Fingerprint());
  EXPECT_EQ(rm.Find("sb")->Fingerprint(), rb.tenants[0].Fingerprint());
  // The law holds under faults too, as long as the plan hits a domain both
  // runs see identically.
  const TenantSetResult fa = RunTenants(solo_a, "stall=soc:40:60");
  const TenantSetResult fm = RunTenants(merged, "stall=soc:40:60");
  EXPECT_EQ(fm.Find("sa")->Fingerprint(), fa.tenants[0].Fingerprint());
}

// -- Directed paths ----------------------------------------------------------

// A sketch tenant whose one stage runs on the host pool: each item is born on
// the SoC, crosses path 3 to the host stage, and crosses back to finish.
TEST(TenancyPaths, HostPlacedStageCrossesBothWays) {
  TenantSetConfig cfg = Parse("cores=1,host_cores=1,tenant=hs:sketch:1:0.125:1024:0");
  cfg.tenants[0].stages = {
      TenantStage{"host_sketch", StageOp::kSketch, ServiceCurve{}, Placement::kHost}};
  const TenantSetResult r = RunTenants(cfg, "", 100.0);
  ASSERT_EQ(r.tenants.size(), 1u);
  const TenantResult& t = r.tenants[0];
  EXPECT_TRUE(t.LedgerClosed()) << t.Fingerprint();
  // One arrival every 8 us before the 100 us stop: 8, 16, ..., 96.
  EXPECT_EQ(t.generated, 12u);
  EXPECT_EQ(t.admitted, 12u);
  EXPECT_EQ(t.completed, 12u);
  EXPECT_EQ(t.failed, 0u);
  EXPECT_EQ(t.crossings, 24u);
  EXPECT_EQ(t.path3_bytes, 24u * 1024u);
  EXPECT_EQ(t.grants, 0u);  // the SoC pool never ran a stage
}

// bg=0 over [100, 200) pauses the stream: the arrival due at 104 injects
// nothing and re-arms at the 200 us boundary.
TEST(TenancyPaths, PausedTraceSegmentRearmsAtTheNextBoundary) {
  const TenantSetConfig cfg = Parse("cores=1,tenant=bg:sketch:1:0.125:512:0");
  const std::string plan = "duration=300,seg=0:1:0:0:1,seg=100:1:0:0:0,seg=200:1:0:0:1";
  auto run = [&](double stop_us) {
    const TenantSetResult r = RunTenants(cfg, "", stop_us, plan);
    EXPECT_EQ(r.tenants.size(), 1u);
    EXPECT_TRUE(r.AllLedgersClosed()) << r.Fingerprint();
    return r.tenants.at(0);
  };
  const TenantResult before = run(100.0);  // 8, 16, ..., 96
  EXPECT_EQ(before.generated, 12u);
  EXPECT_EQ(before.completed, 12u);
  // Stopping anywhere inside the paused segment adds no item.
  EXPECT_EQ(run(150.0).Fingerprint(), before.Fingerprint());
  EXPECT_EQ(run(199.0).Fingerprint(), before.Fingerprint());
  // Re-armed at 200: 200, 208, 216, 224 before a 230 us stop.
  const TenantResult after = run(230.0);
  EXPECT_EQ(after.generated, 16u);
  EXPECT_EQ(after.completed, 16u);
  EXPECT_EQ(after.crossings, 0u);
}

// -- The counter declaration (tenancy.h) reaches the fingerprint ------------

TEST(TenantCounters, EveryDeclaredCounterMovesTheFingerprint) {
  TenantResult zero;
  zero.id = "t";
  const std::string base = zero.Fingerprint();
  ForEachTenantCounter([&](const char* name, auto field) {
    TenantResult r = zero;
    r.*field += 1;
    EXPECT_NE(r.Fingerprint(), base) << name;
  });
}

}  // namespace
}  // namespace offload
}  // namespace snicsim

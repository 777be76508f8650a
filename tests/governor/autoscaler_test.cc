// Epoch autoscaler + SLO monitor tests, anchored on the trace layer's
// most important negative guarantee: attaching a *flat* trace (rate 1,
// no churn/scan, bg 1 everywhere) consumes zero extra draws and moves
// zero cores, so the run is byte-identical to the trace-free golden this
// test also pins. Positive coverage: the request and tenant ledgers stay
// closed while the autoscaler moves cores mid-run, hysteresis holds on
// constant load, and the CoDel lull-decay fix (resilience.h) makes a 10x
// step after a quiet phase converge within a bounded number of epochs.
#include "src/governor/autoscaler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/common/table.h"
#include "src/governor/serving.h"
#include "src/offload/tenant_config.h"
#include "src/resilience/resilience.h"
#include "tests/golden/golden_check.h"

namespace snicsim {
namespace governor {
namespace {

// Same miniature testbed as overload_golden_test.cc.
ServingRunConfig TinyServing() {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 128;
  c.fleet.seed = 42;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.warmup = FromMicros(20);
  c.window = FromMicros(100);
  return c;
}

// Governor-routed shedding point the golden pins (trace-free).
ServingRunConfig GoldenPoint() {
  ServingRunConfig c = TinyServing();
  c.policy = PolicyKind::kGovernor;
  c.governor.soc_inflight_cap = 1 << 20;
  c.fleet.open_loop = true;
  c.fleet.open_mops = 4.0;
  c.resil.deadline = FromMicros(40);
  c.resil.shedding = true;
  c.resil.codel_target = FromMicros(8);
  c.resil.codel_interval = FromMicros(20);
  return c;
}

trace::TracePlan Plan(const std::string& spec) {
  trace::TracePlan plan;
  std::string error;
  EXPECT_TRUE(trace::ParseTracePlan(spec, &plan, &error)) << error;
  return plan;
}

// A flat plan spanning the whole GoldenPoint run: every multiplier is the
// identity, so the attached driver must change nothing.
trace::TracePlan FlatPlan() { return Plan("duration=120,seg=0:1:0:0:1"); }

offload::TenantSetConfig SmallTenants(int pool_cores) {
  offload::TenantSetConfig t;
  t.pools = {pool_cores};
  t.host_cores = 1;
  t.seed = 9;
  offload::TenantSpec compact;
  compact.id = "compact";
  compact.kind = offload::TenantKind::kCompress;
  compact.weight = 4;
  compact.mops = 0.18;
  compact.item_bytes = 4096;
  compact.slo_us = 30.0;
  offload::TenantSpec tele;
  tele.id = "tele";
  tele.kind = offload::TenantKind::kSketch;
  tele.weight = 1;
  tele.mops = 0.2;
  tele.item_bytes = 256;
  tele.slo_us = 30.0;
  t.tenants = {compact, tele};
  return t;
}

ScaleConfig Scaled() {
  ScaleConfig s;
  s.enabled = true;
  s.slo_budget = 0.02;
  s.min_serving_cores = 1;
  s.min_pool_cores = 1;
  s.util_high = 0.85;
  s.util_low = 0.55;
  s.hold_epochs = 3;
  s.weights_scarce = {1, 1};
  s.weights_ample = {4, 1};
  return s;
}

// Pins the trace-free GoldenPoint run — the reference every no-op law in
// this file compares against — as a counter table plus the full
// fingerprint.
TEST(GoldenTrace, PreTracePoint) {
  const ServingResult r = RunServing(GoldenPoint());
  Table t({"mreqs", "generated", "issued", "completed", "shed", "good",
           "late", "trace_epochs"});
  t.Row();
  t.Add(r.mreqs, 3).Add(r.generated).Add(r.issued).Add(r.completed);
  t.Add(r.shed).Add(r.good).Add(r.late).Add(r.trace.epochs);
  std::ostringstream os;
  t.PrintCsv(os);
  os << r.Fingerprint() << "\n";
  CheckGolden("trace.golden", os.str());
  // A trace-free run must carry a zeroed trace sub-result.
  EXPECT_EQ(r.trace.epochs, 0u);
  EXPECT_TRUE(r.trace.phases.empty());
}

// The no-op law: a flat trace attaches the driver and the SLO monitor but
// consumes zero extra draws, so ServingResult::Fingerprint() — which the
// committed golden pins — is byte-identical to the trace-free run. The
// monitor itself must still have ticked.
TEST(GoldenTrace, FlatTraceIsByteIdenticalToPreTraceGolden) {
  ServingRunConfig c = GoldenPoint();
  c.trace = FlatPlan();
  const ServingResult flat = RunServing(c);
  const ServingResult bare = RunServing(GoldenPoint());
  EXPECT_EQ(flat.Fingerprint(), bare.Fingerprint());
  EXPECT_GT(flat.trace.epochs, 0u);
  // The monitor's phase ledger partitions the totals even in the no-op
  // case.
  ASSERT_EQ(flat.trace.phases.size(), 1u);
  EXPECT_EQ(flat.trace.phases[0].generated, flat.generated);
  EXPECT_EQ(flat.trace.phases[0].shed, flat.shed);
}

// Hysteresis / no-flapping: under a flat trace with balanced, modest load
// the autoscaler must take no action at all, and the run must be
// byte-identical (serving + tenant digests) to the same config with
// scaling disabled.
TEST(Autoscaler, FlatTraceConstantLoadTakesNoActions) {
  auto point = [](bool scaled) {
    ServingRunConfig c = GoldenPoint();
    c.fleet.open_mops = 1.0;
    c.trace = FlatPlan();
    c.tenants = SmallTenants(2);
    if (scaled) {
      c.scale = Scaled();
    }
    return c;
  };
  const ServingResult on = RunServing(point(true));
  const ServingResult off = RunServing(point(false));
  EXPECT_EQ(on.trace.actions_up, 0u);
  EXPECT_EQ(on.trace.actions_down, 0u);
  EXPECT_EQ(on.trace.weight_updates, 0u);
  EXPECT_EQ(on.trace.final_serving_cores, 2);
  EXPECT_EQ(on.Fingerprint(), off.Fingerprint());
  EXPECT_EQ(on.tenants.Fingerprint(), off.tenants.Fingerprint());
  EXPECT_GT(on.trace.epochs, 0u);
}

// Ledger closure under scaling: a compressed diurnal trace that forces
// cores both ways mid-run must leave every conservation identity intact —
// scaling actions move capacity, never requests.
TEST(Autoscaler, LedgersCloseUnderScalingActions) {
  ServingRunConfig c = GoldenPoint();
  c.fleet.open_mops = 4.0;
  // Night (serving 1 Mops, compaction 3x) then day (5.2 Mops serving,
  // compaction nearly idle) then night again.
  c.trace = Plan(
      "duration=600,seg=0:0.25:0:0:3,seg=100:0.25:0:0:3,"
      "seg=200:1:0:0:0.25,seg=300:1.3:0:0:0.25,seg=400:1.3:0:0:0.25,"
      "seg=500:0.25:0:0:3");
  c.warmup = FromMicros(100);
  c.window = FromMicros(500);
  c.tenants = SmallTenants(2);
  c.scale = Scaled();
  const ServingResult r = RunServing(c);

  // It actually scaled.
  EXPECT_GT(r.trace.actions_up + r.trace.actions_down, 0u);

  // Request ledger.
  EXPECT_EQ(r.generated, r.issued - r.hedges + r.shed);
  EXPECT_EQ(r.issued, r.completed + r.failed + r.cancelled);
  EXPECT_EQ(r.good + r.late, r.completed);
  EXPECT_EQ(r.shed, r.shed_codel + r.shed_bucket + r.shed_deadline);

  // Tenant ledgers survive pool grow/shrink (retire-debt, nothing killed).
  EXPECT_TRUE(r.tenants.AllLedgersClosed());

  // Phase partition of the trace ledger.
  uint64_t gen = 0, shed = 0, epochs = 0;
  double vio = 0.0;
  for (const PhaseResult& p : r.trace.phases) {
    gen += p.generated;
    shed += p.shed;
    epochs += p.epochs;
    vio += p.violation_us;
  }
  EXPECT_EQ(gen, r.generated);
  EXPECT_EQ(shed, r.shed);
  EXPECT_EQ(epochs, r.trace.epochs);
  EXPECT_DOUBLE_EQ(vio, r.trace.violation_us);
}

// CoDel lull decay, unit level: a level escalated during a burst must
// decay across fully-missed intervals instead of surviving a quiet phase
// verbatim (the epoch-boundary staleness fix in resilience.h).
TEST(CodelLull, MissedIntervalsDecayTheLevel) {
  resilience::CodelState codel;
  const SimTime target = FromMicros(8);
  const SimTime interval = FromMicros(20);
  // Burst: sustained over-target delay escalates the level.
  SimTime now = 0;
  for (int i = 0; i < 100; ++i) {
    now += FromMicros(1);
    codel.Observe(FromMicros(30), target, interval, now);
  }
  const int burst_level = codel.level;
  ASSERT_GT(burst_level, 1);
  // Lull: the next observation arrives 10 intervals later with an empty
  // queue. Pre-fix the level would still be burst_level here (one
  // de-escalation per *arrival*); post-fix the missed intervals have
  // credited one de-escalation each.
  now += 10 * interval;
  const int after = codel.Observe(0, target, interval, now);
  EXPECT_EQ(after, 0) << "stale CoDel level survived a " << 10
                      << "-interval lull";
  // Stationary runs are untouched: gaps shorter than one interval decay
  // at most one level per interval, exactly the pre-fix cadence.
  resilience::CodelState steady;
  now = 0;
  for (int i = 0; i < 100; ++i) {
    now += FromMicros(1);
    steady.Observe(FromMicros(30), target, interval, now);
  }
  const int before_steady = steady.level;
  now += FromMicros(19);  // < interval: not a missed interval
  steady.Observe(0, target, interval, now);
  EXPECT_GE(steady.level, before_steady - 1);
}

// CoDel lull decay, end to end: burst -> quiet trough -> 10x step. The
// shedder enters the step against a drained queue, so the post-step phase
// must converge within 3 governor epochs of violations; a stale level
// would shed the new phase's head and blow past that bound.
TEST(Autoscaler, TenXStepAfterLullConvergesWithinThreeEpochs) {
  ServingRunConfig c = GoldenPoint();
  c.fleet.open_mops = 4.0;
  // Burst well past the ~8 Mops knee, a trough whose arrival gaps exceed
  // the CoDel interval (0.04 Mops => ~25 us spacing vs 20 us), then a
  // 10x step back to moderate load the pools can serve.
  c.trace = Plan("duration=600,seg=0:4,seg=200:0.01,seg=400:0.75");
  c.warmup = FromMicros(100);
  c.window = FromMicros(500);
  const ServingResult r = RunServing(c);
  ASSERT_EQ(r.trace.phases.size(), 3u);
  const PhaseResult& post = r.trace.phases[2];
  EXPECT_GT(post.epochs, 10u);
  EXPECT_LE(post.violation_epochs, 3u)
      << "post-step phase stayed in violation for " << post.violation_epochs
      << " epochs — stale shedding state leaked across the lull";
  // The burst phase itself must have violated (the scenario is real).
  EXPECT_GT(r.trace.phases[0].violation_epochs, 0u);
}

// -- The counter declarations (autoscaler.h) reach the fingerprint ---------

TEST(TraceCounters, EveryDeclaredCounterMovesTheFingerprint) {
  const std::string base = TraceRunResult{}.Fingerprint();
  ForEachTraceCounter([&](const TraceCounterInfo& c, auto field) {
    TraceRunResult r;
    r.*field += 1;
    EXPECT_NE(r.Fingerprint(), base) << c.name;
  });
}

TEST(PhaseCounters, EveryDeclaredCounterMovesTheFingerprint) {
  // Two phases, bumping the second: every phase (not just the first) is
  // digested into the trace fingerprint.
  TraceRunResult zero;
  zero.phases.resize(2);
  const std::string base = zero.Fingerprint();
  ForEachPhaseCounter([&](const char* name, auto field) {
    TraceRunResult r = zero;
    r.phases[1].*field += 1;
    EXPECT_NE(r.Fingerprint(), base) << name;
  });
}

}  // namespace
}  // namespace governor
}  // namespace snicsim

// Metamorphic laws of the trace-driven non-stationary workload layer.
//
//   L1 (amplitude monotonicity): scaling every segment's rate by k scales
//      the bad-outcome ledger (shed + late + deadline-failed) monotonically
//      in k, across fleet seeds. More offered load can only hurt.
//   L2 (time-shift): rotating the segment payloads of an equal-length-
//      segment trace permutes the per-phase surfaces without changing
//      their totals. Exact at the driver level (lookups rotate) and for a
//      deterministic fixed-spacing generator (per-phase mass rotates
//      exactly); at the full-sim level — where Poisson arrivals make exact
//      per-phase permutation impossible — the per-phase request ledger
//      must still partition the run totals exactly, shifted or not.
//   L3 (replay): the same seed replays byte-identically at every --jobs
//      level — the trace layer adds no draw whose count depends on
//      scheduling.
#include "src/workload/trace/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/governor/serving.h"
#include "src/runtime/sweep_runner.h"

namespace snicsim {
namespace trace {
namespace {

using governor::PolicyKind;
using governor::RunServing;
using governor::ServingResult;
using governor::ServingRunConfig;

TracePlan Plan(const std::string& spec) {
  TracePlan plan;
  std::string error;
  EXPECT_TRUE(ParseTracePlan(spec, &plan, &error)) << error;
  return plan;
}

// Three equal 100 us segments so rotation preserves segment lengths.
const char kBasePlan[] = "duration=300,seg=0:0.6,seg=100:1,seg=200:0.8";

TracePlan Amplified(const TracePlan& base, double k) {
  TracePlan p = base;
  for (TraceSegment& seg : p.segments) {
    seg.rate *= k;
  }
  return p;
}

// Rotates the segment *payloads* by one (segment i takes segment i+1's
// rate/churn/scan/bg), keeping the start grid fixed.
TracePlan Rotated(const TracePlan& base) {
  TracePlan p = base;
  const size_t n = base.segments.size();
  for (size_t i = 0; i < n; ++i) {
    const TraceSegment& src = base.segments[(i + 1) % n];
    p.segments[i].rate = src.rate;
    p.segments[i].churn = src.churn;
    p.segments[i].scan = src.scan;
    p.segments[i].bg = src.bg;
  }
  return p;
}

// Miniature governor-routed serving run with shedding + deadlines, driven
// by `plan` at `mops` base rate (the trace multiplies it per segment).
ServingRunConfig Traced(uint64_t seed, const TracePlan& plan, double mops) {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 128;
  c.fleet.seed = seed;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.policy = PolicyKind::kGovernor;
  c.governor.soc_inflight_cap = 1 << 20;
  c.fleet.open_loop = true;
  c.fleet.open_mops = mops;
  c.resil.deadline = FromMicros(40);
  c.resil.shedding = true;
  c.resil.codel_target = FromMicros(8);
  c.resil.codel_interval = FromMicros(20);
  c.trace = plan;
  const SimTime duration = FromMicros(plan.duration_us);
  c.warmup = duration / 4;
  c.window = duration - c.warmup;
  return c;
}

uint64_t BadOutcomes(const ServingResult& r) {
  return r.shed + r.late + r.deadline_failed;
}

// L1: amplitude k scales the bad-outcome ledger monotonically, per seed.
TEST(TraceProperty, AmplitudeScalesBadOutcomesMonotonically) {
  const TracePlan base = Plan(kBasePlan);
  const std::vector<double> ks = {0.6, 1.0, 1.5};
  for (const uint64_t seed : {1u, 42u}) {
    std::vector<uint64_t> bad;
    for (const double k : ks) {
      const ServingResult r = RunServing(Traced(seed, Amplified(base, k), 8.0));
      // Sanity: the request ledger closes on every amplified run.
      EXPECT_EQ(r.generated, r.issued - r.hedges + r.shed);
      EXPECT_EQ(r.issued, r.completed + r.failed + r.cancelled);
      bad.push_back(BadOutcomes(r));
    }
    for (size_t i = 1; i < bad.size(); ++i) {
      EXPECT_LE(bad[i - 1], bad[i])
          << "seed " << seed << ": bad outcomes fell from " << bad[i - 1]
          << " to " << bad[i] << " when amplitude rose from " << ks[i - 1]
          << "x to " << ks[i] << "x";
    }
    // Non-degenerate: the top amplitude must actually hurt, else the law
    // is vacuously true at zero.
    EXPECT_GT(bad.back(), bad.front()) << "seed " << seed;
  }
}

// L2, driver level: rotated payloads rotate every lookup exactly.
TEST(TraceProperty, RotationPermutesDriverLookups) {
  const TracePlan base =
      Plan("duration=300,seg=0:0.6:0:0:3,seg=100:1:64:0.5:1,seg=200:0.8");
  const TracePlan rot = Rotated(base);
  const TraceDriver d0(base);
  const TraceDriver d1(rot);
  const size_t n = base.segments.size();
  for (size_t i = 0; i < n; ++i) {
    // Sample inside segment i: the rotated driver must report segment
    // (i+1)%n's payload there.
    const SimTime t = FromMicros(100.0 * static_cast<double>(i) + 50.0);
    const TraceSegment& want = base.segments[(i + 1) % n];
    EXPECT_EQ(d1.SegmentAt(t), static_cast<int>(i));
    EXPECT_DOUBLE_EQ(d1.RateAt(t), want.rate);
    EXPECT_EQ(d1.ChurnAt(t), want.churn);
    EXPECT_DOUBLE_EQ(d1.ScanAt(t), want.scan);
    EXPECT_DOUBLE_EQ(d1.BgAt(t), want.bg);
    // Segment boundaries are unchanged by rotation.
    EXPECT_EQ(d0.NextChangeAt(t), d1.NextChangeAt(t));
  }
  EXPECT_DOUBLE_EQ(d0.peak_rate(), d1.peak_rate());
}

// L2, deterministic generator: a fixed-spacing sampler's per-phase mass
// rotates exactly with the payloads, and its total is invariant.
TEST(TraceProperty, RotationPermutesFixedSpacingPhaseMass) {
  const TracePlan base = Plan(kBasePlan);
  const TracePlan rot = Rotated(base);
  const size_t n = base.segments.size();
  auto mass = [n](const TraceDriver& d) {
    std::vector<double> m(n, 0.0);
    for (SimTime t = 0; t < d.duration(); t += FromMicros(1)) {
      m[static_cast<size_t>(d.SegmentAt(t))] += d.RateAt(t);
    }
    return m;
  };
  const std::vector<double> m0 = mass(TraceDriver(base));
  const std::vector<double> m1 = mass(TraceDriver(rot));
  double total0 = 0.0, total1 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(m1[i], m0[(i + 1) % n]) << "phase " << i;
    total0 += m0[i];
    total1 += m1[i];
  }
  EXPECT_DOUBLE_EQ(total0, total1);
}

// L2, full sim: shifted or not, the per-phase request ledger partitions
// the run totals exactly — nothing generated or shed escapes attribution.
TEST(TraceProperty, PhaseLedgerPartitionsTotalsUnderTimeShift) {
  const TracePlan base = Plan(kBasePlan);
  for (const TracePlan& plan : {base, Rotated(base)}) {
    const ServingResult r = RunServing(Traced(42, plan, 8.0));
    ASSERT_EQ(r.trace.phases.size(), plan.segments.size());
    uint64_t gen = 0, shed = 0, epochs = 0;
    for (const governor::PhaseResult& p : r.trace.phases) {
      gen += p.generated;
      shed += p.shed;
      epochs += p.epochs;
    }
    EXPECT_EQ(gen, r.generated);
    EXPECT_EQ(shed, r.shed);
    EXPECT_EQ(epochs, r.trace.epochs);
    EXPECT_GT(r.trace.epochs, 0u);
    // Every phase saw load (the trace has no zero-rate segment).
    for (size_t i = 0; i < r.trace.phases.size(); ++i) {
      EXPECT_GT(r.trace.phases[i].generated, 0u) << "phase " << i;
    }
  }
}

// L3: byte-identical replay at every --jobs level.
TEST(TraceProperty, ReplayByteIdenticalAcrossJobs) {
  const TracePlan base = Plan(kBasePlan);
  std::string reference;
  for (const int jobs : {1, 2, 4}) {
    runtime::SweepQueue<ServingResult> sweep(jobs);
    for (const uint64_t seed : {1u, 42u}) {
      const ServingRunConfig c = Traced(seed, base, 8.0);
      sweep.Add([c] { return RunServing(c); });
    }
    std::string digest;
    for (const ServingResult& r : sweep.Run()) {
      digest += r.ReplayDigest() + "\n";
    }
    if (reference.empty()) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace trace
}  // namespace snicsim

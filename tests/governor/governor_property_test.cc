// The governor layer's core properties, mirroring the fault layer's
// conservation suite (tests/fault/conservation_under_faults_test.cc):
//
//  - conservation: every request the fleet routes terminates exactly once,
//    on exactly the path it was routed to, even under drop faults;
//  - determinism: a ServingRunConfig fully determines the run — same seed
//    replays byte-for-byte (Fingerprint equality), regardless of what other
//    runs happen before or between (the --jobs invariance property);
//  - monotonicity: stalling the SoC's compute domain harder never *raises*
//    the share of traffic the governor sends to the SoC;
//  - the advice gates: HoL-scale payloads are pinned to the host without
//    consuming exploration draws, and the SoC in-flight cap spills to the
//    host instead of building ARM queues;
//  - the fault signal: a bound per-path error rate steers score-chosen
//    traffic off the erroring path;
//  - the counter table: every row declared in serving.h reaches
//    Fingerprint(), and LedgerBreaks names each broken identity alone.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/governor/serving.h"

namespace snicsim {
namespace governor {
namespace {

ServingRunConfig SmallConfig() {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 64;
  c.fleet.window = 1;
  c.fleet.seed = 42;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 4096};
  c.mix.weights = {0.7, 0.3};
  c.warmup = FromMicros(20);
  c.window = FromMicros(100);
  c.policy = PolicyKind::kGovernor;
  return c;
}

void CheckConserved(const ServingResult& r) {
  EXPECT_GT(r.issued, 0u);
  // Every routed request terminated exactly once...
  EXPECT_EQ(r.issued, r.completed + r.failed);
  // ...on exactly the path it was routed to.
  ASSERT_EQ(r.path_issued.size(), static_cast<size_t>(kPathCount));
  uint64_t issued = 0, completed = 0, failed = 0;
  for (int p = 0; p < kPathCount; ++p) {
    const auto i = static_cast<size_t>(p);
    EXPECT_EQ(r.path_issued[i], r.path_completed[i] + r.path_failed[i])
        << "path " << p;
    issued += r.path_issued[i];
    completed += r.path_completed[i];
    failed += r.path_failed[i];
  }
  EXPECT_EQ(issued, r.issued);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(failed, r.failed);
}

TEST(GovernorConservation, EveryPolicyConservesFaultFree) {
  for (const PolicyKind kind : {PolicyKind::kStaticHost, PolicyKind::kStaticSoc,
                                PolicyKind::kOracle, PolicyKind::kGovernor}) {
    ServingRunConfig c = SmallConfig();
    c.policy = kind;
    const ServingResult r = RunServing(c);
    SCOPED_TRACE(PolicyKindName(kind));
    CheckConserved(r);
    EXPECT_EQ(r.failed, 0u);  // nothing can fail without faults
    EXPECT_GT(r.ops, 0u);
  }
}

TEST(GovernorConservation, ConservesUnderDropFaults) {
  ServingRunConfig c = SmallConfig();
  c.client.transport_timeout = FromMicros(20);
  c.faults.drop_rate = 0.02;
  c.faults.seed = 7;
  const ServingResult r = RunServing(c);
  CheckConserved(r);
  EXPECT_GT(r.retransmits, 0u);  // the plan actually bit
}

TEST(GovernorDeterminism, SameSeedReplaysByteForByte) {
  const ServingRunConfig c = SmallConfig();
  const ServingResult a = RunServing(c);
  const ServingResult b = RunServing(c);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  ServingRunConfig d = SmallConfig();
  d.fleet.seed = 43;  // the seed is load-bearing, not decorative
  EXPECT_NE(a.Fingerprint(), RunServing(d).Fingerprint());
}

TEST(GovernorDeterminism, ReplayHoldsUnderFaults) {
  ServingRunConfig c = SmallConfig();
  c.client.transport_timeout = FromMicros(20);
  c.faults.drop_rate = 0.02;
  c.faults.seed = 7;
  const ServingResult a = RunServing(c);
  const ServingResult b = RunServing(c);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

// The in-process analogue of sweep --jobs byte-invariance: a run's result
// cannot depend on which runs happened before it in the same process.
TEST(GovernorDeterminism, RunOrderDoesNotLeakBetweenRuns) {
  const ServingRunConfig c = SmallConfig();
  ServingRunConfig other = SmallConfig();
  other.fleet.seed = 99;
  other.policy = PolicyKind::kStaticSoc;
  const ServingResult first = RunServing(c);
  (void)RunServing(other);  // interleaved unrelated work
  const ServingResult again = RunServing(c);
  EXPECT_EQ(first.Fingerprint(), again.Fingerprint());
}

// Raising the SoC compute stall never increases the governor's path-②
// share: the latency EWMAs and in-flight penalties must push traffic off a
// stalled SoC, with at most the ε-exploration floor still sampling it.
TEST(GovernorMonotonicity, SocStallNeverIncreasesSocShare) {
  std::vector<double> shares;
  for (const double frac : {0.0, 0.3, 0.6, 0.9}) {
    ServingRunConfig c = SmallConfig();
    c.host_cores = 2;  // pressure the host pool so the SoC carries real load
    c.client.transport_timeout = 0;  // unreliable posts: stalls are not drops
    if (frac > 0.0) {
      c.faults.stalls.push_back(
          {"soc", c.warmup, c.warmup + FromMicros(static_cast<int64_t>(100 * frac))});
    }
    const ServingResult r = RunServing(c);
    CheckConserved(r);
    shares.push_back(r.share_soc);
  }
  for (size_t i = 1; i < shares.size(); ++i) {
    // Tiny slack for the ε floor; the ordering itself must hold.
    EXPECT_LE(shares[i], shares[i - 1] + 0.01)
        << "stall rung " << i << " raised the SoC share";
  }
  EXPECT_LT(shares.back(), shares.front());  // the ladder actually moved it
}

// Advice #2 as an absolute gate: with only HoL-scale values in the mixture
// the governor must collapse to static-host — same routing, same measured
// figures, and zero random draws (gated requests are never explored).
TEST(GovernorGates, HolScalePayloadsTieStaticHostExactly) {
  ServingRunConfig c = SmallConfig();
  c.fleet.logical_clients = 8;
  c.fleet.machines = 1;
  c.layout.class_bytes = {16 * kMiB};  // above the 9 MiB HoL threshold
  c.mix = SizeMixture::Single();
  c.window = FromMicros(200);

  const ServingResult gov = RunServing(c);
  ServingRunConfig s = c;
  s.policy = PolicyKind::kStaticHost;
  const ServingResult host = RunServing(s);

  CheckConserved(gov);
  EXPECT_EQ(gov.hol_gated, gov.issued);
  EXPECT_EQ(gov.draws, 0u);
  EXPECT_EQ(gov.path_issued[static_cast<size_t>(kPathSoc)], 0u);
  EXPECT_EQ(gov.issued, host.issued);
  EXPECT_EQ(gov.ops, host.ops);
  EXPECT_DOUBLE_EQ(gov.mreqs, host.mreqs);
  EXPECT_DOUBLE_EQ(gov.p99_us, host.p99_us);
}

// SoC-core budget: with a tiny in-flight cap and a pressured host pool (so
// the SoC is the attractive path), overflow spills to the host instead of
// queueing behind the cap — and conservation still holds.
TEST(GovernorGates, SocInflightCapSpillsToHost) {
  ServingRunConfig c = SmallConfig();
  c.host_cores = 2;
  c.governor.soc_inflight_cap = 1;
  const ServingResult r = RunServing(c);
  CheckConserved(r);
  EXPECT_GT(r.budget_spills, 0u);
  EXPECT_GT(r.path_issued[static_cast<size_t>(kPathHost)], 0u);
  EXPECT_GT(r.path_issued[static_cast<size_t>(kPathSoc)], 0u);
}

TEST(GovernorExploration, DrawsAreCountedAndBounded) {
  const ServingResult r = RunServing(SmallConfig());
  EXPECT_GT(r.draws, 0u);
  EXPECT_GT(r.explored, 0u);       // 2% of thousands of draws
  EXPECT_LE(r.explored, r.draws);  // every exploration consumed a draw
  EXPECT_EQ(r.hol_gated, 0u);      // nothing in this mixture is HoL-scale
}

// After one sampling epoch, a path whose bound error rate is high loses the
// score comparison, so a small resident request that would otherwise go to
// the faster host pool is steered to the SoC.
TEST(GovernorFaultSignal, ErrorRateSteersOffErroringPath) {
  const TestbedParams tp = TestbedParams::Default();
  kv::ServingLayout layout;
  const kv::ServingConfig serving = kv::ServingConfig::FromTestbed(tp, layout);
  GovernorConfig cfg;
  cfg.explore_eps = 0.0;  // pure score comparison

  KvRequest req;
  req.rank = 5;  // SoC-resident
  req.size_class = 0;
  req.bytes = layout.class_bytes[0];
  ASSERT_EQ(req.bytes, 64u);

  const auto route_with_host_rate = [&](double host_rate) {
    Simulator sim;
    AdaptiveGovernor gov(&sim, cfg, &layout, serving, tp, ClientParams(),
                         layout.class_bytes);
    gov.BindErrorRate(kPathHost, [host_rate] { return host_rate; });
    gov.BindErrorRate(kPathSoc, [] { return 0.0; });
    sim.RunFor(cfg.epoch * 2 + FromNanos(1));
    gov.StopTicking();
    sim.Run();
    return gov.Route(req);
  };
  EXPECT_EQ(route_with_host_rate(0.0), kPathHost);  // both healthy: host wins at 64 B
  EXPECT_EQ(route_with_host_rate(0.9), kPathSoc);
}

// -- The counter declaration (serving.h) reaches the fingerprint ------------

TEST(ServingCounters, EveryDeclaredCounterMovesTheFingerprint) {
  // Vector rows start with two elements, so a bump checks that every
  // element (not just the length) is digested.
  ServingResult zero;
  ForEachServingCounter([&](const char*, auto field) {
    if constexpr (!std::is_arithmetic_v<std::decay_t<decltype(zero.*field)>>) {
      (zero.*field).assign(2, 0);
    }
  });
  const std::string base = zero.Fingerprint();
  ForEachServingCounter([&](const char* name, auto field) {
    ServingResult r = zero;
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(r.*field)>>) {
      r.*field += 1;
    } else {
      (r.*field)[1] += 1;
    }
    EXPECT_NE(r.Fingerprint(), base) << name;
  });
}

// Each of the four identities, broken alone on a closed ledger, yields
// exactly one break, and that break names the identity.
TEST(ServingCounters, LedgerBreaksNameEachIdentityAlone) {
  ServingResult closed;
  closed.generated = 12;
  closed.issued = 11;
  closed.hedges = 2;
  closed.shed = 3;
  closed.completed = 7;
  closed.failed = 2;
  closed.cancelled = 2;
  closed.good = 5;
  closed.late = 2;
  closed.shed_codel = 1;
  closed.shed_bucket = 1;
  closed.shed_deadline = 1;
  ASSERT_TRUE(closed.LedgerBreaks(/*deadlines=*/true).empty());
  const std::vector<std::pair<uint64_t ServingResult::*, std::string>> breaks = {
      {&ServingResult::generated, "generated 13 != issued 11 - hedges 2 + shed 3"},
      {&ServingResult::cancelled, "issued 11 != completed 7 + failed 2 + cancelled 3"},
      {&ServingResult::good, "good 6 + late 2 != completed 7"},
      {&ServingResult::shed_codel, "shed 3 != codel 2 + bucket 1 + deadline 1"},
  };
  for (size_t i = 0; i < breaks.size(); ++i) {
    const auto& [field, expect] = breaks[i];
    ServingResult r = closed;
    ++(r.*field);
    const std::vector<std::string> got = r.LedgerBreaks(/*deadlines=*/true);
    ASSERT_EQ(got.size(), 1u) << expect;
    EXPECT_EQ(got[0], expect);
    // The last two identities hold only when deadlines are on.
    EXPECT_EQ(r.LedgerBreaks(/*deadlines=*/false).size(), i < 2 ? 1u : 0u) << expect;
  }
}

}  // namespace
}  // namespace governor
}  // namespace snicsim

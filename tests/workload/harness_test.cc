#include "src/workload/harness.h"

#include <gtest/gtest.h>

namespace snicsim {
namespace {

HarnessConfig Quick() {
  HarnessConfig c;
  c.client_machines = 3;
  c.warmup = FromMicros(30);
  c.window = FromMicros(80);
  return c;
}

TEST(Harness, ReturnsPositiveMetrics) {
  const Measurement m = MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kRead, 64,
                                           Quick());
  EXPECT_GT(m.mreqs, 0.0);
  EXPECT_GT(m.gbps, 0.0);
  EXPECT_GT(m.p50_us, 0.0);
  EXPECT_GE(m.p99_us, m.p50_us);
  EXPECT_GT(m.ops, 0u);
}

TEST(Harness, GbpsConsistentWithMreqs) {
  const uint32_t payload = 512;
  const Measurement m =
      MeasureInboundPath(ServerKind::kRnicHost, Verb::kWrite, payload, Quick());
  EXPECT_NEAR(m.gbps, m.mreqs * 1e6 * payload * 8 / 1e9, m.gbps * 0.01);
}

TEST(Harness, DeterministicAcrossCalls) {
  const Measurement a =
      MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, 64, Quick());
  const Measurement b =
      MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, 64, Quick());
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_DOUBLE_EQ(a.gbps, b.gbps);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
}

TEST(Harness, LatencyConfigHasOneOutstanding) {
  const HarnessConfig lat = HarnessConfig::Latency();
  EXPECT_EQ(lat.client_machines, 1);
  EXPECT_EQ(lat.client.threads, 1);
  EXPECT_EQ(lat.client.window, 1);
}

TEST(Harness, RnicHasNoSmartnicCounters) {
  const Measurement m = MeasureInboundPath(ServerKind::kRnicHost, Verb::kRead, 64, Quick());
  EXPECT_EQ(m.pcie1_mpps, 0.0);
  EXPECT_EQ(m.pcie_total_mpps, 0.0);
}

TEST(Harness, Snic2NeverTouchesPcie0) {
  const Measurement m =
      MeasureInboundPath(ServerKind::kBluefieldSoc, Verb::kWrite, 64, Quick());
  EXPECT_EQ(m.pcie0_mpps, 0.0);
  EXPECT_GT(m.pcie1_mpps, 0.0);
}

TEST(Harness, ConcurrentInboundUsesBothLinks) {
  const Measurement m = MeasureConcurrentInbound(Verb::kRead, 64, Quick());
  EXPECT_GT(m.pcie0_mpps, 0.0);
  EXPECT_GT(m.pcie1_mpps, 0.0);
  EXPECT_DOUBLE_EQ(m.pcie_total_mpps, m.pcie0_mpps + m.pcie1_mpps);
}

TEST(Harness, LocalPathCountsBothCrossings) {
  // Path ③ puts more TLPs on PCIe1 than on PCIe0 (Table 3).
  const Measurement m = MeasureLocalPath(false, Verb::kWrite, 4096,
                                         LocalRequesterParams::Host(), Quick());
  EXPECT_GT(m.pcie1_mpps, m.pcie0_mpps);
}

TEST(Harness, InterferenceBaselineMatchesInbound) {
  const double plain = MeasureInterference(Verb::kRead, 64, false, Quick()).mreqs;
  const double direct =
      MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, 64, Quick()).mreqs;
  EXPECT_NEAR(plain, direct, direct * 0.05);
}

TEST(Harness, FlowCombinationAddsBothDirections) {
  HarnessConfig cfg = Quick();
  cfg.client_machines = 6;
  const double same = MeasureFlowCombination(ServerKind::kBluefieldHost, Verb::kRead,
                                             Verb::kRead, 4096, cfg);
  const double mixed = MeasureFlowCombination(ServerKind::kBluefieldHost, Verb::kRead,
                                              Verb::kWrite, 4096, cfg);
  EXPECT_GT(mixed, 1.5 * same);
}

TEST(Harness, LargePayloadAutoScalingKeepsRatesSane) {
  // 256 KB READs must converge to the network bound, not a ramp artifact.
  const Measurement m = MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead,
                                           256 * 1024, HarnessConfig());
  EXPECT_GT(m.gbps, 150.0);
  EXPECT_LT(m.gbps, 200.0);
}

TEST(Harness, ServerKindNames) {
  EXPECT_STREQ(ServerKindName(ServerKind::kRnicHost), "RNIC(1)");
  EXPECT_STREQ(ServerKindName(ServerKind::kBluefieldHost), "SNIC(1)");
  EXPECT_STREQ(ServerKindName(ServerKind::kBluefieldSoc), "SNIC(2)");
}

}  // namespace
}  // namespace snicsim

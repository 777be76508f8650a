#include "src/pcie/link.h"

#include <gtest/gtest.h>

namespace snicsim {
namespace {

constexpr SimTime kProp = FromNanos(100);

PcieLink MakeLink(Simulator* sim) {
  // 1 GB/s = 1 byte per ns makes serialization arithmetic easy to verify.
  return PcieLink(sim, "l", Bandwidth::GBps(1), kProp);
}

TEST(PcieLink, SingleTransferTiming) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  // 512 B at 512 B MTU: wire = 512 + 26 = 538 B -> 538 ns + 100 ns prop.
  const SimTime done = l.Transfer(LinkDir::kDown, 512, 512);
  EXPECT_EQ(done, FromNanos(538 + 100));
}

TEST(PcieLink, BackToBackTransfersQueue) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  l.Transfer(LinkDir::kDown, 512, 512);
  const SimTime done = l.Transfer(LinkDir::kDown, 512, 512);
  EXPECT_EQ(done, FromNanos(2 * 538 + 100));
}

TEST(PcieLink, DirectionsAreIndependent) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  l.Transfer(LinkDir::kDown, 100000, 512);
  // Opposite direction is idle: same latency as a fresh link.
  const SimTime done = l.Transfer(LinkDir::kUp, 512, 512);
  EXPECT_EQ(done, FromNanos(538 + 100));
}

TEST(PcieLink, CountersPerDirection) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  l.Transfer(LinkDir::kDown, 1024, 512);
  l.Transfer(LinkDir::kUp, 128, 128);
  EXPECT_EQ(l.counters(LinkDir::kDown).tlps, 2u);
  EXPECT_EQ(l.counters(LinkDir::kDown).payload_bytes, 1024u);
  EXPECT_EQ(l.counters(LinkDir::kDown).wire_bytes, 1024u + 2 * kTlpOverheadBytes);
  EXPECT_EQ(l.counters(LinkDir::kUp).tlps, 1u);
  EXPECT_EQ(l.TotalCounters().tlps, 3u);
}

TEST(PcieLink, SmallerMtuMeansMoreTlpsAndTime) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  const SimTime t512 = l.Transfer(LinkDir::kDown, 4096, 512);
  Simulator sim2;
  PcieLink l2 = MakeLink(&sim2);
  const SimTime t128 = l2.Transfer(LinkDir::kDown, 4096, 128);
  EXPECT_GT(t128, t512);
  EXPECT_EQ(l2.counters(LinkDir::kDown).tlps, 32u);
}

TEST(PcieLink, ControlTlp) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  const SimTime done = l.TransferControl(LinkDir::kDown);
  EXPECT_EQ(done, FromNanos(static_cast<double>(ControlWireBytes())) + kProp);
  EXPECT_EQ(l.counters(LinkDir::kDown).tlps, 1u);
  EXPECT_EQ(l.counters(LinkDir::kDown).payload_bytes, 0u);
}

TEST(PcieLink, CallbackAtDelivery) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  SimTime fired = -1;
  const SimTime expected = l.Transfer(LinkDir::kDown, 512, 512, [&] { fired = sim.now(); });
  sim.Run();
  EXPECT_EQ(fired, expected);
}

TEST(PcieLink, ReadyTimeRespected) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  const SimTime done = l.TransferAt(FromNanos(1000), LinkDir::kDown, 512, 512);
  EXPECT_EQ(done, FromNanos(1000 + 538 + 100));
}

TEST(PcieLink, CounterDiffSnapshot) {
  Simulator sim;
  PcieLink l = MakeLink(&sim);
  l.Transfer(LinkDir::kDown, 512, 512);
  const LinkCounters before = l.counters(LinkDir::kDown);
  l.Transfer(LinkDir::kDown, 1024, 512);
  const LinkCounters diff = l.counters(LinkDir::kDown) - before;
  EXPECT_EQ(diff.tlps, 2u);
  EXPECT_EQ(diff.payload_bytes, 1024u);
}

TEST(PcieLink, OppositeDirHelper) {
  EXPECT_EQ(Opposite(LinkDir::kDown), LinkDir::kUp);
  EXPECT_EQ(Opposite(LinkDir::kUp), LinkDir::kDown);
}

// The service-time memos return exactly what ServiceTime computes, across
// size changes that invalidate them.
TEST(PcieLink, ServiceMemosMatchServiceTime) {
  Simulator sim;
  PcieLink l(&sim, "l", Bandwidth::Gbps(256), kProp);
  for (const uint64_t wire : {154ULL, 154ULL, 538ULL, 154ULL, 38ULL, 4928ULL, 4928ULL, 1ULL}) {
    EXPECT_EQ(l.HeadTlpServiceTime(wire, 0), l.ServiceTime(wire, 0)) << wire;
    EXPECT_EQ(l.BurstServiceTime(wire, 0), l.ServiceTime(wire, 0)) << wire;
  }
}

}  // namespace
}  // namespace snicsim

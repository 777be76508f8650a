#include "src/topo/fabric.h"

#include <gtest/gtest.h>

namespace snicsim {
namespace {

TEST(Fabric, RouteGoesUpThenDown) {
  Simulator sim;
  Fabric fabric(&sim, FromNanos(150), FromNanos(150));
  PcieLink* a = fabric.AddPort("a", Bandwidth::Gbps(100));
  PcieLink* b = fabric.AddPort("b", Bandwidth::Gbps(200));
  const PciePath p = fabric.Route(a, b);
  ASSERT_EQ(p.hops().size(), 2u);
  EXPECT_EQ(p.hops()[0].link, a);
  EXPECT_EQ(p.hops()[0].dir, LinkDir::kUp);
  EXPECT_EQ(p.hops()[0].via, nullptr);
  EXPECT_EQ(p.hops()[1].link, b);
  EXPECT_EQ(p.hops()[1].dir, LinkDir::kDown);
  EXPECT_EQ(p.hops()[1].via, &fabric.ib_switch());
}

TEST(Fabric, BaseLatencyIsTwoLinksPlusSwitch) {
  Simulator sim;
  Fabric fabric(&sim, FromNanos(150), FromNanos(170));
  PcieLink* a = fabric.AddPort("a", Bandwidth::Gbps(100));
  PcieLink* b = fabric.AddPort("b", Bandwidth::Gbps(100));
  EXPECT_EQ(fabric.Route(a, b).BaseLatency(), FromNanos(150 + 170 + 150));
}

TEST(Fabric, ManyPortsShareOneSwitch) {
  Simulator sim;
  Fabric fabric(&sim);
  std::vector<PcieLink*> ports;
  for (int i = 0; i < 23; ++i) {  // the paper's rack: 3 SRV + 20 CLI
    const std::string name = std::string("p").append(std::to_string(i));
    ports.push_back(fabric.AddPort(name, Bandwidth::Gbps(100)));
  }
  const uint64_t before = fabric.ib_switch().forwards();
  fabric.Route(ports[0], ports[22]).TransferControlAt(&sim, 0);
  fabric.Route(ports[5], ports[7]).TransferControlAt(&sim, 0);
  sim.Run();
  EXPECT_EQ(fabric.ib_switch().forwards() - before, 2u);
}

TEST(Fabric, SlowPortLimitsDelivery) {
  Simulator sim;
  Fabric fabric(&sim, FromNanos(150), FromNanos(150));
  PcieLink* fast = fabric.AddPort("fast", Bandwidth::Gbps(200));
  PcieLink* slow = fabric.AddPort("slow", Bandwidth::Gbps(100));
  // A 64 KB burst from fast to slow takes at least the slow link's
  // serialization time.
  const SimTime done = fabric.Route(fast, slow).TransferAt(&sim, 0, 64 * 1024, 1024);
  EXPECT_GE(done, Bandwidth::Gbps(100).TransferTime(64 * 1024));
}

TEST(Fabric, DistinctPortPairsDoNotContend) {
  Simulator sim;
  Fabric fabric(&sim);
  PcieLink* a = fabric.AddPort("a", Bandwidth::Gbps(100));
  PcieLink* b = fabric.AddPort("b", Bandwidth::Gbps(100));
  PcieLink* c = fabric.AddPort("c", Bandwidth::Gbps(100));
  PcieLink* d = fabric.AddPort("d", Bandwidth::Gbps(100));
  const SimTime t1 = fabric.Route(a, b).TransferAt(&sim, 0, 64 * 1024, 1024);
  const SimTime t2 = fabric.Route(c, d).TransferAt(&sim, 0, 64 * 1024, 1024);
  EXPECT_EQ(t1, t2);  // parallel pairs, identical timing
}

}  // namespace
}  // namespace snicsim

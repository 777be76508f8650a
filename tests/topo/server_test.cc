#include "src/topo/server.h"

#include <gtest/gtest.h>

namespace snicsim {
namespace {

TEST(RnicServer, ConstructsWithHostEndpoint) {
  Simulator sim;
  Fabric fabric(&sim);
  RnicServer srv(&sim, &fabric, TestbedParams::Default());
  EXPECT_NE(srv.host_ep(), nullptr);
  EXPECT_NE(srv.port(), nullptr);
  EXPECT_EQ(srv.host_ep()->params().pcie_mtu, kHostPcieMtu);
}

TEST(BluefieldServer, ConstructsBothEndpoints) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer srv(&sim, &fabric, TestbedParams::Default());
  EXPECT_NE(srv.host_ep(), nullptr);
  EXPECT_NE(srv.soc_ep(), nullptr);
  EXPECT_EQ(srv.host_ep()->params().pcie_mtu, kHostPcieMtu);
  EXPECT_EQ(srv.soc_ep()->params().pcie_mtu, kSocPcieMtu);
}

TEST(BluefieldServer, HostPathLongerThanSocPath) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer srv(&sim, &fabric, TestbedParams::Default());
  EXPECT_GT(srv.host_ep()->to_mem().BaseLatency(), srv.soc_ep()->to_mem().BaseLatency());
}

TEST(BluefieldServer, BothEndpointsShareCommonPcie1) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer srv(&sim, &fabric, TestbedParams::Default());
  EXPECT_EQ(srv.host_ep()->to_mem().hops()[0].link, &srv.pcie1());
  EXPECT_EQ(srv.soc_ep()->to_mem().hops()[0].link, &srv.pcie1());
}

TEST(BluefieldServer, RnicHostPathShorterThanBluefieldHostPath) {
  Simulator sim;
  Fabric fabric(&sim);
  const TestbedParams tp = TestbedParams::Default();
  RnicServer rnic(&sim, &fabric, tp, "r");
  BluefieldServer bf(&sim, &fabric, tp, "b");
  // The SmartNIC "performance tax": extra switch + PCIe1 on the host path.
  EXPECT_GT(bf.host_ep()->to_mem().BaseLatency(), rnic.host_ep()->to_mem().BaseLatency());
  const SimTime delta =
      bf.host_ep()->to_mem().BaseLatency() - rnic.host_ep()->to_mem().BaseLatency();
  // Paper: switch + PCIe1 adds 150-200+ ns one way.
  EXPECT_GE(delta, FromNanos(150));
  EXPECT_LE(delta, FromNanos(400));
}

TEST(BluefieldServer, DmaReadThroughComposition) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer srv(&sim, &fabric, TestbedParams::Default());
  SimTime host_t = -1;
  SimTime soc_t = -1;
  srv.host_ep()->DmaRead(0, 64, [&](SimTime t) { host_t = t; });
  sim.Run();
  srv.soc_ep()->DmaRead(0, 64, [&](SimTime t) { soc_t = t - host_t; });
  sim.Run();
  EXPECT_GT(host_t, 0);
  EXPECT_GT(soc_t, 0);
  EXPECT_LT(soc_t, host_t);  // SoC memory is closer to the NIC cores
}

// Stands in for the NIC engine on the receiving end of a handler's replies.
struct ReplyProbe : ReplyCallback::Sink {
  SimTime last_at = -1;
  uint32_t last_len = 0;
  void Reply(void* /*req*/, SimTime ready, uint32_t reply_len) override {
    last_at = std::max(last_at, ready);
    last_len = reply_len;
  }
  void DropReply(void* /*req*/) override {}
};

TEST(EchoCpu, ServesAndReplies) {
  Simulator sim;
  EchoCpu cpu(&sim, "cpu", "srv.host", 2, FromNanos(300));
  SendHandler h = cpu.Handler();
  ReplyProbe probe;
  h(/*hdr=*/0, 128, ReplyCallback(&probe, nullptr));
  sim.Run();
  EXPECT_EQ(probe.last_at, FromNanos(300));
  EXPECT_EQ(probe.last_len, 128u);
}

TEST(EchoCpu, CoresBoundThroughput) {
  Simulator sim;
  EchoCpu cpu(&sim, "cpu", "srv.host", 2, FromNanos(100));
  SendHandler h = cpu.Handler();
  ReplyProbe probe;
  for (int i = 0; i < 10; ++i) {
    h(/*hdr=*/0, 64, ReplyCallback(&probe, nullptr));
  }
  sim.Run();
  // 10 messages on 2 cores at 100 ns each = 500 ns to drain.
  EXPECT_EQ(probe.last_at, FromNanos(500));
}

}  // namespace
}  // namespace snicsim

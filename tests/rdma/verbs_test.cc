#include "src/rdma/verbs.h"

#include <gtest/gtest.h>

#include "src/topo/server.h"

namespace snicsim {
namespace rdma {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest()
      : fabric_(&sim_),
        server_(&sim_, &fabric_, TestbedParams::Default()),
        client_(&sim_, &fabric_, ClientParams{}, "cli") {}

  RemoteMemoryRegion HostMr(uint64_t len = 1ull * kGiB) {
    RemoteMemoryRegion mr;
    mr.engine = &server_.nic();
    mr.endpoint = server_.host_ep();
    mr.server_port = server_.port();
    mr.addr = 0x1000;
    mr.length = len;
    return mr;
  }

  Simulator sim_;
  Fabric fabric_;
  BluefieldServer server_;
  ClientMachine client_;
};

TEST_F(VerbsTest, ReadCompletesWithCallback) {
  QueuePair qp(&client_, 0, HostMr());
  SimTime done = -1;
  qp.PostRead(0x2000, 64, 1, [&](SimTime t) { done = t; });
  sim_.Run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(qp.posted(), 1u);
}

TEST_F(VerbsTest, CompletionQueueReceivesWc) {
  CompletionQueue cq;
  QueuePair qp(&client_, 0, HostMr(), &cq);
  qp.PostRead(0x2000, 128, 42);
  qp.PostWrite(0x3000, 256, 43);
  sim_.Run();
  EXPECT_EQ(cq.pending(), 2u);
  WorkCompletion wc[4];
  const int n = cq.Poll(wc, 4);
  ASSERT_EQ(n, 2);
  // A WRITE posted after a READ may complete first (no PCIe completion
  // wait); require both completions, not an order.
  const WorkCompletion& read_wc = wc[0].verb == Verb::kRead ? wc[0] : wc[1];
  const WorkCompletion& write_wc = wc[0].verb == Verb::kRead ? wc[1] : wc[0];
  EXPECT_EQ(read_wc.wr_id, 42u);
  EXPECT_EQ(read_wc.byte_len, 128u);
  EXPECT_EQ(write_wc.wr_id, 43u);
  EXPECT_EQ(write_wc.verb, Verb::kWrite);
  EXPECT_EQ(cq.pending(), 0u);
}

TEST_F(VerbsTest, PollRespectsMax) {
  CompletionQueue cq;
  QueuePair qp(&client_, 0, HostMr(), &cq);
  for (int i = 0; i < 5; ++i) {
    qp.PostWrite(0x3000 + static_cast<uint64_t>(i) * 64, 64, static_cast<uint64_t>(i));
  }
  sim_.Run();
  WorkCompletion wc[2];
  EXPECT_EQ(cq.Poll(wc, 2), 2);
  EXPECT_EQ(cq.pending(), 3u);
  EXPECT_EQ(cq.Poll(wc, 2), 2);
  EXPECT_EQ(cq.Poll(wc, 2), 1);
  EXPECT_EQ(cq.Poll(wc, 2), 0);
}

TEST_F(VerbsTest, CompletionsDeliveredInPostOrderOnOneThread) {
  CompletionQueue cq;
  QueuePair qp(&client_, 0, HostMr(), &cq);
  for (uint64_t i = 0; i < 8; ++i) {
    qp.PostRead(0x2000, 64, i);
  }
  sim_.Run();
  WorkCompletion wc[8];
  ASSERT_EQ(cq.Poll(wc, 8), 8);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(wc[i].wr_id, i);
  }
}

TEST_F(VerbsTest, SendUsesEchoService) {
  QueuePair qp(&client_, 0, HostMr());
  SimTime done = -1;
  qp.PostSend(64, 7, [&](SimTime t) { done = t; });
  sim_.Run();
  EXPECT_GT(done, FromMicros(1));
}

TEST_F(VerbsTest, SocRegionRoutesToSocEndpoint) {
  RemoteMemoryRegion mr = HostMr();
  mr.endpoint = server_.soc_ep();
  QueuePair qp(&client_, 0, mr);
  qp.PostRead(0x2000, 64);
  sim_.Run();
  // SoC reads never touch PCIe0.
  EXPECT_EQ(server_.pcie0().TotalCounters().tlps, 0u);
  EXPECT_GT(server_.pcie1().TotalCounters().tlps, 0u);
}

TEST_F(VerbsTest, MrContains) {
  RemoteMemoryRegion mr = HostMr(4096);
  EXPECT_TRUE(mr.Contains(0x1000, 1));
  EXPECT_TRUE(mr.Contains(0x1000 + 4095, 1));
  EXPECT_FALSE(mr.Contains(0x1000 + 4096, 1));
  EXPECT_FALSE(mr.Contains(0xfff, 1));
  EXPECT_FALSE(mr.Contains(0x1000, 4097));
}

TEST_F(VerbsTest, OutOfBoundsPostAborts) {
  QueuePair qp(&client_, 0, HostMr(4096));
  EXPECT_DEATH(qp.PostRead(0x1000 + 5000, 64), "CHECK failed");
}

TEST_F(VerbsTest, TwoQpsOnDifferentThreadsProgressIndependently) {
  QueuePair qp0(&client_, 0, HostMr());
  QueuePair qp1(&client_, 1, HostMr());
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    qp0.PostRead(0x2000, 64, 0, [&](SimTime) { ++completed; });
    qp1.PostRead(0x2000, 64, 0, [&](SimTime) { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 8);
}

TEST_F(VerbsTest, ZeroLengthOpAllowed) {
  QueuePair qp(&client_, 0, HostMr());
  SimTime done = -1;
  qp.PostRead(0x2000, 0, 1, [&](SimTime t) { done = t; });
  sim_.Run();
  EXPECT_GT(done, 0);
}

}  // namespace
}  // namespace rdma
}  // namespace snicsim

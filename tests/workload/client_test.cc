#include "src/workload/client.h"

#include <gtest/gtest.h>

#include "src/fault/injector.h"
#include "src/sim/timer_wheel.h"
#include "src/topo/server.h"

namespace snicsim {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest()
      : fabric_(&sim_),
        server_(&sim_, &fabric_, TestbedParams::Default()),
        meter_(&sim_) {}

  TargetSpec Target(Verb verb, uint32_t payload, bool soc = false) {
    TargetSpec t;
    t.engine = &server_.nic();
    t.endpoint = soc ? server_.soc_ep() : server_.host_ep();
    t.server_port = server_.port();
    t.verb = verb;
    t.payload = payload;
    return t;
  }

  Simulator sim_;
  Fabric fabric_;
  BluefieldServer server_;
  Meter meter_;
};

TEST_F(ClientTest, SingleReadCompletes) {
  ClientMachine cli(&sim_, &fabric_, ClientParams{}, "c0");
  SimTime done = -1;
  cli.Post(0, Target(Verb::kRead, 64), 0, [&](SimTime t, bool ok) {
    EXPECT_TRUE(ok);
    done = t;
  });
  sim_.Run();
  EXPECT_GT(done, 0);
  // One-sided READ latency in the low-microsecond range (paper Fig. 4).
  EXPECT_GT(done, FromMicros(1));
  EXPECT_LT(done, FromMicros(6));
}

TEST_F(ClientTest, ClosedLoopKeepsWindowBounded) {
  ClientParams p;
  p.threads = 2;
  p.window = 4;
  ClientMachine cli(&sim_, &fabric_, p, "c0");
  meter_.SetWindow(0, FromMicros(100));
  cli.Start(Target(Verb::kRead, 64), AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(100));
  EXPECT_GT(meter_.ops(), 0u);
  // Issued ops can exceed completed by at most threads*window.
  EXPECT_LE(cli.issued(), meter_.ops() + 2 * 4 + 2);
}

TEST_F(ClientTest, WriteCarriesPayloadFrames) {
  ClientMachine cli(&sim_, &fabric_, ClientParams{}, "c0");
  SimTime done = -1;
  cli.Post(0, Target(Verb::kWrite, 4096), 0, [&](SimTime t, bool ok) {
    EXPECT_TRUE(ok);
    done = t;
  });
  sim_.Run();
  EXPECT_GT(done, 0);
  // 4 KB at 1 KB MTU = 4 frames on the client's uplink.
  EXPECT_GE(cli.port()->counters(LinkDir::kUp).tlps, 4u);
}

TEST_F(ClientTest, SendGetsEchoReply) {
  ClientMachine cli(&sim_, &fabric_, ClientParams{}, "c0");
  SimTime done = -1;
  cli.Post(0, Target(Verb::kSend, 128, /*soc=*/true), 0x100, [&](SimTime t, bool ok) {
    EXPECT_TRUE(ok);
    done = t;
  });
  sim_.Run();
  EXPECT_GT(done, 0);
}

TEST_F(ClientTest, ThroughputScalesWithClients) {
  ClientParams p;
  p.threads = 12;
  p.window = 16;
  auto clients = MakeClients(&sim_, &fabric_, p, 2);
  Meter m1(&sim_);
  m1.SetWindow(FromMicros(20), FromMicros(100));
  clients[0]->Start(Target(Verb::kRead, 64), AddressGenerator::Default10G(), &m1);
  sim_.RunUntil(FromMicros(100));
  const double one = m1.MReqsPerSec();

  Simulator sim2;
  Fabric fabric2(&sim2);
  BluefieldServer server2(&sim2, &fabric2, TestbedParams::Default());
  auto clients2 = MakeClients(&sim2, &fabric2, p, 2);
  Meter m2(&sim2);
  m2.SetWindow(FromMicros(20), FromMicros(100));
  TargetSpec t2;
  t2.engine = &server2.nic();
  t2.endpoint = server2.host_ep();
  t2.server_port = server2.port();
  t2.verb = Verb::kRead;
  t2.payload = 64;
  for (auto& c : clients2) {
    c->Start(t2, AddressGenerator::Default10G(), &m2);
  }
  sim2.RunUntil(FromMicros(100));
  EXPECT_GT(m2.MReqsPerSec(), one * 1.3);  // not yet server-saturated at 1 client
}

TEST_F(ClientTest, PerThreadStreamsDiffer) {
  // Two threads of one machine must not read identical address streams.
  AddressGenerator a = AddressGenerator::Default10G().WithSeed(1);
  AddressGenerator b = AddressGenerator::Default10G().WithSeed(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

// Doorbell batching (Advice #4): one thread keeps one chain of four WQEs in
// flight, so every doorbell launches exactly four ops.
ClientParams BatchedOneThread() {
  ClientParams p;
  p.threads = 1;
  p.window = 1;
  p.doorbell_batch = true;
  p.batch = 4;
  return p;
}

TEST_F(ClientTest, BatchedLoopRingsOneDoorbellPerChain) {
  ClientMachine cli(&sim_, &fabric_, BatchedOneThread(), "c0");
  meter_.SetWindow(0, FromMicros(100));
  cli.Start(Target(Verb::kRead, 64), AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(100));
  EXPECT_GT(meter_.ops(), 0u);
  EXPECT_GT(cli.doorbells(), 0u);
  EXPECT_EQ(cli.issued(), 4 * cli.doorbells());
}

// Under loss the batched loop protects each chain op at its NIC launch
// (the engine's second entry point): every retry timer that fires either
// retransmits its op or fails it.
TEST_F(ClientTest, BatchedLoopRetransmitsUnderLoss) {
  fault::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.seed = 3;
  fault::FaultInjector injector(plan);
  sim_.set_faults(&injector);
  ClientParams p = BatchedOneThread();
  p.transport_timeout = FromMicros(20);
  ClientMachine cli(&sim_, &fabric_, p, "c0");
  ASSERT_TRUE(cli.Reliable());
  meter_.SetWindow(0, FromMicros(2000));
  cli.Start(Target(Verb::kRead, 64), AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(2000));
  EXPECT_GT(meter_.ops(), 0u);
  EXPECT_GT(cli.retransmits(), 0u);
  EXPECT_EQ(sim_.timers().fired(),
            cli.retransmits() + cli.op_failures() + cli.deadline_failures());
}

// Scheduled pumps hold pointers to the machine's loops, so a machine can be
// started once only.
using ClientDeathTest = ClientTest;

TEST_F(ClientDeathTest, SecondStartAborts) {
  ClientMachine cli(&sim_, &fabric_, ClientParams{}, "c0");
  cli.Start(Target(Verb::kRead, 64), AddressGenerator::Default10G(), &meter_);
  EXPECT_DEATH(cli.Start(Target(Verb::kRead, 64), AddressGenerator::Default10G(), &meter_),
               "CHECK failed.*started_");
}

}  // namespace
}  // namespace snicsim

#include "src/governor/pacer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/meter.h"
#include "src/topo/server.h"
#include "src/workload/client.h"

namespace snicsim {
namespace governor {
namespace {

class PacerTest : public ::testing::Test {
 protected:
  PacerTest() : fabric_(&sim_), bf_(&sim_, &fabric_, TestbedParams::Default()) {}

  // Six clients READ 4 KiB from the host endpoint, driving the port near
  // 190 Gbps.
  void StartNetworkLoad() {
    clients_ = MakeClients(&sim_, &fabric_, ClientParams{}, 6);
    TargetSpec t;
    t.engine = &bf_.nic();
    t.endpoint = bf_.host_ep();
    t.server_port = bf_.port();
    t.verb = Verb::kRead;
    t.payload = 4096;
    uint64_t seed = 1;
    for (auto& c : clients_) {
      c->Start(t, AddressGenerator(0, 1 * kGiB, 64, seed++), &net_);
    }
  }

  // A paced H2S WRITE stream demanding `gbps`.
  LocalRequester* StartPath3(double gbps) {
    LocalRequesterParams lp = LocalRequesterParams::Host();
    lp.paced_gbps = gbps;
    h2s_ = std::make_unique<LocalRequester>(&sim_, &bf_.nic(), bf_.host_ep(), bf_.soc_ep(),
                                            lp, "h2s");
    h2s_->Start(Verb::kWrite, 4096, AddressGenerator::Default10G(), &p3_);
    return h2s_.get();
  }

  // Reads the pacer's budget mid-epoch, once per epoch up to `end`.
  void SampleBudgets(const Path3Pacer& pacer, SimTime end) {
    for (SimTime t = kPacerEpoch + kPacerEpoch / 2; t < end; t += kPacerEpoch) {
      sim_.At(t, [this, &pacer] { budgets_.push_back(pacer.last_budget_gbps()); });
    }
  }

  Simulator sim_;
  Fabric fabric_;
  BluefieldServer bf_;
  std::vector<std::unique_ptr<ClientMachine>> clients_;
  std::unique_ptr<LocalRequester> h2s_;
  Meter net_{&sim_};
  Meter p3_{&sim_};
  std::vector<double> budgets_;
};

TEST_F(PacerTest, GrantsFullBudgetOnIdleNetwork) {
  LocalRequester* h2s = StartPath3(1.0);
  Path3Pacer pacer(&sim_, bf_.port(), h2s);
  pacer.Start();
  sim_.RunUntil(FromMicros(200));
  // No network traffic: the whole PCIe budget is granted.
  EXPECT_NEAR(pacer.last_budget_gbps(), kPacerPcieGbps, 1.0);
  EXPECT_NEAR(pacer.last_network_gbps(), 0.0, 1.0);
  EXPECT_GT(pacer.epochs(), 5u);
  EXPECT_NEAR(h2s->paced_rate(), pacer.last_budget_gbps(), 1e-9);
}

TEST_F(PacerTest, ThrottlesUnderNetworkLoad) {
  StartNetworkLoad();
  LocalRequester* h2s = StartPath3(200.0);
  Path3Pacer pacer(&sim_, bf_.port(), h2s);
  pacer.Start();
  // Each epoch's budget at full precision: the ablation's table prints one
  // decimal, too coarse to show a refactor byte-identical.
  SampleBudgets(pacer, FromMicros(300));
  sim_.RunUntil(FromMicros(300));
  std::string budgets;
  for (const double b : budgets_) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g ", b);
    budgets += buf;
  }
  EXPECT_EQ(budgets,
            "86.352000000000004 37.200000000000017 22.454399999999993 20.816000000000003 2 "
            "22.454399999999993 35.561600000000027 19.177600000000012 6.0704000000000349 "
            "10.985600000000005 33.923200000000008 81.436800000000005 55.222400000000022 "
            "30.6464 ");
  // Network near 190 Gbps: the budget collapses toward P - N.
  EXPECT_GT(pacer.last_network_gbps(), 150.0);
  EXPECT_LT(pacer.last_budget_gbps(), 100.0);
  EXPECT_LT(h2s->paced_rate(), 100.0);
}

TEST_F(PacerTest, FloorHoldsUnderLoad) {
  StartNetworkLoad();
  Path3Pacer pacer(&sim_, bf_.port(), StartPath3(50.0));
  pacer.Start();
  SampleBudgets(pacer, FromMicros(300));
  sim_.RunUntil(FromMicros(300));
  // An epoch whose measured N exceeds P is granted the floor, never less.
  ASSERT_FALSE(budgets_.empty());
  EXPECT_EQ(*std::min_element(budgets_.begin(), budgets_.end()), kPacerFloorGbps);
}

}  // namespace
}  // namespace governor
}  // namespace snicsim

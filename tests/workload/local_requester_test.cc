#include "src/workload/local_requester.h"

#include <gtest/gtest.h>

#include "src/topo/server.h"

namespace snicsim {
namespace {

class LocalRequesterTest : public ::testing::Test {
 protected:
  LocalRequesterTest()
      : fabric_(&sim_), server_(&sim_, &fabric_, TestbedParams::Default()), meter_(&sim_) {}

  Simulator sim_;
  Fabric fabric_;
  BluefieldServer server_;
  Meter meter_;
};

TEST_F(LocalRequesterTest, H2SReadCompletesOps) {
  LocalRequester req(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(),
                     LocalRequesterParams::Host(), "h2s");
  meter_.SetWindow(FromMicros(20), FromMicros(100));
  req.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(100));
  EXPECT_GT(meter_.ops(), 100u);
}

TEST_F(LocalRequesterTest, S2HSlowerThanH2S) {
  // Paper §3.3: SoC-side posting is slower (29 vs 51.2 M reqs/s for READ).
  LocalRequester h2s(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(),
                     LocalRequesterParams::Host(), "h2s");
  meter_.SetWindow(FromMicros(20), FromMicros(150));
  h2s.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(150));
  const double h2s_rate = meter_.MReqsPerSec();

  Simulator sim2;
  Fabric fabric2(&sim2);
  BluefieldServer server2(&sim2, &fabric2, TestbedParams::Default());
  Meter m2(&sim2);
  m2.SetWindow(FromMicros(20), FromMicros(150));
  LocalRequester s2h(&sim2, &server2.nic(), server2.soc_ep(), server2.host_ep(),
                     LocalRequesterParams::Soc(), "s2h");
  s2h.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &m2);
  sim2.RunUntil(FromMicros(150));
  EXPECT_LT(m2.MReqsPerSec(), h2s_rate);
}

TEST_F(LocalRequesterTest, DoorbellBatchingBoostsSocSide) {
  LocalRequesterParams base = LocalRequesterParams::Soc();
  Meter m1(&sim_);
  m1.SetWindow(FromMicros(20), FromMicros(150));
  LocalRequester plain(&sim_, &server_.nic(), server_.soc_ep(), server_.host_ep(), base,
                       "plain");
  plain.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &m1);
  sim_.RunUntil(FromMicros(150));

  Simulator sim2;
  Fabric fabric2(&sim2);
  BluefieldServer server2(&sim2, &fabric2, TestbedParams::Default());
  LocalRequesterParams batched = base;
  batched.doorbell_batch = true;
  batched.batch = 32;
  Meter m2(&sim2);
  m2.SetWindow(FromMicros(20), FromMicros(150));
  LocalRequester db(&sim2, &server2.nic(), server2.soc_ep(), server2.host_ep(), batched,
                    "db");
  db.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &m2);
  sim2.RunUntil(FromMicros(150));

  // Paper Fig. 10(b): 2.7-4.6x improvement for batches 16-80.
  EXPECT_GT(m2.MReqsPerSec(), 2.0 * m1.MReqsPerSec());
}

TEST_F(LocalRequesterTest, WriteAndSendComplete) {
  LocalRequester req(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(),
                     LocalRequesterParams::Host(), "w");
  meter_.SetWindow(0, FromMicros(50));
  req.Start(Verb::kWrite, 256, AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(50));
  EXPECT_GT(meter_.ops(), 10u);
}

TEST_F(LocalRequesterTest, MmioFlightMatchesEndpointPath) {
  LocalRequester host_req(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(),
                          LocalRequesterParams::Host(), "h");
  // The doorbell must traverse host->switch->NIC, i.e. the host endpoint's
  // base path latency — sanity-check it is the longer one.
  EXPECT_GT(server_.host_ep()->to_mem().BaseLatency(),
            server_.soc_ep()->to_mem().BaseLatency());
}

TEST_F(LocalRequesterTest, PacedRequesterDeliversNearTargetWhenUncontended) {
  LocalRequesterParams lp = LocalRequesterParams::Host();
  lp.paced_gbps = 40.0;
  LocalRequester h2s(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(), lp, "h2s");
  meter_.SetWindow(FromMicros(50), FromMicros(450));
  h2s.Start(Verb::kWrite, 4096, AddressGenerator::Default10G(), &meter_);
  sim_.RunUntil(FromMicros(450));
  EXPECT_NEAR(meter_.Gbps(), 40.0, 6.0);
}

TEST_F(LocalRequesterTest, DynamicRateChangeTakesEffect) {
  LocalRequesterParams lp = LocalRequesterParams::Host();
  lp.paced_gbps = 10.0;
  LocalRequester h2s(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(), lp, "h2s");
  h2s.Start(Verb::kWrite, 4096, AddressGenerator::Default10G(), &meter_);
  uint64_t at250 = 0;
  sim_.At(FromMicros(250), [&] {
    at250 = meter_.ops();
    h2s.SetPacedRate(80.0);
  });
  sim_.RunUntil(FromMicros(500));
  const double first = static_cast<double>(at250) * 4096 * 8 / 1e9 / 250e-6;
  const double second =
      static_cast<double>(meter_.ops() - at250) * 4096 * 8 / 1e9 / 250e-6;
  EXPECT_GT(second, 3.0 * first);  // the rate change really applied
}

// Scheduled pumps hold pointers to the requester's loops, so a requester
// can be started once only.
using LocalRequesterDeathTest = LocalRequesterTest;

TEST_F(LocalRequesterDeathTest, SecondStartAborts) {
  LocalRequester req(&sim_, &server_.nic(), server_.host_ep(), server_.soc_ep(),
                     LocalRequesterParams::Host(), "h2s");
  req.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &meter_);
  EXPECT_DEATH(req.Start(Verb::kRead, 64, AddressGenerator::Default10G(), &meter_),
               "CHECK failed.*started_");
}

}  // namespace
}  // namespace snicsim

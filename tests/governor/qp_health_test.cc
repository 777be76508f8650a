// QpHealth: the verbs layer's task-level fault signal and its governor
// integration. The snapshot must mirror the QP's own accessors, the error
// rate must be sane, and an AdaptiveGovernor fed an unhealthy sampler for
// one path must steer score-chosen traffic off that path.
#include <gtest/gtest.h>

#include "src/fault/injector.h"
#include "src/governor/governor.h"
#include "src/rdma/verbs.h"
#include "src/topo/server.h"

namespace snicsim {
namespace {

TEST(QpHealth, SnapshotMirrorsAccessorsAfterFaultedRun) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientParams params;
  params.transport_timeout = FromMicros(50);
  ClientMachine client(&sim, &fabric, params, "cli");
  fault::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.seed = 7;
  fault::FaultInjector injector(plan);
  sim.set_faults(&injector);

  rdma::RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = server.host_ep();
  mr.server_port = server.port();
  mr.addr = 0;
  mr.length = 1ull * kGiB;
  rdma::QpConfig cfg;
  cfg.max_send_wr = 32;
  rdma::CompletionQueue cq;
  rdma::QueuePair qp(&client, 0, mr, &cq, cfg);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(qp.PostRead(static_cast<uint64_t>(i) * 64, 64, i + 1));
  }
  sim.Run();

  const rdma::QpHealth h = qp.health();
  EXPECT_EQ(h.state, qp.state());
  EXPECT_EQ(h.outstanding, qp.outstanding());
  EXPECT_EQ(h.posted, qp.posted());
  EXPECT_EQ(h.completions, qp.completions());
  EXPECT_EQ(h.completion_errors, qp.completion_errors());
  EXPECT_EQ(h.usable(), qp.state() == rdma::QpState::kRts);
  EXPECT_GE(h.ErrorRate(), 0.0);
  EXPECT_LE(h.ErrorRate(), 1.0);
  EXPECT_EQ(h.completions + h.completion_errors, 32u);
  EXPECT_GT(client.retransmits(), 0u);  // 5% drop actually exercised the engine
}

TEST(QpHealth, DerivedRates) {
  rdma::QpHealth h;
  EXPECT_TRUE(h.usable());
  EXPECT_EQ(h.ErrorRate(), 0.0);  // no completions yet: not an error
  h.completions = 9;
  h.completion_errors = 1;
  EXPECT_DOUBLE_EQ(h.ErrorRate(), 0.1);
  h.state = rdma::QpState::kError;
  EXPECT_FALSE(h.usable());
}

// Governor integration: after one sampling epoch, a path whose QPs report
// errors (or left kRts entirely) loses the score comparison, so a small
// resident request that would otherwise race both paths is steered away.
TEST(QpHealth, GovernorSteersOffUnhealthyPath) {
  using governor::AdaptiveGovernor;
  using governor::GovernorConfig;
  using governor::kPathHost;
  using governor::kPathSoc;

  const TestbedParams tp = TestbedParams::Default();
  const ClientParams client;
  kv::ServingLayout layout;
  const kv::ServingConfig serving = kv::ServingConfig::FromTestbed(tp, layout);
  GovernorConfig cfg;
  cfg.explore_eps = 0.0;  // pure score comparison for this unit test

  KvRequest req;
  req.rank = 5;  // SoC-resident
  req.size_class = 0;
  req.bytes = layout.class_bytes[0];

  {
    // Baseline: both paths healthy — the faster host pool wins at 64 B.
    Simulator sim;
    AdaptiveGovernor gov(&sim, cfg, &layout, serving, tp, client,
                         layout.class_bytes);
    gov.BindQpHealth(kPathHost, [] { return rdma::QpHealth{}; });
    gov.BindQpHealth(kPathSoc, [] { return rdma::QpHealth{}; });
    sim.RunFor(cfg.epoch * 2 + FromNanos(1));
    gov.StopTicking();
    sim.Run();
    EXPECT_EQ(gov.Route(req), kPathHost);
  }
  {
    // Host QPs erroring and out of kRts: the penalty must flip the choice.
    Simulator sim;
    AdaptiveGovernor gov(&sim, cfg, &layout, serving, tp, client,
                         layout.class_bytes);
    gov.BindQpHealth(kPathHost, [] {
      rdma::QpHealth h;
      h.state = rdma::QpState::kError;
      h.completions = 1;
      h.completion_errors = 9;
      return h;
    });
    gov.BindQpHealth(kPathSoc, [] { return rdma::QpHealth{}; });
    sim.RunFor(cfg.epoch * 2 + FromNanos(1));
    gov.StopTicking();
    sim.Run();
    EXPECT_EQ(gov.Route(req), kPathSoc);
  }
}

}  // namespace
}  // namespace snicsim

// Verbs semantics beyond the data path: transport-type restrictions,
// send-queue depth, signaled/unsignaled WRs, success and error counting, and
// how a QP's WRs complete when the machine's retransmission engine gives up
// on them.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/injector.h"
#include "src/rdma/verbs.h"
#include "src/topo/server.h"

namespace snicsim {
namespace rdma {
namespace {

class QpSemanticsTest : public ::testing::Test {
 protected:
  QpSemanticsTest()
      : fabric_(&sim_),
        server_(&sim_, &fabric_, TestbedParams::Default()),
        client_(&sim_, &fabric_, ClientParams{}, "cli") {}

  RemoteMemoryRegion Mr() {
    RemoteMemoryRegion mr;
    mr.engine = &server_.nic();
    mr.endpoint = server_.host_ep();
    mr.server_port = server_.port();
    mr.addr = 0;
    mr.length = 1ull * kGiB;
    return mr;
  }

  Simulator sim_;
  Fabric fabric_;
  BluefieldServer server_;
  ClientMachine client_;
};

TEST_F(QpSemanticsTest, UdAllowsOnlySends) {
  QpConfig cfg;
  cfg.type = QpType::kUd;
  QueuePair qp(&client_, 0, Mr(), nullptr, cfg);
  EXPECT_TRUE(qp.PostSend(64));
  EXPECT_DEATH(qp.PostRead(0, 64), "CHECK failed");
  EXPECT_DEATH(qp.PostWrite(0, 64), "CHECK failed");
}

TEST_F(QpSemanticsTest, SendQueueDepthBoundsOutstanding) {
  QpConfig cfg;
  cfg.max_send_wr = 4;
  QueuePair qp(&client_, 0, Mr(), nullptr, cfg);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (qp.PostRead(0, 64)) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(qp.outstanding(), 4);
  sim_.Run();
  EXPECT_EQ(qp.outstanding(), 0);
  // After the queue drains, posting works again.
  EXPECT_TRUE(qp.PostRead(0, 64));
}

TEST_F(QpSemanticsTest, UnsignaledWrsProduceNoCqe) {
  CompletionQueue cq;
  QueuePair qp(&client_, 0, Mr(), &cq);
  qp.PostRead(0, 64, 1, nullptr, /*signaled=*/false);
  qp.PostRead(0, 64, 2, nullptr, /*signaled=*/true);
  sim_.Run();
  EXPECT_EQ(cq.pending(), 1u);
  WorkCompletion wc;
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 2u);
}

// With a fault injector attached, a QP posts through its machine's
// retransmission engine (ClientMachine::Post). The server's cable
// flapping until `flap_us` drops every transmission inside the window.
class QpEngineTest : public QpSemanticsTest {
 protected:
  void Flap(int flap_us) {
    plan_.flaps.push_back({"bf_srv.port", 0, FromMicros(flap_us)});
    Attach();
  }

  void Attach() {
    injector_ = std::make_unique<fault::FaultInjector>(plan_);
    sim_.set_faults(injector_.get());
  }

  static ClientParams Engine(int timeout_us, int retry_cnt) {
    ClientParams p;
    p.transport_timeout = FromMicros(timeout_us);
    p.retry_cnt = retry_cnt;
    return p;
  }

  fault::FaultPlan plan_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

TEST_F(QpEngineTest, RetryExhaustionGivesRetryExceeded) {
  // Timers at 5, 15 and 35 us: two retransmissions vanish in the flap, the
  // third timer gives up. Every WR fails exactly once, unsignaled ones too.
  Flap(1000);
  ClientMachine cli(&sim_, &fabric_, Engine(5, 2), "rcli");
  CompletionQueue cq;
  QueuePair qp(&cli, 0, Mr(), &cq);
  int callbacks = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(qp.PostRead(static_cast<uint64_t>(i) * 64, 64, i + 1,
                            [&](SimTime) { ++callbacks; }, /*signaled=*/i != 1));
  }
  sim_.Run();
  EXPECT_EQ(qp.outstanding(), 0);
  EXPECT_EQ(qp.completions(), 0u);
  EXPECT_EQ(qp.completion_errors(), 3u);
  EXPECT_EQ(callbacks, 3);
  EXPECT_EQ(cli.retransmits(), 6u);
  EXPECT_EQ(cli.op_failures(), 3u);
  ASSERT_EQ(cq.pending(), 3u);
  WorkCompletion wc;
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(cq.Poll(&wc, 1), 1);
    EXPECT_EQ(wc.wr_id, id);
    EXPECT_EQ(wc.status, WcStatus::kRetryExceeded);
    EXPECT_EQ(wc.completed_at, FromMicros(35));
  }
}

TEST_F(QpEngineTest, DeadlineExpiryGivesDeadlineExceeded) {
  // Every transmission dies until t=100 us, so the deadline (t=30 us) is
  // noticed at the retry timer clamped to it. The bounded WR completes once
  // as kDeadlineExceeded; the unbounded one keeps retransmitting and
  // completes after the link heals.
  Flap(100);
  ClientMachine cli(&sim_, &fabric_, Engine(20, 7), "rcli");
  CompletionQueue cq;
  QueuePair qp(&cli, 0, Mr(), &cq);
  int deadline_cbs = 0;
  ASSERT_TRUE(qp.PostRead(0, 64, 1, [&](SimTime) { ++deadline_cbs; },
                          /*signaled=*/true, /*deadline=*/FromMicros(30)));
  ASSERT_TRUE(qp.PostRead(64, 64, 2));
  sim_.Run();
  EXPECT_EQ(qp.completions(), 1u);
  EXPECT_EQ(qp.completion_errors(), 1u);
  EXPECT_EQ(deadline_cbs, 1);
  EXPECT_EQ(cli.deadline_failures(), 1u);
  EXPECT_EQ(cli.op_failures(), 0u);
  ASSERT_EQ(cq.pending(), 2u);
  WorkCompletion wc;
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 1u);
  EXPECT_EQ(wc.status, WcStatus::kDeadlineExceeded);
  EXPECT_EQ(wc.completed_at, FromMicros(30));
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 2u);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_GT(wc.completed_at, FromMicros(100));
}

TEST_F(QpEngineTest, QpServesAgainOnceTheFlapEnds) {
  // A WR posted into the flap fails; the QP stays ready to send, so a WR
  // posted after the flap completes first time.
  Flap(50);
  ClientMachine cli(&sim_, &fabric_, Engine(5, 2), "rcli");
  CompletionQueue cq;
  QueuePair qp(&cli, 0, Mr(), &cq);
  ASSERT_TRUE(qp.PostRead(0, 64, 1));
  sim_.Run();
  EXPECT_EQ(qp.completion_errors(), 1u);
  sim_.RunFor(FromMicros(30));  // past the flap
  ASSERT_TRUE(qp.PostRead(0, 64, 2));
  sim_.Run();
  EXPECT_EQ(qp.completions(), 1u);
  EXPECT_EQ(qp.completion_errors(), 1u);
  EXPECT_EQ(cli.retransmits(), 2u);  // the failed WR's two, none after
  ASSERT_EQ(cq.pending(), 2u);
  WorkCompletion wc;
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.status, WcStatus::kRetryExceeded);
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 2u);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
}

TEST_F(QpEngineTest, SuccessesCountTowardTheErrorRate) {
  // Ten SENDs before any fault is attached post through ClientMachine::Post
  // and each counts a success. With the link then flapping, one SEND the
  // engine gives up on counts one error: one error in eleven completions.
  ClientMachine cli(&sim_, &fabric_, Engine(5, 2), "rcli");
  QueuePair qp(&cli, 0, Mr());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(qp.PostSend(64));
  }
  sim_.Run();
  EXPECT_EQ(qp.completions(), 10u);
  EXPECT_EQ(qp.completion_errors(), 0u);
  Flap(1000);
  ASSERT_TRUE(qp.PostSend(64));
  sim_.Run();
  EXPECT_EQ(cli.op_failures(), 1u);
  EXPECT_EQ(qp.completions(), 10u);
  EXPECT_EQ(qp.completion_errors(), 1u);
  EXPECT_EQ(qp.posted(), 11u);
}

TEST_F(QpEngineTest, FaultedRunDeliversEveryWrOnce) {
  // 5% frame loss: every WR still ends as exactly one success or error,
  // and the loss actually exercised the engine.
  plan_.drop_rate = 0.05;
  plan_.seed = 7;
  Attach();
  ClientMachine cli(&sim_, &fabric_, Engine(50, 7), "rcli");
  QpConfig cfg;
  cfg.max_send_wr = 32;
  CompletionQueue cq;
  QueuePair qp(&cli, 0, Mr(), &cq, cfg);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(qp.PostRead(static_cast<uint64_t>(i) * 64, 64, i + 1));
  }
  sim_.Run();
  EXPECT_EQ(qp.outstanding(), 0);
  EXPECT_EQ(qp.completions() + qp.completion_errors(), 32u);
  EXPECT_GT(cli.retransmits(), 0u);
}

}  // namespace
}  // namespace rdma
}  // namespace snicsim

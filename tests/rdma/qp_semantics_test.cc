// Verbs semantics beyond the data path: QP state ladder, transport-type
// restrictions, send-queue depth, signaled/unsignaled WRs, RNR backoff and
// budget exhaustion, and how a QP's WRs complete when the machine's
// retransmission engine gives up on them.
#include <gtest/gtest.h>

#include <memory>

#include "src/fault/injector.h"
#include "src/rdma/recv_queue.h"
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

TEST_F(QpSemanticsTest, StateLadderMustBeWalkedInOrder) {
  QueuePair qp(&client_, 0, Mr());
  qp.Reset();
  EXPECT_EQ(qp.state(), QpState::kReset);
  EXPECT_FALSE(qp.Modify(QpState::kRtr));   // skipping kInit
  EXPECT_FALSE(qp.Modify(QpState::kRts));
  EXPECT_TRUE(qp.Modify(QpState::kInit));
  EXPECT_TRUE(qp.Modify(QpState::kRtr));
  EXPECT_TRUE(qp.Modify(QpState::kRts));
  EXPECT_EQ(qp.state(), QpState::kRts);
}

TEST_F(QpSemanticsTest, PostRejectedUnlessRts) {
  QueuePair qp(&client_, 0, Mr());
  qp.Reset();
  EXPECT_FALSE(qp.PostRead(0, 64));
  qp.Modify(QpState::kInit);
  qp.Modify(QpState::kRtr);
  EXPECT_FALSE(qp.PostRead(0, 64));
  qp.Modify(QpState::kRts);
  EXPECT_TRUE(qp.PostRead(0, 64));
}

TEST_F(QpSemanticsTest, ErrorStateReachableFromAnywhere) {
  QueuePair qp(&client_, 0, Mr());
  EXPECT_TRUE(qp.Modify(QpState::kError));
  EXPECT_FALSE(qp.PostWrite(0, 64));
}

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

TEST_F(QpSemanticsTest, SignalAllOverridesUnsignaled) {
  QpConfig cfg;
  cfg.signal_all = true;
  CompletionQueue cq;
  QueuePair qp(&client_, 0, Mr(), &cq, cfg);
  qp.PostWrite(0, 64, 1, nullptr, /*signaled=*/false);
  sim_.Run();
  EXPECT_EQ(cq.pending(), 1u);
}

TEST_F(QpSemanticsTest, RnrRetriesWhenRingDry) {
  ReceiveQueue ring(2, /*auto_replenish=*/false);
  RemoteMemoryRegion mr = Mr();
  mr.recv = &ring;
  QpConfig cfg;
  cfg.rnr_backoff = FromMicros(5);
  QueuePair qp(&client_, 0, mr, nullptr, cfg);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    qp.PostSend(64, 0, [&](SimTime) { ++completed; });
  }
  // Two WQEs posted: the third send hits RNR and retries until the app
  // reposts a receive.
  sim_.RunFor(FromMicros(8));
  EXPECT_GE(qp.rnr_retries(), 1u);  // retried at least once (each dry retry counts)
  ring.PostRecv(1);
  sim_.Run();
  EXPECT_EQ(completed, 3);
  EXPECT_GE(qp.rnr_retries(), 1u);
}

TEST_F(QpSemanticsTest, AutoReplenishRingNeverRnrs) {
  ReceiveQueue ring(4, /*auto_replenish=*/true);
  RemoteMemoryRegion mr = Mr();
  mr.recv = &ring;
  QueuePair qp(&client_, 0, mr);
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    qp.PostSend(64, 0, [&](SimTime) { ++completed; });
  }
  sim_.Run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(qp.rnr_retries(), 0u);
  EXPECT_EQ(ring.consumed(), 20u);
}

TEST_F(QpSemanticsTest, RnrBackoffTimingIsExact) {
  ReceiveQueue ring(1, /*auto_replenish=*/false);
  ASSERT_TRUE(ring.Consume());  // dry the ring before the QP sees it
  RemoteMemoryRegion mr = Mr();
  mr.recv = &ring;
  QpConfig cfg;
  cfg.rnr_backoff = FromMicros(5);
  QueuePair qp(&client_, 0, mr, nullptr, cfg);
  int completed = 0;
  qp.PostSend(64, 0, [&](SimTime) { ++completed; });
  // Dry consume at t=0, then one retry per 5 us backoff: 0, 5, 10 have
  // fired by t=12, the t=15 retry has not.
  sim_.RunFor(FromMicros(12));
  EXPECT_EQ(qp.rnr_retries(), 3u);
  EXPECT_EQ(completed, 0);
  ring.PostRecv(1);
  sim_.Run();  // the t=15 retry finds the receive and goes through
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(qp.rnr_retries(), 3u);
}

TEST_F(QpSemanticsTest, RnrBudgetExhaustionEntersErrorAndRecovers) {
  ReceiveQueue ring(1, /*auto_replenish=*/false);
  ASSERT_TRUE(ring.Consume());
  RemoteMemoryRegion mr = Mr();
  mr.recv = &ring;
  QpConfig cfg;
  cfg.rnr_backoff = FromMicros(5);
  cfg.rnr_retry_cnt = 3;
  CompletionQueue cq;
  QueuePair qp(&client_, 0, mr, &cq, cfg);
  int callbacks = 0;
  // Unsignaled on purpose: error completions are delivered regardless.
  qp.PostSend(64, 7, [&](SimTime) { ++callbacks; }, /*signaled=*/false);
  sim_.Run();
  EXPECT_EQ(qp.state(), QpState::kError);
  EXPECT_EQ(qp.rnr_retries(), 3u);  // the budget, exactly
  EXPECT_EQ(qp.completion_errors(), 1u);
  EXPECT_EQ(callbacks, 1);
  ASSERT_EQ(cq.pending(), 1u);
  WorkCompletion wc;
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 7u);
  EXPECT_EQ(wc.status, WcStatus::kRnrRetryExceeded);
  // Reconnect: replenish the ring, walk the ladder, and the QP serves again.
  ring.PostRecv(1);
  ASSERT_TRUE(qp.Recover());
  EXPECT_EQ(qp.state(), QpState::kRts);
  ASSERT_TRUE(qp.PostSend(64, 8, [&](SimTime) { ++callbacks; }));
  sim_.Run();
  EXPECT_EQ(callbacks, 2);
}

TEST_F(QpSemanticsTest, SuccessesCountTowardTheErrorRate) {
  // Ten SENDs complete, then the dry ring exhausts a zero RNR budget at
  // once: one error in eleven completions, not an error rate of 1.
  ReceiveQueue ring(10, /*auto_replenish=*/false);
  RemoteMemoryRegion mr = Mr();
  mr.recv = &ring;
  QpConfig cfg;
  cfg.rnr_retry_cnt = 0;
  QueuePair qp(&client_, 0, mr, nullptr, cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(qp.PostSend(64));
  }
  sim_.Run();
  ASSERT_TRUE(qp.PostSend(64));
  sim_.Run();
  EXPECT_EQ(qp.state(), QpState::kError);
  const QpHealth h = qp.health();
  EXPECT_EQ(h.completions, 10u);
  EXPECT_EQ(h.completion_errors, 1u);
  EXPECT_DOUBLE_EQ(h.ErrorRate(), 1.0 / 11.0);
}

// With a fault injector attached, a QP posts through its machine's
// retransmission engine (ClientMachine::PostReliable). The server's cable
// flapping for `flap_us` drops every transmission inside the window.
class QpEngineTest : public QpSemanticsTest {
 protected:
  void Flap(int flap_us) {
    plan_.flaps.push_back({"bf_srv.port", 0, FromMicros(flap_us)});
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
  // third timer gives up. Every WR fails exactly once, unsignaled ones too,
  // and the QP stays in kRts.
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
  EXPECT_EQ(qp.state(), QpState::kRts);
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
  EXPECT_EQ(qp.state(), QpState::kRts);
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
  // A WR posted into the flap fails; the QP never leaves kRts, so a WR
  // posted after the flap needs no Recover() and completes first time.
  Flap(50);
  ClientMachine cli(&sim_, &fabric_, Engine(5, 2), "rcli");
  CompletionQueue cq;
  QueuePair qp(&cli, 0, Mr(), &cq);
  ASSERT_TRUE(qp.PostRead(0, 64, 1));
  sim_.Run();
  EXPECT_EQ(qp.state(), QpState::kRts);
  EXPECT_EQ(qp.completion_errors(), 1u);
  sim_.RunFor(FromMicros(30));  // past the flap
  ASSERT_TRUE(qp.PostRead(0, 64, 2));
  sim_.Run();
  EXPECT_EQ(qp.completions(), 1u);
  EXPECT_EQ(cli.retransmits(), 2u);  // the failed WR's two, none after
  EXPECT_DOUBLE_EQ(qp.health().ErrorRate(), 0.5);
  ASSERT_EQ(cq.pending(), 2u);
  WorkCompletion wc;
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.status, WcStatus::kRetryExceeded);
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 2u);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
}

TEST(ReceiveQueue, PostRecvCapsAtCapacity) {
  ReceiveQueue ring(4, false);
  EXPECT_EQ(ring.posted(), 4);
  EXPECT_TRUE(ring.Consume());
  EXPECT_TRUE(ring.Consume());
  EXPECT_EQ(ring.posted(), 2);
  EXPECT_EQ(ring.PostRecv(10), 2);  // only space for 2
  EXPECT_EQ(ring.posted(), 4);
}

TEST(ReceiveQueue, RnrCountsDryConsumes) {
  ReceiveQueue ring(1, false);
  EXPECT_TRUE(ring.Consume());
  EXPECT_FALSE(ring.Consume());
  EXPECT_FALSE(ring.Consume());
  EXPECT_EQ(ring.rnr_events(), 2u);
  EXPECT_EQ(ring.consumed(), 1u);
}

}  // namespace
}  // namespace rdma
}  // namespace snicsim

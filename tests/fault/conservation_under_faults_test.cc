// The fault layer's core property: work requests are conserved. Whatever the
// fabric does — drops, flaps, retransmissions — every WR a verbs QP posts
// through its machine's retransmission engine (ClientMachine::Post)
// completes exactly once, as either a success or an error CQE. No
// duplicates (a late response after a retransmission must lose the
// first-wins race), no losses (a WR whose every transmission vanished must
// surface as retry_exceeded), and at drop 0 the engine must be pure
// bookkeeping: zero fired timers, zero retransmits.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/fault/injector.h"
#include "src/rdma/verbs.h"
#include "src/sim/timer_wheel.h"
#include "src/topo/server.h"

namespace snicsim {
namespace rdma {
namespace {

constexpr int kOps = 40;

struct RunResult {
  std::vector<std::pair<uint64_t, WcStatus>> cqes;  // delivery order
  uint64_t posted = 0;
  uint64_t retransmits = 0;
  uint64_t op_failures = 0;
  uint64_t timers_armed = 0;
  uint64_t completions = 0;
  uint64_t completion_errors = 0;

  bool operator==(const RunResult& o) const {
    return cqes == o.cqes && posted == o.posted && retransmits == o.retransmits &&
           op_failures == o.op_failures && timers_armed == o.timers_armed &&
           completions == o.completions &&
           completion_errors == o.completion_errors;
  }
};

// One full experiment: a fresh testbed whose client carries the engine, a
// QP, kOps mixed-verb WRs, run to quiescence under the given drop schedule.
// The injector is attached at drop 0 too, so every run goes through the
// engine.
RunResult RunConservation(double drop, uint64_t seed) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientParams params;
  params.transport_timeout = FromMicros(50);
  ClientMachine client(&sim, &fabric, params, "cli");
  fault::FaultPlan plan;
  plan.drop_rate = drop;
  plan.seed = seed;
  fault::FaultInjector injector(plan);
  sim.set_faults(&injector);

  RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = server.host_ep();
  mr.server_port = server.port();
  mr.addr = 0;
  mr.length = 1ull * kGiB;
  QpConfig cfg;
  cfg.max_send_wr = kOps;
  CompletionQueue cq;
  QueuePair qp(&client, 0, mr, &cq, cfg);

  for (int i = 0; i < kOps; ++i) {
    const uint64_t wr_id = static_cast<uint64_t>(i) + 1;
    const uint64_t addr = static_cast<uint64_t>(i) * 64;
    bool ok = false;
    switch (i % 3) {
      case 0:
        ok = qp.PostRead(addr, 64, wr_id);
        break;
      case 1:
        ok = qp.PostWrite(addr, 256, wr_id);
        break;
      default:
        ok = qp.PostSend(128, wr_id);
        break;
    }
    EXPECT_TRUE(ok) << "post " << i;
  }
  sim.Run();

  RunResult r;
  WorkCompletion wc;
  while (cq.Poll(&wc, 1) == 1) {
    r.cqes.emplace_back(wc.wr_id, wc.status);
  }
  r.posted = qp.posted();
  r.retransmits = client.retransmits();
  r.op_failures = client.op_failures();
  r.timers_armed = sim.timers().scheduled();
  r.completions = qp.completions();
  r.completion_errors = qp.completion_errors();
  EXPECT_EQ(qp.outstanding(), 0) << "drop=" << drop << " seed=" << seed;
  EXPECT_EQ(client.live_flights(), 0u) << "drop=" << drop << " seed=" << seed;
  // Every retry timer that fires either retransmits or fails its op: a
  // completion cancels the timer it supersedes.
  EXPECT_EQ(sim.timers().fired(),
            client.retransmits() + client.op_failures() + client.deadline_failures())
      << "drop=" << drop << " seed=" << seed;
  return r;
}

void CheckConserved(const RunResult& r, double drop, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "drop=" << drop << " seed=" << seed);
  // Exactly one CQE per posted WR...
  EXPECT_EQ(r.posted, static_cast<uint64_t>(kOps));
  ASSERT_EQ(r.cqes.size(), static_cast<size_t>(kOps));
  // ...carrying each wr_id exactly once (no duplicated or lost identity).
  std::set<uint64_t> ids;
  for (const auto& [wr_id, status] : r.cqes) {
    EXPECT_TRUE(ids.insert(wr_id).second) << "duplicate wr_id " << wr_id;
    EXPECT_GE(wr_id, 1u);
    EXPECT_LE(wr_id, static_cast<uint64_t>(kOps));
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kOps));
  // Success/error bookkeeping adds up to the posted count.
  EXPECT_EQ(r.completions + r.completion_errors, static_cast<uint64_t>(kOps));
}

TEST(ConservationUnderFaults, EveryWrCompletesExactlyOnceAcrossDropRates) {
  for (const uint64_t seed : {1u, 7u, 13u}) {
    for (const double drop : {0.0, 0.01, 0.05}) {
      CheckConserved(RunConservation(drop, seed), drop, seed);
    }
  }
}

TEST(ConservationUnderFaults, DropZeroMeansTheEngineIsPureBookkeeping) {
  const RunResult r = RunConservation(0.0, 1);
  EXPECT_EQ(r.timers_armed, static_cast<uint64_t>(kOps));  // one per WR, all cancelled
  EXPECT_EQ(r.retransmits, 0u);
  EXPECT_EQ(r.op_failures, 0u);
  EXPECT_EQ(r.completion_errors, 0u);
  for (const auto& [wr_id, status] : r.cqes) {
    EXPECT_EQ(status, WcStatus::kSuccess) << "wr " << wr_id;
  }
}

TEST(ConservationUnderFaults, HeavyLossActuallyExercisesRetransmission) {
  const RunResult r = RunConservation(0.05, 7);
  EXPECT_GT(r.retransmits, 0u);
}

TEST(ConservationUnderFaults, SameSeedReplaysByteForByte) {
  const RunResult a = RunConservation(0.05, 7);
  const RunResult b = RunConservation(0.05, 7);
  EXPECT_TRUE(a == b);
  // A different seed takes a different fault path (retransmit counts, CQE
  // order, or both) — the seed is load-bearing, not decorative.
  const RunResult c = RunConservation(0.05, 8);
  EXPECT_FALSE(a == c);
}

// A link that flaps for the whole retry budget: every WR surfaces one
// retry-exhaustion error, and a WR posted once the link heals succeeds on
// the same QP.
TEST(ConservationUnderFaults, FlapFailsEachWrOnceThenTheQpServes) {
  Simulator sim;
  Fabric fabric(&sim);
  BluefieldServer server(&sim, &fabric, TestbedParams::Default());
  ClientParams params;
  params.transport_timeout = FromMicros(5);
  params.retry_cnt = 2;
  ClientMachine client(&sim, &fabric, params, "cli");
  fault::FaultPlan plan;
  plan.flaps.push_back({"bf_srv.port", 0, FromMicros(150)});
  fault::FaultInjector injector(plan);
  sim.set_faults(&injector);

  RemoteMemoryRegion mr;
  mr.engine = &server.nic();
  mr.endpoint = server.host_ep();
  mr.server_port = server.port();
  mr.addr = 0;
  mr.length = 1ull * kGiB;
  CompletionQueue cq;
  QueuePair qp(&client, 0, mr, &cq);

  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(qp.PostRead(static_cast<uint64_t>(i) * 64, 64, i + 1));
  }
  // Exhaustion happens at 35 us (5 + 10 + 20 with the exponential backoff);
  // run well past it but stay inside the flap.
  sim.RunFor(FromMicros(100));
  EXPECT_EQ(qp.outstanding(), 0);
  EXPECT_EQ(client.op_failures(), static_cast<uint64_t>(kN));
  ASSERT_EQ(cq.pending(), static_cast<size_t>(kN));
  WorkCompletion wc;
  while (cq.Poll(&wc, 1) == 1) {
    EXPECT_EQ(wc.status, WcStatus::kRetryExceeded) << WcStatusName(wc.status);
  }

  // Heal the link and the same QP serves traffic again.
  sim.RunFor(FromMicros(100));  // now past the flap window
  ASSERT_TRUE(qp.PostRead(0, 64, 99));
  sim.Run();
  ASSERT_EQ(cq.pending(), 1u);
  cq.Poll(&wc, 1);
  EXPECT_EQ(wc.wr_id, 99u);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(sim.timers().fired(), client.retransmits() + client.op_failures());
}

}  // namespace
}  // namespace rdma
}  // namespace snicsim

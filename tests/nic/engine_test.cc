#include "src/nic/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mem/memory.h"
#include "src/pcie/link.h"

namespace snicsim {
namespace {

// A minimal Bluefield-like engine: host endpoint over one link, SoC endpoint
// over another.
class EngineHarness {
 public:
  EngineHarness()
      : host_link_(&sim_, "h", Bandwidth::Gbps(256), FromNanos(200)),
        soc_link_(&sim_, "s", Bandwidth::Gbps(256), FromNanos(80)),
        net_(&sim_, "net", Bandwidth::Gbps(200), FromNanos(150)),
        host_mem_(&sim_, "hm", MemoryParams::Host()),
        soc_mem_(&sim_, "sm", MemoryParams::Soc()),
        engine_(&sim_, NicParams::Bluefield2NicCores()) {
    EndpointParams hp;
    hp.name = "host";
    hp.pcie_mtu = kHostPcieMtu;
    PciePath host_path;
    host_path.Add(&host_link_, LinkDir::kDown);
    host_ = engine_.AddEndpoint(hp, host_path, &host_mem_);

    EndpointParams sp;
    sp.name = "soc";
    sp.pcie_mtu = kSocPcieMtu;
    PciePath soc_path;
    soc_path.Add(&soc_link_, LinkDir::kDown);
    soc_ = engine_.AddEndpoint(sp, soc_path, &soc_mem_);
  }

  PciePath NetOut() {
    PciePath p;
    p.Add(&net_, LinkDir::kUp);
    return p;
  }

  Simulator sim_;
  PcieLink host_link_;
  PcieLink soc_link_;
  PcieLink net_;
  MemorySubsystem host_mem_;
  MemorySubsystem soc_mem_;
  NicEngine engine_;
  NicEndpoint* host_ = nullptr;
  NicEndpoint* soc_ = nullptr;
};

TEST(NicEngine, ReadTouchesMemoryAndResponds) {
  EngineHarness h;
  SimTime done = -1;
  h.engine_.HandleRequest(h.host_, Verb::kRead, 0, 64, 1.0, h.NetOut(),
                          [&](SimTime t) { done = t; });
  h.sim_.Run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(h.host_link_.counters(LinkDir::kDown).tlps, 1u);
  EXPECT_EQ(h.host_link_.counters(LinkDir::kUp).tlps, 1u);
  EXPECT_EQ(h.net_.counters(LinkDir::kUp).tlps, 1u);  // response frame
}

TEST(NicEngine, ZeroByteReadSkipsPcie) {
  EngineHarness h;
  SimTime done = -1;
  h.engine_.HandleRequest(h.host_, Verb::kRead, 0, 0, 1.0, h.NetOut(),
                          [&](SimTime t) { done = t; });
  h.sim_.Run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(h.host_link_.TotalCounters().tlps, 0u);
}

TEST(NicEngine, WriteAcksWithoutWaitingForCommit) {
  EngineHarness h;
  SimTime write_done = -1;
  h.engine_.HandleRequest(h.soc_, Verb::kWrite, 0, 64, 1.0, h.NetOut(),
                          [&](SimTime t) { write_done = t; });
  h.sim_.Run();
  SimTime read_done = -1;
  EngineHarness h2;
  h2.engine_.HandleRequest(h2.soc_, Verb::kRead, 0, 64, 1.0, h2.NetOut(),
                           [&](SimTime t) { read_done = t; });
  h2.sim_.Run();
  // WRITE omits the PCIe completion wait (Fig. 3), so it acks earlier than a
  // READ returns data.
  EXPECT_LT(write_done, read_done);
}

TEST(NicEngine, SendInvokesHandlerAndReplies) {
  EngineHarness h;
  int handled = 0;
  h.engine_.SetSendHandler(h.soc_, [&](uint64_t /*hdr*/, uint32_t len, ReplyCallback reply) {
    ++handled;
    reply(h.sim_.now() + FromNanos(400), len);
  });
  SimTime done = -1;
  h.engine_.HandleRequest(h.soc_, Verb::kSend, 0x1000, 64, 1.0, h.NetOut(),
                          [&](SimTime t) { done = t; });
  h.sim_.Run();
  EXPECT_EQ(handled, 1);
  EXPECT_GT(done, FromNanos(400));
}

TEST(NicEngine, SocReadFasterThanHostRead) {
  // The SoC endpoint is "closer" (shorter link): §3.2's latency advantage.
  EngineHarness h;
  SimTime host_done = -1;
  SimTime soc_done = -1;
  h.engine_.HandleRequest(h.host_, Verb::kRead, 0, 64, 1.0, h.NetOut(),
                          [&](SimTime t) { host_done = t; });
  h.sim_.Run();
  EngineHarness h2;
  h2.engine_.HandleRequest(h2.soc_, Verb::kRead, 0, 64, 1.0, h2.NetOut(),
                           [&](SimTime t) { soc_done = t; });
  h2.sim_.Run();
  EXPECT_LT(soc_done, host_done);
}

TEST(NicEngine, LocalReadDeliversCqeToSource) {
  EngineHarness h;
  SimTime done = -1;
  h.engine_.ExecuteLocalOp(h.host_, h.soc_, Verb::kRead, 0, 64,
                           [&](SimTime t) { done = t; });
  h.sim_.Run();
  EXPECT_GT(done, 0);
  // Data read from SoC...
  EXPECT_GE(h.soc_link_.counters(LinkDir::kUp).tlps, 1u);
  // ...and data + CQE written into host memory.
  EXPECT_GE(h.host_link_.counters(LinkDir::kDown).tlps, 1u);
}

TEST(NicEngine, LocalWriteCrossesBothEndpoints) {
  EngineHarness h;
  SimTime done = -1;
  h.engine_.ExecuteLocalOp(h.host_, h.soc_, Verb::kWrite, 0, 256,
                           [&](SimTime t) { done = t; });
  h.sim_.Run();
  EXPECT_GT(done, 0);
  // Payload fetched from host (read request down + completions up).
  EXPECT_GE(h.host_link_.counters(LinkDir::kDown).tlps, 1u);
  EXPECT_GE(h.host_link_.counters(LinkDir::kUp).tlps, 1u);
  // Payload written into SoC at the SoC MTU: 256/128 = 2 TLPs.
  EXPECT_GE(h.soc_link_.counters(LinkDir::kDown).tlps, 2u);
}

TEST(NicEngine, PuPoolBoundsConcurrency) {
  NicParams p = NicParams::Bluefield2NicCores();
  EXPECT_GT(p.pu_count, 0);
  EngineHarness h;
  // Saturate with many reads; the PU pool must queue, not crash, and all
  // complete.
  int completed = 0;
  for (int i = 0; i < 500; ++i) {
    h.engine_.HandleRequest(h.host_, Verb::kRead, static_cast<uint64_t>(i) * 4096, 64,
                            1.0, h.NetOut(), [&](SimTime) { ++completed; });
  }
  h.sim_.Run();
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(h.engine_.requests_served(), 500u);
}

TEST(NicEngine, MultiFrameResponseChargesFrontEnd) {
  EngineHarness h;
  const uint64_t before = h.engine_.frontend().shared_jobs();
  h.engine_.HandleRequest(h.host_, Verb::kRead, 0, 16 * 1024, 1.0, h.NetOut(),
                          [](SimTime) {});
  h.sim_.Run();
  // 16 KB at 1 KB network MTU = 16 frames: 1 unit inbound + 15 extra.
  EXPECT_GE(h.engine_.frontend().shared_jobs() - before, 2u);
}

// A no-op due at `at` that stays pending behind every other event due then:
// whenever it runs with more work due now, it queues itself again. Each run
// counts one in `*runs`.
struct Probe {
  Simulator* sim;
  uint64_t* runs;
  void operator()() const {
    ++*runs;
    if (!sim->NothingDueNow()) {
      sim->In(0, Probe{sim, runs});
    }
  }
};

// One mixed stream through the engine, and what it left behind.
struct StreamRun {
  std::vector<SimTime> done;         // each request's completion time
  std::vector<SimTime> event_times;  // every distinct dispatch time
  // Per link and direction: TLPs, payload and wire bytes, busy time; per
  // memory: DRAM accesses, LLC hits and misses; the shared PU pool's and
  // each endpoint's credit pools' peak waiters.
  std::vector<uint64_t> counters;
  uint64_t requests = 0;
  uint64_t events = 0;
  uint64_t probe_events = 0;
};

// Remote READs, WRITEs and SENDs of 0 B and 64 B to 16 KiB to both
// endpoints, a burst of 60 host READs at one instant that queues on the PUs
// (13 dedicated + 32 shared), and one path-3 WRITE from the host into the
// SoC.
// `probe_at`: times at which a Probe must be pending while every other
// event due then runs; it is armed 1 ps earlier.
StreamRun RunStream(const std::vector<SimTime>& probe_at) {
  EngineHarness h;
  StreamRun r;
  h.engine_.SetSendHandler(h.soc_, [&h](uint64_t, uint32_t len, ReplyCallback reply) {
    reply(h.sim_.now() + FromNanos(400), len);
  });
  h.engine_.SetSendHandler(h.host_, [&h](uint64_t, uint32_t len, ReplyCallback reply) {
    reply(h.sim_.now() + FromNanos(250), len);
  });
  constexpr int kSpread = 48;
  constexpr int kBurst = 60;
  r.done.assign(kSpread + kBurst + 1, -1);
  r.requests = r.done.size();
  for (int i = 0; i < kSpread; ++i) {
    const Verb verb = i % 3 == 0 ? Verb::kRead : i % 3 == 1 ? Verb::kWrite : Verb::kSend;
    NicEndpoint* const ep = (i / 3) % 2 == 0 ? h.host_ : h.soc_;
    const uint32_t len = i % 8 == 7 ? 0 : 64u << (2 * (i % 5));  // 0, 64 B .. 16 KiB
    h.sim_.At(FromNanos(40) * i, [&h, &r, i, verb, ep, len] {
      h.engine_.HandleRequest(ep, verb, static_cast<uint64_t>(i) * 65536, len, 1.0,
                              h.NetOut(), [&r, i](SimTime t) { r.done[i] = t; });
    });
  }
  h.sim_.At(FromNanos(700), [&h, &r] {
    for (int i = kSpread; i < kSpread + kBurst; ++i) {
      h.engine_.HandleRequest(h.host_, Verb::kRead, static_cast<uint64_t>(i) * 4096, 256,
                              1.0, h.NetOut(), [&r, i](SimTime t) { r.done[i] = t; });
    }
    h.engine_.ExecuteLocalOp(h.host_, h.soc_, Verb::kWrite, 1 << 20, 32 * 1024,
                             [&r](SimTime t) { r.done.back() = t; });
  });
  Simulator* const sim = &h.sim_;
  uint64_t* const runs = &r.probe_events;
  for (const SimTime t : probe_at) {
    if (t > 0) {
      sim->At(t - 1, [sim, runs, t] {
        ++*runs;
        sim->At(t, Probe{sim, runs});
      });
    }
  }
  while (!sim->empty()) {
    const SimTime t = sim->next_event_time();
    r.event_times.push_back(t);
    sim->RunUntil(t);
  }
  for (PcieLink* link : {&h.host_link_, &h.soc_link_, &h.net_}) {
    for (LinkDir dir : {LinkDir::kDown, LinkDir::kUp}) {
      const LinkCounters c = link->counters(dir);
      r.counters.insert(r.counters.end(), {c.tlps, c.payload_bytes, c.wire_bytes,
                                           static_cast<uint64_t>(link->BusyTime(dir))});
    }
  }
  for (MemorySubsystem* mem : {&h.host_mem_, &h.soc_mem_}) {
    r.counters.insert(r.counters.end(),
                      {mem->dram_accesses(), mem->llc_hits(), mem->llc_misses()});
  }
  r.counters.push_back(h.engine_.processing_units().max_waiters());
  r.events = sim->processed();
  return r;
}

// The engine twin of NicEndpoint.TailIssuedGrantsMatchQueuedGrants: the PU
// grant that ends a parse event and the DMA-credit grants that end a PU
// grant run in place when nothing else is due (DESIGN.md §8). A Probe
// pending at every dispatch time forces each of them back onto In(0);
// completion times and every link, memory and PU counter must not move.
TEST(NicEngine, TailIssuedGrantsMatchQueuedGrants) {
  const StreamRun plain = RunStream({});
  const StreamRun probed = RunStream(plain.event_times);
  for (const SimTime t : plain.done) {
    ASSERT_GT(t, 0);
  }
  EXPECT_EQ(probed.done, plain.done);
  EXPECT_EQ(probed.counters, plain.counters);
  EXPECT_GT(plain.counters.back(), 0u);  // the burst queued on the PUs
  // The probes really forced the queued branch: at least the PU grant of
  // every request is an event of its own in the probed run.
  EXPECT_GE(probed.events - probed.probe_events, plain.events + plain.requests);
}

// The other half of the rule: a grant runs in place only when nothing else
// is due now. Here a DMA on the same endpoint is due at the instant a
// request's parse event runs, scheduled after it. Queued, the request's PU
// grant and then its DMA grant run after that DMA has reached the link and
// the memory, so the competing DMA completes exactly as it does alone.
SimTime CompetingDmaDone(Verb verb, bool with_request) {
  EngineHarness h;
  SimTime parsed = 0;
  {
    EngineHarness first;
    first.engine_.HandleRequest(first.soc_, verb, 0, 4096, 1.0, first.NetOut(),
                                [](SimTime) {});
    parsed = first.sim_.next_event_time();  // the parse event is all that is queued
  }
  if (with_request) {
    h.engine_.HandleRequest(h.soc_, verb, 0, 4096, 1.0, h.NetOut(), [](SimTime) {});
  }
  SimTime done = -1;
  h.sim_.At(parsed, [&h, &done, verb] {
    if (verb == Verb::kRead) {
      h.soc_->DmaRead(1 << 20, 4096, [&done](SimTime t) { done = t; });
    } else {
      h.soc_->DmaWrite(1 << 20, 4096, [&done](SimTime t) { done = t; });
    }
  });
  h.sim_.Run();
  return done;
}

TEST(NicEngine, TailIssuedGrantsWaitForEventsDueNow) {
  for (const Verb verb : {Verb::kRead, Verb::kWrite}) {
    EXPECT_EQ(CompetingDmaDone(verb, true), CompetingDmaDone(verb, false))
        << (verb == Verb::kRead ? "READ" : "WRITE");
  }
}

}  // namespace
}  // namespace snicsim

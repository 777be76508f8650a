#include "src/nic/endpoint.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mem/memory.h"
#include "src/pcie/link.h"
#include "src/pcie/path.h"

namespace snicsim {
namespace {

// A one-link endpoint harness: NIC --link--> memory.
class EndpointHarness {
 public:
  EndpointHarness(MemoryParams mem_params, uint32_t mtu, NicParams nic_params = {},
                  SimTime link_prop = FromNanos(100))
      : nic_params_(nic_params),
        link_(&sim_, "pcie", Bandwidth::Gbps(256), link_prop),
        mem_(&sim_, "mem", mem_params) {
    EndpointParams ep;
    ep.name = "ep";
    ep.pcie_mtu = mtu;
    PciePath to_mem;
    to_mem.Add(&link_, LinkDir::kDown);
    ep_ = std::make_unique<NicEndpoint>(&sim_, nic_params_, ep, to_mem, &mem_);
  }

  Simulator sim_;
  NicParams nic_params_;
  PcieLink link_;
  MemorySubsystem mem_;
  std::unique_ptr<NicEndpoint> ep_;
};

TEST(NicEndpoint, SmallReadRoundTrip) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  SimTime done = -1;
  h.ep_->DmaRead(0, 64, [&](SimTime t) { done = t; });
  h.sim_.Run();
  // Control TLP down + memory + completion back: several hundred ns.
  EXPECT_GT(done, FromNanos(200));
  EXPECT_LT(done, FromMicros(2));
  EXPECT_EQ(h.link_.counters(LinkDir::kDown).tlps, 1u);  // read request
  EXPECT_EQ(h.link_.counters(LinkDir::kUp).tlps, 1u);    // one completion TLP
}

TEST(NicEndpoint, ReadSegmentsAtEndpointMtu) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  h.ep_->DmaRead(0, 4096, [](SimTime) {});
  h.sim_.Run();
  EXPECT_EQ(h.link_.counters(LinkDir::kUp).tlps, 32u);  // 4096 / 128
}

TEST(NicEndpoint, HostMtuFewerTlps) {
  EndpointHarness h(MemoryParams::Host(), kHostPcieMtu);
  h.ep_->DmaRead(0, 4096, [](SimTime) {});
  h.sim_.Run();
  EXPECT_EQ(h.link_.counters(LinkDir::kUp).tlps, 8u);  // 4096 / 512
}

TEST(NicEndpoint, LargeReadSplitsIntoSubRequests) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  h.ep_->DmaRead(0, 64 * 1024, [](SimTime) {});
  h.sim_.Run();
  // 64 KB / 4 KB max_read_request = 16 read-request TLPs.
  EXPECT_EQ(h.link_.counters(LinkDir::kDown).tlps, 16u);
  EXPECT_EQ(h.ep_->reads_issued(), 16u);
  EXPECT_EQ(h.ep_->hol_events(), 0u);
}

TEST(NicEndpoint, HolTriggersAboveThresholdOnSmallMtu) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  h.ep_->DmaRead(0, 10 * kMiB, [](SimTime) {});
  h.sim_.Run();
  EXPECT_EQ(h.ep_->hol_events(), 1u);
}

TEST(NicEndpoint, NoHolOnHostMtu) {
  EndpointHarness h(MemoryParams::Host(), kHostPcieMtu);
  h.ep_->DmaRead(0, 10 * kMiB, [](SimTime) {});
  h.sim_.Run();
  EXPECT_EQ(h.ep_->hol_events(), 0u);
}

TEST(NicEndpoint, HolCollapsesLargeReadBandwidth) {
  // Same payload, just above vs just below the 9 MB threshold. A realistic
  // path latency makes the degraded stop-and-wait window visible.
  const SimTime prop = FromNanos(400);
  EndpointHarness below(MemoryParams::Soc(), kSocPcieMtu, {}, prop);
  SimTime t_below = 0;
  below.ep_->DmaRead(0, 8 * kMiB, [&](SimTime t) { t_below = t; });
  below.sim_.Run();
  const double gbps_below = 8.0 * kMiB * 8 / ToNanos(t_below);

  EndpointHarness above(MemoryParams::Soc(), kSocPcieMtu, {}, prop);
  SimTime t_above = 0;
  above.ep_->DmaRead(0, 10 * kMiB, [&](SimTime t) { t_above = t; });
  above.sim_.Run();
  const double gbps_above = 10.0 * kMiB * 8 / ToNanos(t_above);

  EXPECT_GT(gbps_below, 1.4 * gbps_above);  // the paper's collapse
}

TEST(NicEndpoint, PostedWriteCompletesBeforeMemoryCommit) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  SimTime posted = -1;
  h.ep_->DmaWrite(0, 64, [&](SimTime t) { posted = t; });
  h.sim_.Run();
  EXPECT_GT(posted, 0);
  // Posted means "delivered at endpoint", well under a read round trip plus
  // memory service.
  SimTime read_done = -1;
  EndpointHarness h2(MemoryParams::Soc(), kSocPcieMtu);
  h2.ep_->DmaRead(0, 64, [&](SimTime t) { read_done = t; });
  h2.sim_.Run();
  EXPECT_LT(posted, read_done);
}

TEST(NicEndpoint, WriteCreditsBackpressureSlowMemory) {
  // Writes outrun the single-channel SoC memory: with bounded credits the
  // Nth write's posted-time reflects memory-side absorption.
  NicParams tight;
  tight.write_credits = 4;
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu, tight);
  SimTime last_posted = 0;
  const int kWrites = 200;
  int done = 0;
  for (int i = 0; i < kWrites; ++i) {
    h.ep_->DmaWrite(static_cast<uint64_t>(i) * 64, 64, [&](SimTime t) {
      last_posted = std::max(last_posted, t);
      ++done;
    });
  }
  h.sim_.Run();
  EXPECT_EQ(done, kWrites);
  // 200 writes to one bank at ~44 ns bank service cannot post faster than
  // the memory absorbs once credits run out.
  EXPECT_GT(last_posted, FromNanos(200 * 30));
}

TEST(NicEndpoint, LargeWriteToSmallMtuDegrades) {
  const SimTime prop = FromNanos(400);
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu, {}, prop);
  SimTime t_small = 0;
  h.ep_->DmaWrite(0, 8 * kMiB, [&](SimTime t) { t_small = t; },
                  /*single_descriptor=*/true);
  h.sim_.Run();
  const double gbps_small = 8.0 * kMiB * 8 / ToNanos(t_small);

  EndpointHarness h2(MemoryParams::Soc(), kSocPcieMtu, {}, prop);
  SimTime t_big = 0;
  h2.ep_->DmaWrite(0, 10 * kMiB, [&](SimTime t) { t_big = t; },
                   /*single_descriptor=*/true);
  h2.sim_.Run();
  const double gbps_big = 10.0 * kMiB * 8 / ToNanos(t_big);
  EXPECT_GT(gbps_small, 1.3 * gbps_big);
  EXPECT_EQ(h2.ep_->hol_events(), 1u);
}

TEST(NicEndpoint, ControlRttIsTwiceBaseLatency) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  EXPECT_EQ(h.ep_->ControlRtt(), 2 * FromNanos(100));
}

TEST(NicEndpoint, ZeroLengthReadStillCompletes) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  SimTime done = -1;
  h.ep_->DmaRead(0, 0, [&](SimTime t) { done = t; });
  h.sim_.Run();
  EXPECT_GT(done, 0);
}

// One HoL stream through the endpoint: a 10 MiB read on the degraded
// window with two reads queued behind it.
struct HolStreamRun {
  std::vector<SimTime> done;        // each op's completion time
  std::vector<SimTime> event_times;  // every distinct dispatch time
  LinkCounters down, up;
  SimTime busy_down = 0;
  SimTime busy_up = 0;
  uint64_t dram_accesses = 0;
  uint64_t reads_issued = 0;
  uint64_t events = 0;
  uint64_t probes = 0;
};

// `probe_at`: times at which a no-op event must already be pending when
// the events scheduled for that time run. The no-op is scheduled 1 ps
// earlier, so it takes a later seq than every completion due then.
HolStreamRun RunHolStream(const std::vector<SimTime>& probe_at) {
  EndpointHarness h(MemoryParams::Soc(), kSocPcieMtu);
  HolStreamRun r;
  r.done.assign(3, -1);
  h.sim_.At(0, [&] {
    h.ep_->DmaRead(0, 10 * kMiB, [&](SimTime t) { r.done[0] = t; });
    h.ep_->DmaRead(64 * kMiB, 64 * kKiB, [&](SimTime t) { r.done[1] = t; });
  });
  h.sim_.At(FromMicros(1), [&] {
    h.ep_->DmaRead(96 * kMiB, 8 * kKiB, [&](SimTime t) { r.done[2] = t; });
  });
  Simulator* const sim = &h.sim_;
  for (const SimTime t : probe_at) {
    if (t > 0) {
      sim->At(t - 1, [sim, t] { sim->At(t, [] {}); });
      ++r.probes;
    }
  }
  while (!sim->empty()) {
    const SimTime t = sim->next_event_time();
    r.event_times.push_back(t);
    sim->RunUntil(t);
  }
  r.down = h.link_.counters(LinkDir::kDown);
  r.up = h.link_.counters(LinkDir::kUp);
  r.busy_down = h.link_.BusyTime(LinkDir::kDown);
  r.busy_up = h.link_.BusyTime(LinkDir::kUp);
  r.dram_accesses = h.mem_.dram_accesses();
  r.reads_issued = h.ep_->reads_issued();
  r.events = sim->processed();
  return r;
}

// Tail-issued grants (DESIGN.md §8) change how many events run, never what
// they do. A no-op pending at every dispatch time of the plain run forces
// every completion's pump back onto In(0) grants; completion times and
// every link and memory counter must not move.
TEST(NicEndpoint, TailIssuedGrantsMatchQueuedGrants) {
  const HolStreamRun plain = RunHolStream({});
  const HolStreamRun probed = RunHolStream(plain.event_times);
  ASSERT_EQ(plain.reads_issued, 2560u + 16u + 2u);
  EXPECT_EQ(probed.done, plain.done);
  EXPECT_EQ(probed.down.tlps, plain.down.tlps);
  EXPECT_EQ(probed.down.wire_bytes, plain.down.wire_bytes);
  EXPECT_EQ(probed.up.tlps, plain.up.tlps);
  EXPECT_EQ(probed.up.payload_bytes, plain.up.payload_bytes);
  EXPECT_EQ(probed.up.wire_bytes, plain.up.wire_bytes);
  EXPECT_EQ(probed.busy_down, plain.busy_down);
  EXPECT_EQ(probed.busy_up, plain.busy_up);
  EXPECT_EQ(probed.dram_accesses, plain.dram_accesses);
  EXPECT_EQ(probed.reads_issued, plain.reads_issued);
  // The probes really forced the queued branch: all but the first few
  // grants ran inline in the plain run, and every one is an event in the
  // probed run (two probe events per probed time aside).
  EXPECT_GE(probed.events - 2 * probed.probes, plain.events + plain.reads_issued - 8);
}

}  // namespace
}  // namespace snicsim

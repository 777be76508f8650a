// Pins the bytes of one traced run's Chrome trace: a BlueField server
// driven by a per-op client, a doorbell-batched client, a per-op H2S
// requester and a doorbell-batched S2H requester. Every span lane (the
// `<machine>.cpu<t>` post/doorbell tracks, NIC, PCIe, memory and the op
// wrappers), the request ids and the event order are diffed byte-for-byte
// against the golden, so a change in how a component names its lane or
// when it emits shows here.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/trace.h"
#include "src/sim/meter.h"
#include "src/topo/fabric.h"
#include "src/topo/server.h"
#include "src/topo/testbed_params.h"
#include "src/workload/addr_gen.h"
#include "src/workload/client.h"
#include "src/workload/local_requester.h"
#include "tests/golden/golden_check.h"

namespace snicsim {
namespace {

TEST(TraceGolden, ClientsAndRequestersTraceSpans) {
  Tracer tr(1 << 14);
  Simulator sim;
  sim.set_tracer(&tr);
  Fabric fabric(&sim);
  const TestbedParams tp;
  BluefieldServer bf(&sim, &fabric, tp);
  Meter meter(&sim);

  TargetSpec read_host;
  read_host.engine = &bf.nic();
  read_host.endpoint = bf.host_ep();
  read_host.server_port = bf.port();
  read_host.verb = Verb::kRead;
  read_host.payload = 64;
  TargetSpec write_soc = read_host;
  write_soc.endpoint = bf.soc_ep();
  write_soc.verb = Verb::kWrite;

  ClientParams per_op;
  per_op.threads = 2;
  per_op.window = 2;
  ClientMachine cli0(&sim, &fabric, per_op, "cli0");
  cli0.Start(read_host, AddressGenerator(0, 1 * kMiB, 64, 1), &meter);

  ClientParams batched;
  batched.threads = 1;
  batched.window = 1;
  batched.doorbell_batch = true;
  batched.batch = 4;
  ClientMachine cli1(&sim, &fabric, batched, "cli1");
  cli1.Start(write_soc, AddressGenerator(0, 1 * kMiB, 64, 2), &meter);

  LocalRequesterParams h2s_p = LocalRequesterParams::Host();
  h2s_p.threads = 2;
  h2s_p.window = 1;
  LocalRequester h2s(&sim, &bf.nic(), bf.host_ep(), bf.soc_ep(), h2s_p, "h2s");
  h2s.Start(Verb::kWrite, 64, AddressGenerator(0, 1 * kMiB, 64, 3), &meter);

  LocalRequesterParams s2h_p = LocalRequesterParams::Soc();
  s2h_p.threads = 1;
  s2h_p.window = 1;
  s2h_p.doorbell_batch = true;
  s2h_p.batch = 4;
  LocalRequester s2h(&sim, &bf.nic(), bf.soc_ep(), bf.host_ep(), s2h_p, "s2h");
  s2h.Start(Verb::kRead, 64, AddressGenerator(0, 1 * kMiB, 64, 4), &meter);

  sim.RunUntil(FromMicros(6));
  ASSERT_EQ(tr.dropped(), 0u);
  ASSERT_GT(meter.ops(), 0u);
  std::ostringstream os;
  tr.WriteChromeJson(os);
  CheckGolden("trace_spans.golden", os.str());
}

}  // namespace
}  // namespace snicsim

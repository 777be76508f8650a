// End-to-end observability: a traced SNIC(1) READ must decompose into the
// exact span ladder of Fig. 3 (NIC -> PCIe1 -> switch -> PCIe0 -> host DRAM
// and back), the critical-path phases must tile the op exactly, the
// harness's exported files must be byte-identical across runs, and every
// Measure* entry point and RunServing must honour their sinks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/governor/serving.h"
#include "src/obs/trace.h"
#include "src/topo/fabric.h"
#include "src/topo/server.h"
#include "src/topo/testbed_params.h"
#include "src/workload/client.h"
#include "src/workload/harness.h"

namespace snicsim {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

// Runs one uncontended 64 B READ against the BlueField host endpoint with a
// tracer attached and returns all events.
std::vector<Tracer::Event> TraceOneRead(SimTime* completed) {
  Tracer tr(1 << 12);
  Simulator sim;
  sim.set_tracer(&tr);
  Fabric fabric(&sim);
  const TestbedParams tp;
  BluefieldServer bf(&sim, &fabric, tp);
  ClientParams cp;
  cp.threads = 1;
  cp.window = 1;
  ClientMachine cli(&sim, &fabric, cp, "cli0");
  TargetSpec target;
  target.engine = &bf.nic();
  target.endpoint = bf.host_ep();
  target.server_port = bf.port();
  target.verb = Verb::kRead;
  target.payload = 64;
  cli.Post(0, target, /*addr=*/4096, [completed](SimTime c, bool ok) {
    EXPECT_TRUE(ok);
    *completed = c;
  });
  sim.Run();
  return tr.Events();
}

TEST(Observability, ReadDecomposesIntoDeterministicSpanLadder) {
  SimTime completed = 0;
  const auto events = TraceOneRead(&completed);
  ASSERT_GT(completed, 0);

  // Exactly one op wrapper, for request id 1.
  std::vector<Tracer::Event> phases;
  const Tracer::Event* op = nullptr;
  for (const auto& e : events) {
    if (e.cat == TraceCat::kOp) {
      ASSERT_EQ(op, nullptr) << "more than one op span";
      op = &e;
    } else if (e.cat == TraceCat::kPhase && e.req_id == 1) {
      phases.push_back(e);
    }
  }
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->req_id, 1u);
  EXPECT_EQ(op->start + op->dur, completed);

  // The phases tile [issue, completion] exactly: sorted by start, each
  // begins where the previous ended, and the durations sum to the
  // end-to-end latency with zero error.
  std::sort(phases.begin(), phases.end(),
            [](const Tracer::Event& a, const Tracer::Event& b) { return a.start < b.start; });
  ASSERT_GE(phases.size(), 10u);
  EXPECT_EQ(phases.front().start, op->start);
  SimTime cursor = op->start;
  SimTime sum = 0;
  for (const auto& p : phases) {
    EXPECT_EQ(p.start, cursor) << "gap/overlap before " << p.name;
    cursor = p.start + p.dur;
    sum += p.dur;
  }
  EXPECT_EQ(cursor, completed);
  EXPECT_EQ(sum, op->dur);

  // Fig. 3's SmartNIC ladder, in order: NIC front-end parse, PCIe1 up,
  // switch, PCIe0 down, host read completer, host DRAM, then the response
  // retraces PCIe0 up -> switch -> PCIe1 down.
  const std::vector<std::string> ladder = {
      "/parse",                "bf_srv.pcie1/up",   "bf_srv.psw/forward",
      "bf_srv.pcie0/down",     "/read_completer",   "bf_srv.hostmem/read",
      "bf_srv.pcie0/up",       "bf_srv.psw/forward", "bf_srv.pcie1/down",
  };
  size_t pos = 0;
  for (const auto& want : ladder) {
    while (pos < phases.size() && phases[pos].name.find(want) == std::string::npos) {
      ++pos;
    }
    ASSERT_LT(pos, phases.size()) << "missing ladder step " << want;
    ++pos;
  }
}

TEST(Observability, TwoIdenticalRunsProduceIdenticalEvents) {
  SimTime c1 = 0, c2 = 0;
  const auto e1 = TraceOneRead(&c1);
  const auto e2 = TraceOneRead(&c2);
  EXPECT_EQ(c1, c2);
  ASSERT_EQ(e1.size(), e2.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].name, e2[i].name) << i;
    EXPECT_EQ(e1[i].start, e2[i].start) << i;
    EXPECT_EQ(e1[i].dur, e2[i].dur) << i;
    EXPECT_EQ(e1[i].req_id, e2[i].req_id) << i;
  }
  // Nothing in the trace extends past the op completion.
  SimTime last = 0;
  for (const auto& e : e1) {
    last = std::max(last, e.start + e.dur);
  }
  EXPECT_EQ(last, c1);
}

TEST(Observability, HarnessExportsAreByteIdenticalAndSumToP50) {
  const std::string dir = ::testing::TempDir();
  HarnessConfig cfg = HarnessConfig::Latency();
  cfg.trace_path = dir + "obs_t1.json";
  cfg.metrics_path = dir + "obs_m1.json";
  const Measurement m1 = MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, 64, cfg);

  HarnessConfig cfg2 = cfg;
  cfg2.trace_path = dir + "obs_t2.json";
  cfg2.metrics_path = dir + "obs_m2.json";
  const Measurement m2 = MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, 64, cfg2);

  EXPECT_DOUBLE_EQ(m1.p50_us, m2.p50_us);
  const std::string t1 = ReadFile(cfg.trace_path);
  EXPECT_EQ(t1, ReadFile(cfg2.trace_path)) << "trace files differ between runs";
  EXPECT_EQ(ReadFile(cfg.metrics_path), ReadFile(cfg2.metrics_path))
      << "metrics files differ between runs";

  // Median op-span duration == the harness's reported p50 within 1%.
  std::vector<double> op_durs;
  size_t pos = 0;
  while ((pos = t1.find("\"cat\":\"op\"", pos)) != std::string::npos) {
    const size_t d = t1.find("\"dur\":", pos);
    ASSERT_NE(d, std::string::npos);
    op_durs.push_back(std::stod(t1.substr(d + 6)));
    pos = d;
  }
  ASSERT_GT(op_durs.size(), 10u);
  std::sort(op_durs.begin(), op_durs.end());
  const double median = op_durs[op_durs.size() / 2];
  EXPECT_NEAR(median, m1.p50_us, 0.01 * m1.p50_us);

  // The metrics dump covers the whole component graph.
  const std::string metrics = ReadFile(cfg.metrics_path);
  for (const char* key :
       {"bf_srv.pcie1.up.wire_bytes", "bf_srv.psw.forwards", "bf_srv.hostmem.dram_accesses",
        "bf_srv.host.dma_reads", "cli0.doorbells"}) {
    EXPECT_NE(metrics.find(std::string("\"") + key + "\""), std::string::npos)
        << "metrics dump missing " << key;
  }
}

// Every bit of a measurement, doubles in hex, for exact comparison.
std::string Bits(const Measurement& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%a %a %a %a %llu %a %a %a %llu %llu %llu", m.mreqs, m.gbps,
                m.p50_us, m.p99_us, static_cast<unsigned long long>(m.ops), m.pcie0_mpps,
                m.pcie1_mpps, m.pcie_total_mpps,
                static_cast<unsigned long long>(m.retransmits),
                static_cast<unsigned long long>(m.op_failures),
                static_cast<unsigned long long>(m.frames_dropped));
  return buf;
}

std::string Bits(double gbps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", gbps);
  return buf;
}

// Each Measure* entry point writes both sink files when asked, the dump
// holds the server's rows and its load's rows, and attaching the sinks
// leaves the returned result bit-identical to the sink-free call.
TEST(Observability, EveryMeasureEntryPointHonoursItsSinks) {
  struct Entry {
    const char* name;
    const char* server_row;
    const char* load_row;
    std::function<std::string(const HarnessConfig&)> run;
  };
  const Entry entries[] = {
      {"MeasureInboundPath", "rnic_srv.", "cli0.",
       [](const HarnessConfig& c) {
         return Bits(MeasureInboundPath(ServerKind::kRnicHost, Verb::kRead, 64, c));
       }},
      {"MeasureConcurrentInbound", "bf_srv.", "cli1.",
       [](const HarnessConfig& c) {
         return Bits(MeasureConcurrentInbound(Verb::kWrite, 64, c));
       }},
      {"MeasureLocalPath", "bf_srv.", "s2h.",
       [](const HarnessConfig& c) {
         return Bits(MeasureLocalPath(true, Verb::kWrite, 64, LocalRequesterParams::Soc(), c));
       }},
      {"MeasureInterference", "bf_srv.", "h2s.",
       [](const HarnessConfig& c) {
         return Bits(MeasureInterference(Verb::kRead, 64, true, c));
       }},
      {"MeasureFlowCombination", "bf_srv.", "cli0.",
       [](const HarnessConfig& c) {
         return Bits(MeasureFlowCombination(ServerKind::kBluefieldHost, Verb::kRead,
                                            Verb::kWrite, 4096, c));
       }},
      {"MeasureLocalFlowCombination", "bf_srv.", "h2s2.",
       [](const HarnessConfig& c) { return Bits(MeasureLocalFlowCombination(false, 4096, c)); }},
  };
  HarnessConfig plain = HarnessConfig::Latency();
  plain.client_machines = 2;
  plain.warmup = FromMicros(10);
  plain.window = FromMicros(40);
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.name);
    HarnessConfig sinked = plain;
    sinked.trace_path = ::testing::TempDir() + "sinks_" + e.name + ".trace.json";
    sinked.metrics_path = ::testing::TempDir() + "sinks_" + e.name + ".metrics.json";
    std::remove(sinked.trace_path.c_str());
    std::remove(sinked.metrics_path.c_str());
    EXPECT_EQ(e.run(sinked), e.run(plain));
    EXPECT_TRUE(std::ifstream(sinked.trace_path).good()) << "no trace file";
    const std::string metrics = ReadFile(sinked.metrics_path);
    EXPECT_NE(metrics.find(std::string("\"") + e.server_row), std::string::npos)
        << "metrics dump has no server row";
    EXPECT_NE(metrics.find(std::string("\"") + e.load_row), std::string::npos)
        << "metrics dump has no load row";
  }
}

// RunServing's sinks ride the same testbed: attaching them changes no
// result bit, and both files come out byte-identical across runs.
TEST(Observability, ServingSinksLeaveTheRunUnchanged) {
  governor::ServingRunConfig plain;
  plain.client.threads = 4;
  plain.fleet.machines = 2;
  plain.fleet.logical_clients = 64;
  plain.layout.keys = 4096;
  plain.layout.cached_keys = 1024;
  plain.layout.class_bytes = {64, 1024};
  plain.mix.weights = {0.5, 0.5};
  plain.warmup = FromMicros(20);
  plain.window = FromMicros(60);
  plain.faults.drop_rate = 0.01;
  plain.faults.seed = 7;
  plain.resil.deadline = FromMicros(40);
  const std::string reference = governor::RunServing(plain).Fingerprint();

  std::string files[2][2];
  for (int run = 0; run < 2; ++run) {
    governor::ServingRunConfig sinked = plain;
    const std::string stem = ::testing::TempDir() + "serving_sinks" + std::to_string(run);
    sinked.trace_path = stem + ".trace.json";
    sinked.metrics_path = stem + ".metrics.json";
    EXPECT_EQ(governor::RunServing(sinked).Fingerprint(), reference);
    files[run][0] = ReadFile(sinked.trace_path);
    files[run][1] = ReadFile(sinked.metrics_path);
  }
  EXPECT_NE(files[0][0].find("\"cat\":\"op\""), std::string::npos);
  EXPECT_NE(files[0][1].find("\"bf_srv."), std::string::npos);
  EXPECT_NE(files[0][1].find("\"fleet."), std::string::npos);
  EXPECT_EQ(files[0][0], files[1][0]) << "trace files differ between runs";
  EXPECT_EQ(files[0][1], files[1][1]) << "metrics files differ between runs";
}

TEST(Observability, UntracedRunsEmitNothing) {
  // No tracer attached: the same experiment must run and leave no trace
  // artifacts (the zero-overhead-when-disabled contract compiles down to a
  // null check; this guards the wiring, perf is covered by micro_simcore).
  const Measurement m =
      MeasureInboundPath(ServerKind::kBluefieldHost, Verb::kRead, 64, HarnessConfig::Latency());
  EXPECT_GT(m.p50_us, 0.0);
}

}  // namespace
}  // namespace snicsim

// The tentpole guarantee: a sweep run with --jobs=N produces byte-identical
// CSV, trace, and metrics output to the serial run, for any N — and a
// multi-domain rack sweep does so for any --sim-threads count too (DESIGN.md
// §12). The two knobs parallelize at different layers (whole experiments vs
// domains inside one experiment) and compose multiplicatively, so the rack
// tests here compare fingerprints across the (jobs, sim_threads)
// cross-product. Sweeps run fault-free, under an active fault schedule and,
// for the rack, through a crash window (each sweep point owns its injector,
// so worker interleaving must never leak into the fault draws).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/fault/plan.h"
#include "src/runtime/sweep_runner.h"
#include "src/topo/rack_kv.h"
#include "src/workload/harness.h"

namespace snicsim {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct SweepArtifacts {
  std::string csv;
  std::vector<std::string> traces;
  std::vector<std::string> metrics;
};

// A miniature fig4-style sweep: kinds x payloads, each point a fresh
// experiment with its own trace + metrics sinks. Mirrors the two-pass
// pattern the bench mains use: submit in table order, run, then consume
// results in the same order.
SweepArtifacts RunMiniSweep(int jobs, const std::string& tag,
                            const std::string& faults_spec = "") {
  const ServerKind kinds[] = {ServerKind::kRnicHost, ServerKind::kBluefieldSoc};
  const uint32_t payloads[] = {64, 512};

  HarnessConfig base;
  base.client_machines = 2;
  base.client.threads = 2;
  base.warmup = FromMicros(5);
  base.window = FromMicros(20);
  if (!faults_spec.empty()) {
    std::string error;
    EXPECT_TRUE(fault::ParseFaultPlan(faults_spec, &base.faults, &error)) << error;
    // Keep retransmission rounds inside the short run.
    base.client.transport_timeout = FromMicros(6);
  }

  SweepArtifacts out;
  runtime::SweepQueue<Measurement> sweep(jobs);
  for (const ServerKind kind : kinds) {
    for (const uint32_t payload : payloads) {
      HarnessConfig cfg = base;
      cfg.trace_path = testing::TempDir() + "/sweep_" + tag + "_" +
                       ServerKindName(kind) + "_" + std::to_string(payload) +
                       ".trace.json";
      cfg.metrics_path = testing::TempDir() + "/sweep_" + tag + "_" +
                         ServerKindName(kind) + "_" + std::to_string(payload) +
                         ".metrics.json";
      out.traces.push_back(cfg.trace_path);
      out.metrics.push_back(cfg.metrics_path);
      sweep.Add([kind, payload, cfg] {
        return MeasureInboundPath(kind, Verb::kRead, payload, cfg);
      });
    }
  }
  const std::vector<Measurement> results = sweep.Run();

  Table table({"path", "payload", "mreqs", "gbps", "p50_us", "p99_us", "retx",
               "frames_lost"});
  size_t k = 0;
  for (const ServerKind kind : kinds) {
    for (const uint32_t payload : payloads) {
      const Measurement& m = results[k++];
      table.Row()
          .Add(ServerKindName(kind))
          .Add(static_cast<uint64_t>(payload))
          .Add(m.mreqs, 3)
          .Add(m.gbps, 2)
          .Add(m.p50_us, 2)
          .Add(m.p99_us, 2)
          .Add(m.retransmits)
          .Add(m.frames_dropped);
    }
  }
  std::ostringstream csv;
  table.PrintCsv(csv);
  out.csv = csv.str();
  return out;
}

TEST(SweepDeterminism, ParallelSweepIsByteIdenticalToSerial) {
  const SweepArtifacts serial = RunMiniSweep(1, "j1");
  const SweepArtifacts parallel = RunMiniSweep(8, "j8");

  EXPECT_FALSE(serial.csv.empty());
  EXPECT_EQ(serial.csv, parallel.csv);

  ASSERT_EQ(serial.traces.size(), parallel.traces.size());
  for (size_t i = 0; i < serial.traces.size(); ++i) {
    const std::string a = ReadFile(serial.traces[i]);
    const std::string b = ReadFile(parallel.traces[i]);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << serial.traces[i] << " vs " << parallel.traces[i];
  }
  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (size_t i = 0; i < serial.metrics.size(); ++i) {
    const std::string a = ReadFile(serial.metrics[i]);
    const std::string b = ReadFile(parallel.metrics[i]);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << serial.metrics[i] << " vs " << parallel.metrics[i];
  }
}

TEST(SweepDeterminism, RepeatedParallelRunsAgree) {
  const SweepArtifacts a = RunMiniSweep(8, "r1");
  const SweepArtifacts b = RunMiniSweep(8, "r2");
  EXPECT_EQ(a.csv, b.csv);
}

// The fault layer must not break the guarantee: per-point injectors with
// per-link RNG streams mean job count cannot perturb which frames drop.
constexpr char kFaultSpec[] = "drop=0.02,seed=9,flap=bf_srv.port:8:12";

TEST(SweepDeterminism, FaultedParallelSweepIsByteIdenticalToSerial) {
  const SweepArtifacts serial = RunMiniSweep(1, "fj1", kFaultSpec);
  const SweepArtifacts parallel = RunMiniSweep(8, "fj8", kFaultSpec);
  EXPECT_FALSE(serial.csv.empty());
  EXPECT_EQ(serial.csv, parallel.csv);
  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (size_t i = 0; i < serial.metrics.size(); ++i) {
    const std::string a = ReadFile(serial.metrics[i]);
    const std::string b = ReadFile(parallel.metrics[i]);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b) << serial.metrics[i];
    EXPECT_NE(a.find("faults.frames_dropped"), std::string::npos) << serial.metrics[i];
  }
  ASSERT_EQ(serial.traces.size(), parallel.traces.size());
  for (size_t i = 0; i < serial.traces.size(); ++i) {
    EXPECT_EQ(ReadFile(serial.traces[i]), ReadFile(parallel.traces[i]))
        << serial.traces[i];
  }
}

TEST(SweepDeterminism, FaultedRunDiffersFromFaultFreeRun) {
  const SweepArtifacts clean = RunMiniSweep(1, "c");
  const SweepArtifacts faulted = RunMiniSweep(1, "f", kFaultSpec);
  EXPECT_NE(clean.csv, faulted.csv);
}

// A mini sweep over the genuinely multi-domain rack workload: several rack
// configurations fanned across a SweepQueue, each point itself sharded
// across sim_threads event cores. Joined fingerprints must be byte-identical
// at every (jobs, sim_threads) combination.
std::string RackSweepFingerprints(int jobs, int sim_threads,
                                  const std::string& faults_spec = "") {
  runtime::SweepQueue<std::string> sweep(jobs);
  for (const int servers : {2, 4}) {
    for (const uint64_t seed : {1ull, 7ull}) {
      RackKvParams p;
      p.servers = servers;
      p.users = 400 * static_cast<uint64_t>(servers);
      p.think_mean_us = 500.0;
      p.layout.keys = 2048;
      p.layout.cached_keys = 512;
      p.layout.class_bytes = {64, 512, 2048};
      p.window = FromMicros(120);
      p.seed = seed;
      p.sim_threads = sim_threads;
      if (!faults_spec.empty()) {
        std::string error;
        EXPECT_TRUE(fault::ParseFaultPlan(faults_spec, &p.faults, &error))
            << error;
      }
      sweep.Add([p] { return RunRackKv(p).Fingerprint(); });
    }
  }
  std::string joined;
  for (const std::string& fp : sweep.Run()) {
    joined += fp;
    joined.push_back('\n');
  }
  return joined;
}

constexpr char kRackFaultSpec[] = "drop=0.05,seed=7,flap=rack.s0.up:20:60";
constexpr char kRackCrashSpec[] = "drop=0.02,seed=9,crash=soc:40:90:10";

TEST(SweepDeterminism, RackSweepInvariantAcrossJobsAndSimThreads) {
  const std::string base = RackSweepFingerprints(1, 1);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, RackSweepFingerprints(1, 4));
  EXPECT_EQ(base, RackSweepFingerprints(8, 1));
  EXPECT_EQ(base, RackSweepFingerprints(8, 4));
}

TEST(SweepDeterminism, FaultedRackSweepInvariantAcrossJobsAndSimThreads) {
  const std::string base = RackSweepFingerprints(1, 1, kRackFaultSpec);
  EXPECT_EQ(base, RackSweepFingerprints(8, 4, kRackFaultSpec));
  EXPECT_EQ(base, RackSweepFingerprints(4, 2, kRackFaultSpec));
  EXPECT_NE(base, RackSweepFingerprints(1, 1));  // the plan actually bit
}

TEST(SweepDeterminism, CrashWindowRackSweepInvariantAcrossJobsAndSimThreads) {
  const std::string base = RackSweepFingerprints(1, 1, kRackCrashSpec);
  EXPECT_EQ(base, RackSweepFingerprints(8, 4, kRackCrashSpec));
  EXPECT_EQ(base, RackSweepFingerprints(2, 8, kRackCrashSpec));
  EXPECT_NE(base, RackSweepFingerprints(1, 1));  // the window actually bit
}

}  // namespace
}  // namespace snicsim

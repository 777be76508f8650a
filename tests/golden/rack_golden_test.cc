// Numeric regression pin for the rack-scale sharded KV (src/topo/rack_kv.h):
// the complete RackKvResult fingerprint of a small rack under one config per
// rack plane — routing and failover, serving-side admission, replication,
// membership change with corruption repair, and trace shaping — diffed
// byte-for-byte against tests/golden/data/rack.golden. The replay and
// thread-invariance suites only compare runs with each other; this file is
// the one that catches a drift every run shares.
#include <gtest/gtest.h>

#include <string>

#include "src/fault/plan.h"
#include "src/topo/rack_kv.h"
#include "tests/golden/golden_check.h"

namespace snicsim {
namespace {

// The property suite's SmallRack (tests/topo/rack_kv_test.cc).
RackKvParams SmallRack() {
  RackKvParams p;
  p.servers = 3;
  p.users = 1500;
  p.think_mean_us = 500.0;
  p.zipf_theta = 0.9;
  p.layout.keys = 4096;
  p.layout.cached_keys = 1024;
  p.layout.class_bytes = {64, 512, 2048};
  p.mix = {0.70, 0.25, 0.05};
  p.window = FromMicros(150);
  p.seed = 42;
  return p;
}

RackKvParams WithFaults(RackKvParams p, const std::string& spec) {
  std::string error;
  EXPECT_TRUE(fault::ParseFaultPlan(spec, &p.faults, &error)) << error;
  return p;
}

TEST(GoldenRack, FingerprintPerPlane) {
  std::string out;
  auto pin = [&out](const char* label, const RackKvParams& p) {
    const RackKvResult r = RunRackKv(p);
    EXPECT_TRUE(r.Conserved()) << label;
    out += std::string(label) + " " + r.Fingerprint() + "\n";
  };

  pin("clean", SmallRack());
  pin("drop_flap", WithFaults(SmallRack(), "drop=0.05,seed=7,flap=rack.s0.up:20:60"));
  pin("shard_crash", WithFaults(SmallRack(), "crash=rack.s1:40:110:10,seed=9"));

  RackKvParams retry = SmallRack();
  retry.request_timeout = FromMicros(6);
  retry.max_attempts = 3;
  pin("retry_exhaustion", retry);

  RackKvParams shed = SmallRack();
  shed.resil.shedding = true;
  shed.resil.bucket_mops = 2.0;
  shed.resil.bucket_depth = 4.0;
  pin("shedding", shed);

  RackKvParams repl = SmallRack();
  repl.repl_timeout = FromMicros(3);
  pin("repl_stale", repl);

  RackKvParams member = SmallRack();
  member.servers = 4;
  member.window = FromMicros(400);
  member.membership.enabled = true;
  member.membership.scrub_keys_per_epoch = 1024;
  member = WithFaults(member, "permloss=rack.s1:60,corrupt=rack.s2:80:0.2,seed=9");
  pin("permloss_corrupt", member);

  RackKvParams shaped = SmallRack();
  shaped.trace.version = 1;
  shaped.trace.duration_us = ToMicros(shaped.window);
  shaped.trace.segments.push_back({0.0, 1.0, 0, 0.0, 1.0});
  shaped.trace.segments.push_back({60.0, 0.5, 97, 0.3, 1.0});
  pin("shaped_trace", shaped);

  CheckGolden("rack.golden", out);
}

}  // namespace
}  // namespace snicsim

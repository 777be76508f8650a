// Pins the full `--metrics` dump of one composed RunServing: governor
// routing with a fault injector, the resilience layer, one tenant and a
// load trace. Every conditional component then registers its rows —
// `faults.`, `resil.`, the tenant plane and `scale.` — so the dump's row
// order (server, executor, fleet, injector, resilience, tenants, scale) and
// each counter's final value are diffed byte-for-byte against the golden,
// and every scale.<name> row is checked against the returned result.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/governor/serving.h"
#include "src/offload/tenant_config.h"
#include "src/workload/trace/trace.h"
#include "tests/golden/golden_check.h"
#include "tests/common/metrics_dump.h"

namespace snicsim {
namespace governor {
namespace {

// Same miniature testbed as overload_golden_test.cc.
ServingRunConfig TinyServing() {
  ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 2;
  c.fleet.logical_clients = 128;
  c.fleet.seed = 42;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.warmup = FromMicros(20);
  c.window = FromMicros(100);
  return c;
}

TEST(GoldenServing, MetricsDump) {
  ServingRunConfig c = TinyServing();
  c.policy = PolicyKind::kGovernor;
  c.fleet.open_loop = true;
  c.fleet.open_mops = 4.0;
  c.faults.drop_rate = 0.01;
  c.faults.seed = 7;
  c.resil.deadline = FromMicros(40);
  c.resil.shedding = true;
  c.resil.codel_target = FromMicros(8);
  c.resil.codel_interval = FromMicros(20);
  std::string error;
  ASSERT_TRUE(offload::ParseTenantSet(
      "cores=2,host_cores=1,seed=7,tenant=agg:compress:2:0.2:4096:40", &c.tenants,
      &error))
      << error;
  ASSERT_TRUE(trace::ParseTracePlan("duration=120,seg=0:1,seg=60:2", &c.trace, &error))
      << error;
  c.metrics_path = testing::TempDir() + "/golden_serving_metrics.json";
  const ServingResult r = RunServing(c);

  std::ifstream in(c.metrics_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string dump = buf.str();
  for (const char* row : {"\"faults.", "\"resil.", "\"tenant.", "\"scale."}) {
    EXPECT_NE(dump.find(row), std::string::npos) << "dump has no " << row << " row";
  }
  CheckGolden("serving_metrics.golden", dump);

  // The scale rows are generated from the TraceRunResult rows marked as
  // dumped; each must carry the returned field's value.
  std::map<std::string, double> scale;
  for (const MetricsDumpRow& row : ReadMetricsDump(dump)) {
    if (row.name.starts_with("scale.")) {
      scale[row.name.substr(6)] = row.value;
    }
  }
  size_t dumped = 0;
  ForEachTraceCounter([&](const TraceCounterInfo& info, auto field) {
    if (!info.dumped) {
      return;
    }
    ++dumped;
    ASSERT_EQ(scale.count(info.name), 1u) << "scale." << info.name << " missing from the dump";
    EXPECT_EQ(scale[info.name], static_cast<double>(r.trace.*field)) << info.name;
  });
  EXPECT_EQ(scale.size(), dumped);
  EXPECT_GT(r.trace.violation_epochs, 0u);  // the rows carry live values
}

}  // namespace
}  // namespace governor
}  // namespace snicsim

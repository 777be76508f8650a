// The shape of snicbench's serve_tenants workload as one RunServing
// config, shared by the micro benchmark's setup row (BM_ServingSetup) and
// the setup allocation pin (tests/workload/setup_alloc_test.cc). It mirrors
// ServeWorkload in snicbench/snicbench.cc at seed 1; the caller sets the
// warmup and window.
#ifndef BENCH_SERVE_TENANTS_SHAPE_H_
#define BENCH_SERVE_TENANTS_SHAPE_H_

#include <string>

#include "src/common/log.h"
#include "src/governor/serving.h"

namespace snicsim {

// snicbench serve_tenants: 256 open-loop logical clients on 4 machines, the
// governor with deadlines and shedding, two tenant pipelines on a two-core
// SoC pool, the 12-segment diurnal trace stretched 60x and the autoscaler.
inline governor::ServingRunConfig ServeTenantsShape() {
  governor::ServingRunConfig c;
  c.client.threads = 4;
  c.fleet.machines = 4;
  c.fleet.logical_clients = 256;
  c.fleet.seed = 1;
  c.fleet.open_loop = true;
  c.fleet.open_mops = 4.0;
  c.layout.keys = 4096;
  c.layout.cached_keys = 1024;
  c.layout.class_bytes = {64, 128, 512, 1024};
  c.mix.weights = {0.25, 0.25, 0.25, 0.25};
  c.zipf_theta = 0.99;
  c.host_cores = 1;
  c.soc_cores = 2;
  c.policy = governor::PolicyKind::kGovernor;
  c.governor.seed = 1;
  c.governor.soc_inflight_cap = 1 << 20;
  c.resil.deadline = FromMicros(40);
  c.resil.shedding = true;
  c.resil.codel_target = FromMicros(8);
  c.resil.codel_interval = FromMicros(20);
  offload::TenantSetConfig& t = c.tenants;
  t.pools = {2};
  t.host_cores = 1;
  t.seed = 1;
  offload::TenantSpec compact;
  compact.id = "compact";
  compact.kind = offload::TenantKind::kCompress;
  compact.weight = 4;
  compact.mops = 0.18;
  compact.item_bytes = 4096;
  compact.slo_us = 30.0;
  offload::TenantSpec tele;
  tele.id = "tele";
  tele.kind = offload::TenantKind::kSketch;
  tele.weight = 1;
  tele.mops = 0.2;
  tele.item_bytes = 256;
  tele.slo_us = 30.0;
  t.tenants = {compact, tele};
  std::string error;
  SNIC_CHECK(trace::ParseTracePlan(
      "version=1,duration=72000,seg=0:0.3:0:0:3,seg=6000:0.3:0:0:3,seg=12000:0.6:0:0:2,"
      "seg=18000:0.9:0:0:1,seg=24000:1:0:0:0.5,seg=30000:1:2048:0:0.5,"
      "seg=36000:1.6:0:0:0.5,seg=42000:1.6:0:0:0.5,seg=48000:1:0:0.5:0.5,"
      "seg=54000:0.9:0:0:1,seg=60000:0.6:0:0:2,seg=66000:0.3:0:0:3",
      &c.trace, &error));
  c.scale.enabled = true;
  c.scale.slo_budget = 0.02;
  c.scale.min_serving_cores = 1;
  c.scale.min_pool_cores = 1;
  c.scale.util_high = 0.85;
  c.scale.util_low = 0.55;
  c.scale.hold_epochs = 3;
  c.scale.weights_scarce = {1, 1};
  c.scale.weights_ample = {4, 1};
  return c;
}

}  // namespace snicsim

#endif  // BENCH_SERVE_TENANTS_SHAPE_H_

#include "src/governor/serving.h"

#include <memory>
#include <utility>

#include "src/common/log.h"
#include "src/common/spec.h"
#include "src/governor/server_stack.h"
#include "src/sim/meter.h"

namespace snicsim {
namespace governor {

std::string ServingResult::Fingerprint() const {
  std::string s = policy;
  s.push_back('|');
  ForEachServingCounter([&](const char*, auto field) { AppendCounter(&s, this->*field); });
  return s;
}

std::string ServingResult::ReplayDigest() const {
  return Fingerprint() + "|" + tenants.Fingerprint() + "|" + trace.Fingerprint();
}

std::vector<std::string> ServingResult::LedgerBreaks(bool deadlines) const {
  std::vector<std::string> out;
  const auto n = [](uint64_t v) { return std::to_string(v); };
  if (generated != issued - hedges + shed) {
    out.push_back("generated " + n(generated) + " != issued " + n(issued) + " - hedges " +
                  n(hedges) + " + shed " + n(shed));
  }
  if (issued != completed + failed + cancelled) {
    out.push_back("issued " + n(issued) + " != completed " + n(completed) + " + failed " +
                  n(failed) + " + cancelled " + n(cancelled));
  }
  if (deadlines && good + late != completed) {
    out.push_back("good " + n(good) + " + late " + n(late) + " != completed " + n(completed));
  }
  if (deadlines && shed != shed_codel + shed_bucket + shed_deadline) {
    out.push_back("shed " + n(shed) + " != codel " + n(shed_codel) + " + bucket " +
                  n(shed_bucket) + " + deadline " + n(shed_deadline));
  }
  return out;
}

ServingResult RunServing(const ServingRunConfig& raw) {
  ServingRunConfig config = raw;
  config.layout.Validate();
  SNIC_CHECK_EQ(config.mix.weights.size(), config.layout.class_bytes.size());
  config.fleet.machine = config.client;

  Simulator sim;
  kv::ServingConfig serving =
      kv::ServingConfig::FromTestbed(config.testbed, config.layout);
  if (config.host_cores > 0) {
    serving.host_cores = config.host_cores;
  }
  if (config.soc_cores > 0) {
    serving.soc_cores = config.soc_cores;
  }
  // The governor's epoch clock and the fleet's retry timers arm through the
  // simulator's wheel, which lives entirely inside this one domain.
  // The tenant control plane and the trace driver exist only for a
  // declared tenant set and plan (src/governor/server_stack.h).
  ServerStack stack(&sim, config.testbed, serving, config.faults, config.resil,
                    config.tenants, config.trace);
  kv::ServingExecutor& exec = stack.exec;
  fault::FaultInjector* const injector = stack.injector.get();
  resilience::ResilienceManager* const resil = stack.resil.get();
  offload::TenantManager* const tenant_mgr = stack.tenants.get();
  const trace::TraceDriver* const trace_driver = stack.trace.get();
  stack.AttachSinks(config.trace_path, config.metrics_path);

  ClientFleet fleet(&sim, &stack.fabric, config.fleet);
  fleet.SetTrace(trace_driver);
  const ZipfDist zipf(config.layout.keys, config.zipf_theta);

  // The policy under test. The governor additionally gets its epoch meters
  // (bound by AttachGovernor) and a per-path error rate drawn from the
  // fleet's conservation counters — the task-level fault signal.
  std::unique_ptr<RoutePolicy> policy;
  AdaptiveGovernor* gov = nullptr;
  switch (config.policy) {
    case PolicyKind::kStaticHost:
      policy = std::make_unique<StaticPolicy>(kPathHost);
      break;
    case PolicyKind::kStaticSoc:
      policy = std::make_unique<StaticPolicy>(kPathSoc);
      break;
    case PolicyKind::kOracle:
      policy = std::make_unique<OraclePolicy>(
          &exec.config().layout, &exec,
          PathPriors::Compute(config.layout.class_bytes, config.testbed,
                              config.client, serving));
      break;
    case PolicyKind::kGovernor:
      gov = stack.AttachGovernor(config.governor, config.client);
      for (int p = 0; p < kPathCount; ++p) {
        gov->BindErrorRate(p, [&fleet, p] {
          const size_t i = static_cast<size_t>(p);
          if (i >= fleet.path_completed().size()) {
            return 0.0;
          }
          const uint64_t failed = fleet.path_failed()[i];
          const uint64_t total = fleet.path_completed()[i] + failed;
          return total == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(total);
        });
      }
      break;
  }
  RoutePolicy* const pol = gov != nullptr ? gov : policy.get();
  SNIC_CHECK(pol != nullptr);

  // Epoch SLO accounting + (optionally) the autoscaler, both riding the
  // governor's epoch tick so scaling and violation ledgers share the same
  // per-epoch delta discipline routing uses.
  std::unique_ptr<SloMonitor> slo_monitor;
  std::unique_ptr<EpochAutoscaler> autoscaler;
  if (trace_driver != nullptr && gov != nullptr) {
    SloMonitor::Signals sig;
    sig.good = [&fleet] { return fleet.good(); };
    sig.late = [&fleet] { return fleet.late(); };
    sig.deadline_failed = [&fleet] { return fleet.deadline_failed(); };
    sig.shed = [&fleet] { return fleet.shed(); };
    if (tenant_mgr != nullptr) {
      sig.tenant_checked = [tenant_mgr] { return tenant_mgr->slo_checked_total(); };
      sig.tenant_violations = [tenant_mgr] { return tenant_mgr->violations_total(); };
    }
    slo_monitor = std::make_unique<SloMonitor>(trace_driver, std::move(sig),
                                               config.scale.slo_budget, config.governor.epoch);
    if (config.scale.enabled) {
      // The scarce budget is the serving SoC pool plus tenant pool 0; both
      // sides must exist for a split to move.
      SNIC_CHECK(tenant_mgr != nullptr);
      EpochAutoscaler::Actuators act;
      act.serving_cores = [&exec] { return exec.soc_cpu().size(); };
      act.set_serving_cores = [&exec](int n) { exec.soc_cpu().SetServers(n); };
      act.serving_busy = [&exec] { return exec.soc_cpu().busy_time(); };
      act.pool_cores = [tenant_mgr] { return tenant_mgr->PoolCores(0); };
      act.set_pool_cores = [tenant_mgr](int n) { tenant_mgr->SetPoolCores(0, n); };
      act.pool_busy = [tenant_mgr] { return tenant_mgr->PoolBusy(0); };
      act.set_tenant_weight = [tenant_mgr](int t, int w) { tenant_mgr->SetTenantWeight(t, w); };
      autoscaler = std::make_unique<EpochAutoscaler>(
          config.scale, std::move(act), config.governor.epoch);
    }
    gov->SetEpochHook(
        [sm = slo_monitor.get(), as = autoscaler.get()](SimTime now) {
          sm->OnEpoch(now);
          if (as != nullptr) {
            as->OnEpoch(now);
          }
        });
  }

  Meter meter(&sim);
  meter.SetWindow(config.warmup, config.warmup + config.window);
  const size_t classes = config.layout.class_bytes.size();
  std::vector<uint64_t> class_window_ops(classes, 0);
  std::vector<uint64_t> class_window_soc(classes, 0);

  std::vector<TargetSpec> paths(static_cast<size_t>(kPathCount));
  for (int p = 0; p < kPathCount; ++p) {
    TargetSpec& t = paths[static_cast<size_t>(p)];
    t.engine = &stack.bf->nic();
    t.endpoint = p == kPathHost ? stack.bf->host_ep() : stack.bf->soc_ep();
    t.server_port = stack.bf->port();
    t.verb = Verb::kSend;
  }

  const kv::ServingLayout layout = config.layout;
  const SimTime deadline_budget = config.resil.deadline;
  if (resil != nullptr) {
    fleet.SetResilience(resil);
    fleet.SetShedObserver(
        [pol](int path, const KvRequest& req) { pol->OnShed(path, req); });
  }
  fleet.Start(
      std::move(paths), &zipf, config.mix, config.layout.class_bytes,
      /*header=*/[layout](uint64_t rank, int cls) { return layout.Pack(rank, cls); },
      /*route=*/[pol](const KvRequest& req) { return pol->Route(req); },
      /*observe=*/
      [&](int path, const KvRequest& req, SimTime latency, bool ok) {
        pol->OnComplete(path, req, latency, ok);
        if (tenant_mgr != nullptr) {
          tenant_mgr->OnKvOutcome(latency, ok);
        }
        const bool deadline_met =
            deadline_budget == 0 || latency <= deadline_budget;
        if (resil != nullptr) {
          resil->OnOutcome(path, latency, ok, deadline_met, sim.now());
        }
        if (!ok) {
          return;
        }
        if (meter.InWindow()) {
          const size_t cls = static_cast<size_t>(req.size_class);
          ++class_window_ops[cls];
          if (path == kPathSoc) {
            ++class_window_soc[cls];
          }
        }
        if (!deadline_met) {
          return;  // with deadlines on, the meter measures goodput
        }
        meter.RecordOp(req.bytes, latency);
      });

  if (tenant_mgr != nullptr) {
    tenant_mgr->Start();
  }

  // Quiesce at the window edge, then drain: every in-flight request
  // terminates, so conservation is exact (not cut off mid-flight).
  sim.At(config.warmup + config.window, [&] {
    fleet.StopIssuing();
    stack.StopIssuing();
  });
  sim.Run();

  ServingResult r;
  r.live_records = stack.bf->nic().live_records() + fleet.live_records();
  r.events = sim.processed();
  r.policy = pol->name();
  r.mreqs = meter.MReqsPerSec();
  r.gbps = meter.Gbps();
  r.p50_us = ToMicros(meter.latency().Percentile(50));
  r.p99_us = ToMicros(meter.latency().Percentile(99));
  r.ops = meter.ops();
  r.generated = fleet.generated();
  r.issued = fleet.issued();
  r.completed = fleet.completed();
  r.failed = fleet.failed();
  r.path_issued = fleet.path_issued();
  r.path_completed = fleet.path_completed();
  r.path_failed = fleet.path_failed();
  r.soc_hits = exec.soc_hits();
  r.soc_misses = exec.soc_misses();
  r.path3_bytes = exec.path3_bytes();
  r.draws = pol->draws();
  if (gov != nullptr) {
    r.hol_gated = gov->hol_gated();
    r.budget_spills = gov->budget_spills();
    r.explored = gov->explored();
    r.breaker_denied = gov->breaker_denied();
  }
  if (resil != nullptr) {
    r.shed = fleet.shed();
    r.cancelled = fleet.cancelled();
    r.good = fleet.good();
    r.late = fleet.late();
    r.deadline_failed = fleet.deadline_failed();
    r.path_shed = fleet.path_shed();
    r.path_cancelled = fleet.path_cancelled();
    r.shed_codel = resil->shed_codel();
    r.shed_bucket = resil->shed_bucket();
    r.shed_deadline = resil->shed_deadline();
    r.hedges = resil->hedges();
    r.hedge_wins = resil->hedge_wins();
    r.hedge_cancels = resil->hedge_cancels();
    r.breaker_trips = resil->breaker_trips();
    r.breaker_reopens = resil->breaker_reopens();
    r.breaker_probes = resil->breaker_probes_used();
    r.resil_draws = resil->draws();
    const SimTime trip = resil->first_trip_at(resilience::kEndpointSoc);
    const SimTime gap = resil->max_trip_gap(resilience::kEndpointSoc);
    r.soc_trip_us = trip >= 0 ? ToMicros(trip) : -1.0;
    r.soc_trip_gap_us = gap >= 0 ? ToMicros(gap) : -1.0;
  }
  if (injector != nullptr) {
    r.crash_drops = exec.crash_drops();
    r.rewarm_misses = exec.rewarm_misses();
  }
  if (tenant_mgr != nullptr) {
    r.tenants = tenant_mgr->Results();
  }
  if (slo_monitor != nullptr) {
    r.trace = slo_monitor->result();
    if (autoscaler != nullptr) {
      r.trace.actions_up = autoscaler->actions_up();
      r.trace.actions_down = autoscaler->actions_down();
      r.trace.weight_updates = autoscaler->weight_updates();
    }
    r.trace.final_serving_cores = exec.soc_cpu().size();
    // Overlay the fleet's per-phase request ledger: summed over phases it
    // partitions the run totals exactly (generated/shed), which is what
    // the trace property tests pin under time-shifted traces.
    for (size_t i = 0; i < r.trace.phases.size(); ++i) {
      if (i < fleet.phase_generated().size()) {
        r.trace.phases[i].generated = fleet.phase_generated()[i];
        r.trace.phases[i].shed = fleet.phase_shed()[i];
      }
    }
  }
  if (r.issued > 0) {
    r.share_soc = static_cast<double>(r.path_issued[static_cast<size_t>(kPathSoc)]) /
                  static_cast<double>(r.issued);
  }
  r.class_share_soc.assign(classes, 0.0);
  for (size_t c = 0; c < classes; ++c) {
    if (class_window_ops[c] > 0) {
      r.class_share_soc[c] = static_cast<double>(class_window_soc[c]) /
                             static_cast<double>(class_window_ops[c]);
    }
  }
  if (injector != nullptr) {
    r.frames_dropped = injector->frames_dropped();
    for (int i = 0; i < fleet.machine_count(); ++i) {
      r.retransmits += fleet.machine(i).retransmits();
      r.op_failures += fleet.machine(i).op_failures();
    }
  }

  stack.WriteSinks([&](MetricsRegistry* dump) {
    exec.RegisterMetrics(dump);
    fleet.RegisterMetrics(dump);
    if (injector != nullptr) {
      injector->RegisterMetrics(dump);
    }
    if (resil != nullptr) {
      resil->RegisterMetrics(dump);
    }
    if (tenant_mgr != nullptr) {
      tenant_mgr->RegisterMetrics(dump);
    }
    // The scale component exists only on trace-driven runs (the monitor
    // attaches with the trace), so trace-free dumps stay byte-identical.
    if (slo_monitor != nullptr) {
      r.trace.RegisterMetrics(dump);
    }
  });
  return r;
}

}  // namespace governor
}  // namespace snicsim

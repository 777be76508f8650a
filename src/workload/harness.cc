#include "src/workload/harness.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/log.h"
#include "src/sim/meter.h"
#include "src/topo/testbed.h"

namespace snicsim {

namespace {

// Large payloads with deep windows pile megabytes into responder queues and
// turn short windows into pure ramp measurement. Real RDMA benchmarks keep
// few large messages outstanding; mirror that and lengthen the window.
HarnessConfig ScaleForPayload(HarnessConfig config, uint32_t payload) {
  if (payload >= 32 * kKiB) {
    config.client.window = std::min(config.client.window, 4);
    // Window long enough for a few hundred completions at ~200 Gbps, so the
    // rate estimate is not quantized by op granularity.
    config.window = std::max(config.window,
                             Bandwidth::Gbps(100).TransferTime(300ull * payload));
    config.warmup = std::max(config.warmup,
                             std::max(FromMicros(200), config.window / 4));
  }
  if (payload >= 1 * kMiB) {
    config.client.window = std::min(config.client.window, 2);
    config.client.threads = std::min(config.client.threads, 4);
    config.window = std::max(config.window,
                             Bandwidth::Gbps(100).TransferTime(100ull * payload));
    config.warmup = std::max<SimTime>(config.warmup, config.window / 4);
  }
  return config;
}

ServerCard CardOf(ServerKind kind) {
  return kind == ServerKind::kRnicHost ? ServerCard::kRnic : ServerCard::kBluefield;
}

// One Measure* experiment: a fresh simulator and testbed, the load the
// entry point attaches, and the steady-state window meter. Every entry
// point finishes through Run, so each one writes its trace and metrics
// files when the config asks for them.
struct Experiment {
  Experiment(const HarnessConfig& c, ServerCard card)
      : config(c), testbed(&sim, c.testbed, card, c.faults), meter(&sim) {
    testbed.AttachSinks(c.trace_path, c.metrics_path);
    meter.SetWindow(c.warmup, c.warmup + c.window);
  }

  AddressGenerator Addresses(uint64_t seed) const {
    return AddressGenerator(0, config.address_range, 64, seed);
  }

  // The responder of path `kind` on this testbed's server.
  TargetSpec Target(ServerKind kind, Verb verb, uint32_t payload) const {
    TargetSpec t;
    if (testbed.rnic != nullptr) {
      t.engine = &testbed.rnic->nic();
      t.endpoint = testbed.rnic->host_ep();
      t.server_port = testbed.rnic->port();
    } else {
      t.engine = &testbed.bf->nic();
      t.endpoint = kind == ServerKind::kBluefieldHost ? testbed.bf->host_ep()
                                                      : testbed.bf->soc_ep();
      t.server_port = testbed.bf->port();
    }
    t.verb = verb;
    t.payload = payload;
    return t;
  }

  // Builds the requester machines and starts client i against target(i),
  // each on its own seeded address stream.
  void StartClients(const std::function<TargetSpec(size_t)>& target) {
    clients = MakeClients(&sim, &testbed.fabric, config.client, config.client_machines);
    for (size_t i = 0; i < clients.size(); ++i) {
      clients[i]->Start(target(i), Addresses(i + 1), &meter);
    }
  }

  // A path-③ requester through the BlueField NIC; the caller starts it.
  LocalRequester* AddRequester(NicEndpoint* src, NicEndpoint* dst,
                               const LocalRequesterParams& params, const char* name) {
    requesters.push_back(std::make_unique<LocalRequester>(&sim, &testbed.bf->nic(), src,
                                                          dst, params, name));
    return requesters.back().get();
  }

  // Runs warmup + window, writes the sinks, and returns the window's
  // measurement with the fault outcome folded in. `watch_pcie` snapshots a
  // BlueField's PCIe counters at the warmup edge for the window TLP rates.
  Measurement Run(bool watch_pcie) {
    BluefieldServer* const watched = watch_pcie ? testbed.bf.get() : nullptr;
    uint64_t pcie0_start = 0;
    uint64_t pcie1_start = 0;
    if (watched != nullptr) {
      sim.At(config.warmup, [&] {
        pcie0_start = watched->pcie0().TotalCounters().tlps;
        pcie1_start = watched->pcie1().TotalCounters().tlps;
      });
    }
    sim.RunUntil(config.warmup + config.window);
    fault::FaultInjector* const injector = testbed.injector.get();
    testbed.WriteSinks([&](MetricsRegistry* reg) {
      for (auto& c : clients) {
        c->RegisterMetrics(reg);
      }
      for (auto& r : requesters) {
        r->RegisterMetrics(reg);
      }
      if (injector != nullptr) {
        injector->RegisterMetrics(reg);
      }
    });

    Measurement m;
    m.events = sim.processed();
    m.mreqs = meter.MReqsPerSec();
    m.gbps = meter.Gbps();
    m.ops = meter.ops();
    m.p50_us = ToMicros(meter.latency().Percentile(50));
    m.p99_us = ToMicros(meter.latency().Percentile(99));
    if (watched != nullptr) {
      const double secs = ToSeconds(config.window);
      const uint64_t p0 = watched->pcie0().TotalCounters().tlps - pcie0_start;
      const uint64_t p1 = watched->pcie1().TotalCounters().tlps - pcie1_start;
      m.pcie0_mpps = static_cast<double>(p0) / secs / 1e6;
      m.pcie1_mpps = static_cast<double>(p1) / secs / 1e6;
      m.pcie_total_mpps = m.pcie0_mpps + m.pcie1_mpps;
    }
    // Fault-side counters (NIC replays, failed ops, dropped frames).
    if (injector != nullptr) {
      m.frames_dropped = injector->frames_dropped();
      for (const auto& c : clients) {
        m.retransmits += c->retransmits();
        m.op_failures += c->op_failures();
      }
    }
    return m;
  }

  const HarnessConfig& config;
  Simulator sim;
  Testbed testbed;
  Meter meter;
  std::vector<std::unique_ptr<ClientMachine>> clients;
  std::vector<std::unique_ptr<LocalRequester>> requesters;
};

}  // namespace

Measurement MeasureInboundPath(ServerKind kind, Verb verb, uint32_t payload,
                               const HarnessConfig& raw_config) {
  const HarnessConfig config = ScaleForPayload(raw_config, payload);
  Experiment x(config, CardOf(kind));
  x.StartClients([&](size_t) { return x.Target(kind, verb, payload); });
  return x.Run(/*watch_pcie=*/true);
}

Measurement MeasureConcurrentInbound(Verb verb, uint32_t payload,
                                     const HarnessConfig& raw_config) {
  const HarnessConfig config = ScaleForPayload(raw_config, payload);
  Experiment x(config, ServerCard::kBluefield);
  const TargetSpec host = x.Target(ServerKind::kBluefieldHost, verb, payload);
  const TargetSpec soc = x.Target(ServerKind::kBluefieldSoc, verb, payload);
  x.StartClients([&](size_t i) { return i % 2 == 0 ? host : soc; });
  return x.Run(/*watch_pcie=*/true);
}

Measurement MeasureLocalPath(bool s2h, Verb verb, uint32_t payload,
                             const LocalRequesterParams& requester,
                             const HarnessConfig& raw_config) {
  const HarnessConfig config = ScaleForPayload(raw_config, payload);
  LocalRequesterParams req_params = requester;
  if (payload >= 32 * kKiB) {
    req_params.window = std::min(req_params.window, 2);
  }
  if (payload >= 1 * kMiB) {
    req_params.window = 1;
    req_params.threads = std::min(req_params.threads, 4);
  }
  Experiment x(config, ServerCard::kBluefield);
  BluefieldServer& bf = *x.testbed.bf;
  NicEndpoint* src = s2h ? bf.soc_ep() : bf.host_ep();
  NicEndpoint* dst = s2h ? bf.host_ep() : bf.soc_ep();
  x.AddRequester(src, dst, req_params, s2h ? "s2h" : "h2s")
      ->Start(verb, payload, x.Addresses(17), &x.meter);
  return x.Run(/*watch_pcie=*/true);
}

Measurement MeasureInterference(Verb verb, uint32_t payload, bool enable_path3,
                                const HarnessConfig& config) {
  Experiment x(config, ServerCard::kBluefield);
  const TargetSpec host = x.Target(ServerKind::kBluefieldHost, verb, payload);
  x.StartClients([&](size_t) { return host; });
  Meter intra_meter(&x.sim);
  intra_meter.SetWindow(config.warmup, config.warmup + config.window);
  if (enable_path3) {
    BluefieldServer& bf = *x.testbed.bf;
    x.AddRequester(bf.host_ep(), bf.soc_ep(), LocalRequesterParams::Host(), "h2s")
        ->Start(verb, payload, x.Addresses(29), &intra_meter);
  }
  return x.Run(/*watch_pcie=*/false);
}

double MeasureFlowCombination(ServerKind kind, Verb verb_a, Verb verb_b, uint32_t payload,
                              const HarnessConfig& raw_config) {
  const HarnessConfig config = ScaleForPayload(raw_config, payload);
  Experiment x(config, CardOf(kind));
  x.StartClients(
      [&](size_t i) { return x.Target(kind, i % 2 == 0 ? verb_a : verb_b, payload); });
  return x.Run(/*watch_pcie=*/false).gbps;
}

double MeasureLocalFlowCombination(bool opposite_directions, uint32_t payload,
                                   const HarnessConfig& config) {
  Experiment x(config, ServerCard::kBluefield);
  BluefieldServer& bf = *x.testbed.bf;
  LocalRequesterParams host_p = LocalRequesterParams::Host();
  host_p.threads = 12;
  x.AddRequester(bf.host_ep(), bf.soc_ep(), host_p, "h2s")
      ->Start(Verb::kWrite, payload, x.Addresses(3), &x.meter);
  // Opposite: the SoC simultaneously pushes data toward the host; same: the
  // host runs a second same-direction stream.
  LocalRequester* const second =
      opposite_directions
          ? x.AddRequester(bf.soc_ep(), bf.host_ep(), LocalRequesterParams::Soc(), "s2h")
          : x.AddRequester(bf.host_ep(), bf.soc_ep(), host_p, "h2s2");
  second->Start(Verb::kWrite, payload, x.Addresses(5), &x.meter);
  return x.Run(/*watch_pcie=*/false).gbps;
}

}  // namespace snicsim

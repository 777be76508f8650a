// Server-machine compositions: a SRV host with either a ConnectX-6 RNIC or
// a BlueField-2 SmartNIC (paper Table 1/2, Fig. 2).
//
// Both expose the same surface to workloads — a network port, one or two
// NicEndpoints, and per-endpoint CPU echo service — so benches can swap
// RNIC ↔ SNIC with one flag exactly like the paper swaps cards in the same
// slot.
#ifndef SRC_TOPO_SERVER_H_
#define SRC_TOPO_SERVER_H_

#include <memory>
#include <string>

#include "src/common/units.h"
#include "src/fault/injector.h"
#include "src/mem/memory.h"
#include "src/nic/engine.h"
#include "src/pcie/link.h"
#include "src/pcie/path.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"
#include "src/topo/fabric.h"
#include "src/topo/testbed_params.h"

namespace snicsim {

// CPU pool answering two-sided messages on one endpoint (the echo server of
// the paper's evaluation setup, §3).
class EchoCpu {
 public:
  // `notify_delay` is the ring-doorbell-to-dispatch latency before a core
  // picks the message up: near zero on a busy-polling host, substantial on
  // the wimpy ARM SoC (paper §3.2: SoC SEND/RECV latency is 21-30% higher).
  // It delays every message but does not consume core service time, so peak
  // throughput stays cores / per_message.
  // `endpoint` is the name of the endpoint the pool answers, which is its
  // fault domain: a stall window on it defers dispatch without consuming
  // core time.
  EchoCpu(Simulator* sim, const std::string& name, std::string endpoint, int cores,
          SimTime per_message, SimTime notify_delay = 0)
      : sim_(sim), name_(name), pool_(sim, cores), per_message_(per_message),
        notify_delay_(notify_delay), endpoint_(std::move(endpoint)) {}

  // Returns a SendHandler that serves each message on the earliest-free
  // core and echoes a same-size reply.
  SendHandler Handler() {
    return [this](uint64_t /*hdr*/, uint32_t len, ReplyCallback reply) {
      SimTime dispatch = sim_->now() + notify_delay_;
      if (fault::FaultInjector* const inj = sim_->faults(); inj != nullptr) {
        const SimTime stall = inj->StallDelay(endpoint_, sim_->now());
        if (stall > 0) {
          if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
            tr->Span(name_, "stall", sim_->now(), sim_->now() + stall, 0);
          }
          dispatch += stall;
        }
      }
      const SimTime done = pool_.EnqueueAt(dispatch, per_message_);
      if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
        // SendHandler carries no request id, so CPU echo work traces as
        // req 0 on the pool's lane.
        tr->Span(name_, "echo", sim_->now(), done, 0);
      }
      sim_->At(done, [this, done, len, reply = std::move(reply)] {
        ++replies_;
        reply(done, len);
      });
    };
  }

  MultiServer& pool() { return pool_; }
  uint64_t replies() const { return replies_; }

  void RegisterMetrics(MetricsRegistry* reg) {
    static constexpr MetricsRegistry::Row<EchoCpu> kRows[] = {
        {"replies", "count", [](const EchoCpu& c) -> double { return c.replies_; }},
        {"busy_us", "us", [](const EchoCpu& c) { return ToMicros(c.pool_.busy_time()); }},
    };
    reg->Register(name_, *this, kRows);
  }

 private:
  Simulator* sim_;
  std::string name_;  // the pool's trace lane and metrics prefix
  MultiServer pool_;
  SimTime per_message_;
  SimTime notify_delay_;
  std::string endpoint_;
  uint64_t replies_ = 0;
};

// A SRV machine with a plain ConnectX-6 (the paper's RNIC baseline).
class RnicServer {
 public:
  RnicServer(Simulator* sim, Fabric* fabric, const TestbedParams& tp,
             const std::string& name = "rnic_srv");

  RnicServer(const RnicServer&) = delete;
  RnicServer& operator=(const RnicServer&) = delete;

  NicEngine& nic() { return nic_; }
  NicEndpoint* host_ep() { return host_ep_; }
  PcieLink* port() { return port_; }
  MemorySubsystem& host_memory() { return host_mem_; }
  PcieLink& pcie0() { return pcie0_; }
  EchoCpu& host_cpu() { return host_cpu_; }

  // Registers every component's counters (memory, links, NIC, CPU pool).
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  MemorySubsystem host_mem_;
  PcieLink pcie0_;
  NicEngine nic_;
  NicEndpoint* host_ep_;
  PcieLink* port_;
  EchoCpu host_cpu_;
};

// A SRV machine with a BlueField-2 (Fig. 2(c)): NIC cores —PCIe1— switch,
// switch —PCIe0— host, switch —direct port— SoC.
class BluefieldServer {
 public:
  BluefieldServer(Simulator* sim, Fabric* fabric, const TestbedParams& tp,
                  const std::string& name = "bf_srv");

  BluefieldServer(const BluefieldServer&) = delete;
  BluefieldServer& operator=(const BluefieldServer&) = delete;

  NicEngine& nic() { return nic_; }
  NicEndpoint* host_ep() { return host_ep_; }
  NicEndpoint* soc_ep() { return soc_ep_; }
  PcieLink* port() { return port_; }
  MemorySubsystem& host_memory() { return host_mem_; }
  MemorySubsystem& soc_memory() { return soc_mem_; }
  PcieLink& pcie0() { return pcie0_; }
  PcieLink& pcie1() { return pcie1_; }
  PcieLink& soc_port_link() { return soc_port_; }
  PcieSwitch& pcie_switch() { return switch_; }
  EchoCpu& host_cpu() { return host_cpu_; }
  EchoCpu& soc_cpu() { return soc_cpu_; }

  // Registers every component's counters (memories, links, switch, NIC,
  // CPU pools).
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  MemorySubsystem host_mem_;
  MemorySubsystem soc_mem_;
  PcieSwitch switch_;
  PcieLink pcie0_;
  PcieLink pcie1_;
  PcieLink soc_port_;
  NicEngine nic_;
  NicEndpoint* host_ep_;
  NicEndpoint* soc_ep_;
  PcieLink* port_;
  EchoCpu host_cpu_;
  EchoCpu soc_cpu_;
};

}  // namespace snicsim

#endif  // SRC_TOPO_SERVER_H_

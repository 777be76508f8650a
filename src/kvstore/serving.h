// Server side of the scale-out KV serving workload: one executor that
// serves gets on *both* BlueField endpoints, so a fleet (or its governor)
// can route each request to the path it prefers.
//
//   ① client→host SEND: the host CPU walks the index and reads the value
//     from host DRAM — the classic RNIC deployment.
//   ② client→SoC SEND: the wimpy ARM cores serve it. Values whose rank is
//     SoC-resident (layout.SocResident) come from SoC DRAM; misses fetch
//     the value from host DRAM over path ③ (S2H READ through the NIC
//     engine) — the paper's host↔SoC communication, with its double PCIe
//     crossing.
//
// The request's (rank, size class) arrives in the 64-bit SEND header
// (kv::ServingLayout packing); the reply carries the value bytes. Both CPU
// pools honor compute-stall and crash windows on their endpoint's name
// (its fault domain, e.g. "bf_srv.soc"), which is what makes governor
// monotonicity under SoC stalls observable.
#ifndef SRC_KVSTORE_SERVING_H_
#define SRC_KVSTORE_SERVING_H_

#include <functional>
#include <string>

#include "src/kvstore/layout.h"
#include "src/obs/metrics.h"
#include "src/resilience/resilience.h"
#include "src/sim/server.h"
#include "src/topo/server.h"

namespace snicsim {
namespace kv {

struct ServingConfig {
  ServingLayout layout;
  SimTime host_lookup = FromNanos(326);  // per-get host hash walk (SNIC MMIO path)
  SimTime soc_lookup = FromNanos(350);   // per-get ARM hash walk
  SimTime host_notify = FromNanos(0);    // busy-polling host
  SimTime soc_notify = FromNanos(900);   // slow ARM dispatch
  int host_cores = 24;
  int soc_cores = 8;

  static ServingConfig FromTestbed(const TestbedParams& tp, ServingLayout l) {
    ServingConfig c;
    c.layout = std::move(l);
    c.host_lookup = tp.host_msg_service_snic;
    c.soc_lookup = tp.soc_msg_service;
    c.host_notify = tp.host_notify_delay;
    c.soc_notify = tp.soc_notify_delay;
    c.host_cores = tp.host_cores;
    c.soc_cores = tp.soc_cores;
    return c;
  }
};

class ServingExecutor {
 public:
  ServingExecutor(Simulator* sim, BluefieldServer* server, const ServingConfig& config);

  ServingExecutor(const ServingExecutor&) = delete;
  ServingExecutor& operator=(const ServingExecutor&) = delete;

  uint64_t host_gets() const { return host_gets_; }
  uint64_t soc_gets() const { return soc_gets_; }
  uint64_t soc_hits() const { return soc_hits_; }
  uint64_t soc_misses() const { return soc_misses_; }
  uint64_t path3_bytes() const { return path3_bytes_; }
  uint64_t crash_drops() const { return crash_drops_; }
  uint64_t rewarm_misses() const { return rewarm_misses_; }

  // Feeds the admission controllers their exact queue-delay signal: the
  // backlog a request arriving now would see on each pool.
  void BindResilience(resilience::ResilienceManager* resil) {
    resil->BindQueueSignal(resilience::kEndpointHost,
                           [this] { return host_cpu_.Backlog(); });
    resil->BindQueueSignal(resilience::kEndpointSoc,
                           [this] { return soc_cpu_.Backlog(); });
  }

  // Optional per-served-get tap: fires once per get that an endpoint
  // actually accepts (after the crash-window check), with the endpoint
  // index (resilience::kEndpointHost/kEndpointSoc, path-constant
  // compatible) and the value's size. The tenant control plane
  // (src/offload/tenancy.h) uses this to ride its kv telemetry tenants on
  // the real served stream. Unset => zero-cost, byte-identical serving.
  using ServeObserver = std::function<void(int endpoint, uint32_t bytes)>;
  void SetServeObserver(ServeObserver obs) { observer_ = std::move(obs); }

  const ServingConfig& config() const { return config_; }

  // Live serving pools (the oracle policy reads their instantaneous
  // backlog; an online policy must estimate it).
  MultiServer& host_cpu() { return host_cpu_; }
  MultiServer& soc_cpu() { return soc_cpu_; }

  // Exposes serving counters under "serve" (leaf catalog: DESIGN.md §6).
  void RegisterMetrics(MetricsRegistry* reg);

 private:
  void ServeHost(uint64_t hdr, ReplyCallback reply);
  void ServeSoc(uint64_t hdr, ReplyCallback reply);
  // Fault domains: the names of the server's two endpoints.
  const std::string& HostDomain() const { return server_->host_ep()->params().name; }
  const std::string& SocDomain() const { return server_->soc_ep()->params().name; }
  SimTime Stall(const std::string& domain);

  Simulator* sim_;
  BluefieldServer* server_;
  ServingConfig config_;
  MultiServer host_cpu_;
  MultiServer soc_cpu_;
  ServeObserver observer_;
  uint64_t host_gets_ = 0;
  uint64_t soc_gets_ = 0;
  uint64_t soc_hits_ = 0;
  uint64_t soc_misses_ = 0;
  uint64_t path3_bytes_ = 0;
  uint64_t crash_drops_ = 0;    // requests eaten by an endpoint crash window
  uint64_t rewarm_misses_ = 0;  // SoC-resident gets missed during rewarm
};

}  // namespace kv
}  // namespace snicsim

#endif  // SRC_KVSTORE_SERVING_H_

#include "src/kvstore/serving.h"

#include <utility>

#include "src/fault/injector.h"

namespace snicsim {
namespace kv {

ServingExecutor::ServingExecutor(Simulator* sim, BluefieldServer* server,
                                 const ServingConfig& config)
    : sim_(sim),
      server_(server),
      config_(config),
      host_cpu_(sim, config.host_cores),
      soc_cpu_(sim, config.soc_cores) {
  config_.layout.Validate();
  server_->nic().SetSendHandler(
      server_->host_ep(),
      [this](uint64_t hdr, uint32_t /*len*/, ReplyCallback reply) {
        ServeHost(hdr, std::move(reply));
      });
  server_->nic().SetSendHandler(
      server_->soc_ep(),
      [this](uint64_t hdr, uint32_t /*len*/, ReplyCallback reply) {
        ServeSoc(hdr, std::move(reply));
      });
}

SimTime ServingExecutor::Stall(const std::string& domain) {
  if (fault::FaultInjector* const inj = sim_->faults(); inj != nullptr) {
    return inj->StallDelay(domain, sim_->now());
  }
  return 0;
}

void ServingExecutor::ServeHost(uint64_t hdr, ReplyCallback reply) {
  fault::FaultInjector* const inj = sim_->faults();
  const SimTime arrived = sim_->now();
  if (inj != nullptr && inj->CrashedAt(HostDomain(), arrived)) {
    ++crash_drops_;  // dead endpoint: no reply, the client transport times out
    reply.Discard();
    return;
  }
  ++host_gets_;
  const uint32_t bytes = config_.layout.BytesOf(hdr);
  if (observer_) {
    observer_(resilience::kEndpointHost, bytes);
  }
  const SimTime dispatch = arrived + config_.host_notify + Stall(HostDomain());
  const SimTime cpu_done = host_cpu_.EnqueueAt(dispatch, config_.host_lookup);
  sim_->At(cpu_done, [this, hdr, bytes, arrived, inj,
                      reply = std::move(reply)]() mutable {
    const SimTime v =
        server_->host_memory().Access(sim_->now(), hdr, bytes, /*is_write=*/false);
    sim_->At(v, [this, v, bytes, arrived, inj, reply = std::move(reply)] {
      // A crash anywhere during [arrival, reply) kills the in-flight get:
      // the reply evaporates with the endpoint's state.
      if (inj != nullptr && inj->CrashKills(HostDomain(), arrived, v)) {
        ++crash_drops_;
        reply.Discard();
        return;
      }
      reply(v, bytes);
    });
  });
}

void ServingExecutor::ServeSoc(uint64_t hdr, ReplyCallback reply) {
  fault::FaultInjector* const inj = sim_->faults();
  const SimTime arrived = sim_->now();
  if (inj != nullptr && inj->CrashedAt(SocDomain(), arrived)) {
    ++crash_drops_;
    reply.Discard();
    return;
  }
  ++soc_gets_;
  const uint64_t rank = ServingLayout::RankOf(hdr);
  const uint32_t bytes = config_.layout.BytesOf(hdr);
  if (observer_) {
    observer_(resilience::kEndpointSoc, bytes);
  }
  const SimTime dispatch = arrived + config_.soc_notify + Stall(SocDomain());
  const SimTime cpu_done = soc_cpu_.EnqueueAt(dispatch, config_.soc_lookup);
  // Restart comes up with a cold SoC cache: resident ranks miss (and pay
  // path ③) until the rewarm window closes.
  bool resident = config_.layout.SocResident(rank);
  if (resident && inj != nullptr && inj->InRewarm(SocDomain(), arrived)) {
    resident = false;
    ++rewarm_misses_;
  }
  if (resident) {
    ++soc_hits_;
    sim_->At(cpu_done, [this, hdr, bytes, arrived, inj,
                        reply = std::move(reply)]() mutable {
      const SimTime v =
          server_->soc_memory().Access(sim_->now(), hdr, bytes, /*is_write=*/false);
      sim_->At(v, [this, v, bytes, arrived, inj, reply = std::move(reply)] {
        if (inj != nullptr && inj->CrashKills(SocDomain(), arrived, v)) {
          ++crash_drops_;
          reply.Discard();
          return;
        }
        reply(v, bytes);
      });
    });
    return;
  }
  ++soc_misses_;
  path3_bytes_ += bytes;
  // Value lives only in host DRAM: the SoC fetches it over path ③ before
  // replying (the S2H READ crosses PCIe1 twice — the §4 tax the governor's
  // budget rule exists to bound).
  sim_->At(cpu_done, [this, hdr, bytes, arrived, inj,
                      reply = std::move(reply)]() mutable {
    server_->nic().ExecuteLocalOp(
        server_->soc_ep(), server_->host_ep(), Verb::kRead, hdr, bytes,
        [this, bytes, arrived, inj, reply = std::move(reply)](SimTime done) {
          if (inj != nullptr && inj->CrashKills(SocDomain(), arrived, done)) {
            ++crash_drops_;
            reply.Discard();
            return;
          }
          reply(done, bytes);
        });
  });
}

void ServingExecutor::RegisterMetrics(MetricsRegistry* reg) {
  using S = ServingExecutor;
  static constexpr MetricsRegistry::Row<S> kRows[] = {
      {"host_gets", "count", [](const S& s) -> double { return s.host_gets_; }},
      {"soc_gets", "count", [](const S& s) -> double { return s.soc_gets_; }},
      {"soc_hits", "count", [](const S& s) -> double { return s.soc_hits_; }},
      {"soc_misses", "count", [](const S& s) -> double { return s.soc_misses_; }},
      {"path3_bytes", "bytes", [](const S& s) -> double { return s.path3_bytes_; }},
      {"host_busy_us", "us", [](const S& s) { return ToMicros(s.host_cpu_.busy_time()); }},
      {"soc_busy_us", "us", [](const S& s) { return ToMicros(s.soc_cpu_.busy_time()); }},
  };
  // Crash accounting exists only in fault-carrying runs, so fault-free
  // metric dumps stay byte-identical to the recorded goldens.
  static constexpr MetricsRegistry::Row<S> kFaultRows[] = {
      {"crash_drops", "count", [](const S& s) -> double { return s.crash_drops_; }},
      {"rewarm_misses", "count", [](const S& s) -> double { return s.rewarm_misses_; }},
  };
  reg->Register("serve", *this, kRows);
  if (sim_->faults() != nullptr) {
    reg->Register("serve", *this, kFaultRows);
  }
}

}  // namespace kv
}  // namespace snicsim

#include "src/kvstore/kv.h"

#include <utility>

#include "src/common/log.h"

namespace snicsim {
namespace kv {

void DirectKvClient::Get(uint64_t key, std::function<void(GetResult)> done) {
  auto lookup = std::make_shared<Lookup>(index_->Get(key));
  SNIC_CHECK(!lookup->bucket_addrs.empty());
  // The client cannot know the probe length in advance: it READs bucket by
  // bucket, exactly like a real one-sided traversal.
  ReadProbe(std::move(lookup), 0, 0, /*started=*/-1, std::move(done));
}

void DirectKvClient::ReadProbe(std::shared_ptr<Lookup> lookup, size_t i, int rts,
                               SimTime started, std::function<void(GetResult)> done) {
  const uint32_t bucket_bytes = index_->config().bucket_bytes();
  (void)started;
  qp_->PostRead(lookup->bucket_addrs[i], bucket_bytes, /*wr_id=*/i,
                [this, lookup, i, rts, started, done = std::move(done)](
                    SimTime /*completed*/) mutable {
    const int now_rts = rts + 1;
    if (i + 1 < lookup->bucket_addrs.size()) {
      ReadProbe(lookup, i + 1, now_rts, started, std::move(done));
      return;
    }
    if (!lookup->found) {
      done(GetResult{false, now_rts, 0});
      return;
    }
    // Final round trip: fetch the value.
    qp_->PostRead(lookup->value_addr, lookup->value_bytes, /*wr_id=*/1000,
                  [now_rts, done = std::move(done)](SimTime) {
                    done(GetResult{true, now_rts + 1, 0});
                  });
  });
}

SocOffloadKvServer::SocOffloadKvServer(Simulator* sim, BluefieldServer* server,
                                       const KvIndex* index, const Config& config)
    : sim_(sim),
      server_(server),
      index_(index),
      config_(config),
      soc_cpu_(sim, /*servers=*/8),
      key_rng_(0x5eedULL) {
  server_->nic().SetSendHandler(
      server_->soc_ep(),
      [this](uint64_t /*hdr*/, uint32_t /*len*/, ReplyCallback reply) {
        ++gets_served_;
        const uint64_t key = 1 + key_rng_.NextBelow(max_key_);
        const Lookup lookup = index_->Get(key);
        // The ARM core walks the (local) index: one service slot per probe.
        const SimTime cpu_done = soc_cpu_.EnqueueAt(
            sim_->now(),
            config_.lookup_service * static_cast<SimTime>(lookup.bucket_addrs.size()));
        const uint32_t vbytes = lookup.found ? lookup.value_bytes : 0;
        if (!lookup.found) {
          sim_->At(cpu_done, [cpu_done, reply = std::move(reply)] {
            reply(cpu_done, 16);  // miss: tiny reply
          });
          return;
        }
        if (!config_.values_on_host) {
          // Value lives in SoC DRAM: fetch it locally before replying.
          sim_->At(cpu_done, [this, value_addr = lookup.value_addr, vbytes, reply] {
            const SimTime v = server_->soc_memory().Access(
                sim_->now(), value_addr, vbytes, /*is_write=*/false);
            sim_->At(v, [v, vbytes, reply = std::move(reply)] { reply(v, vbytes); });
          });
          return;
        }
        // Value lives in host DRAM: the SoC reads it over path ③ (S2H READ).
        sim_->At(cpu_done, [this, value_addr = lookup.value_addr, vbytes, reply] {
          server_->nic().ExecuteLocalOp(
              server_->soc_ep(), server_->host_ep(), Verb::kRead, value_addr,
              vbytes, [vbytes, reply](SimTime done) {
                reply(done, vbytes);
              });
        });
      });
}

void SocOffloadKvServer::SeedKeys(uint64_t max_key, uint64_t seed) {
  SNIC_CHECK_GT(max_key, 0u);
  max_key_ = max_key;
  key_rng_ = Rng(seed);
}

}  // namespace kv
}  // namespace snicsim

// LineFS-style pipelined offload (paper citation [18]): a chain of
// processing stages over an item stream, where each stage runs on either
// the host CPU or the SmartNIC SoC.
//
// Crossing a placement boundary ships the item across path ③ (host↔SoC),
// with all of that path's costs — the double PCIe1 crossing, the NIC
// pipeline work, and the interference with inter-machine traffic. The
// interesting trade this exposes is exactly LineFS's: moving stages to the
// SoC frees host CPU cycles, at the price of intra-machine transfers that
// must respect the §4 bandwidth budget.
#ifndef SRC_OFFLOAD_PIPELINE_H_
#define SRC_OFFLOAD_PIPELINE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/log.h"
#include "src/nic/verb.h"
#include "src/sim/server.h"
#include "src/topo/server.h"

namespace snicsim {
namespace offload {

enum class Placement {
  kHost,
  kSoc,
};

struct StageSpec {
  std::string name;
  SimTime service = FromNanos(500);  // per-item CPU time
  int workers = 1;                   // cores usable by this stage
  Placement placement = Placement::kHost;
};

struct PipelineStats {
  uint64_t items_completed = 0;
  uint64_t boundary_crossings = 0;
  SimTime host_cpu_time = 0;
  SimTime soc_cpu_time = 0;
};

class OffloadPipeline {
 public:
  // `item_bytes` is the payload shipped across each placement boundary.
  OffloadPipeline(Simulator* sim, BluefieldServer* server, std::vector<StageSpec> stages,
                  uint32_t item_bytes)
      : sim_(sim), server_(server), stages_(std::move(stages)), item_bytes_(item_bytes) {
    SNIC_CHECK(!stages_.empty());
    for (const StageSpec& st : stages_) {
      pools_.push_back(std::make_unique<MultiServer>(sim, st.workers));
    }
  }

  OffloadPipeline(const OffloadPipeline&) = delete;
  OffloadPipeline& operator=(const OffloadPipeline&) = delete;

  // Submits one item; `done` fires when it leaves the last stage.
  void Submit(std::function<void(SimTime)> done) {
    RunStage(0, sim_->now(), std::move(done));
  }

  const PipelineStats& stats() const { return stats_; }

 private:
  void RunStage(size_t index, SimTime ready, std::function<void(SimTime)> done) {
    if (index == stages_.size()) {
      ++stats_.items_completed;
      done(ready);
      return;
    }
    const StageSpec& spec = stages_[index];
    // Serve the item on this stage's core pool.
    const SimTime served =
        pools_[index]->EnqueueAt(ready, spec.service);
    (spec.placement == Placement::kHost ? stats_.host_cpu_time : stats_.soc_cpu_time) +=
        spec.service;
    // If the next stage lives on the other side, ship the item over path ③.
    const bool crosses =
        index + 1 < stages_.size() && stages_[index + 1].placement != spec.placement;
    if (!crosses) {
      sim_->At(served, [this, index, done = std::move(done)]() mutable {
        RunStage(index + 1, sim_->now(), std::move(done));
      });
      return;
    }
    ++stats_.boundary_crossings;
    NicEndpoint* src = spec.placement == Placement::kHost ? server_->host_ep()
                                                          : server_->soc_ep();
    NicEndpoint* dst = spec.placement == Placement::kHost ? server_->soc_ep()
                                                          : server_->host_ep();
    sim_->At(served, [this, index, src, dst, done = std::move(done)]() mutable {
      server_->nic().ExecuteLocalOp(
          src, dst, Verb::kWrite, 0x6000'0000 + (ship_seq_++ % 8192) * 4096, item_bytes_,
          [this, index, done = std::move(done)](SimTime delivered) mutable {
            sim_->At(std::max(delivered, sim_->now()), [this, index,
                                                        done = std::move(done)]() mutable {
              RunStage(index + 1, sim_->now(), std::move(done));
            });
          });
    });
  }

  Simulator* sim_;
  BluefieldServer* server_;
  std::vector<StageSpec> stages_;
  uint32_t item_bytes_;
  std::vector<std::unique_ptr<MultiServer>> pools_;
  PipelineStats stats_;
  uint64_t ship_seq_ = 0;
};

}  // namespace offload
}  // namespace snicsim

#endif  // SRC_OFFLOAD_PIPELINE_H_

#include "src/mem/memory.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/obs/trace.h"

namespace snicsim {

MemoryParams MemoryParams::Host() {
  MemoryParams p;
  p.channels = 8;
  p.banks_per_channel = 16;
  p.bank_read_service = FromNanos(16);
  p.bank_write_service = FromNanos(36);
  p.cmd_read_service = FromNanos(3.0);
  p.cmd_write_service = FromNanos(3.2);
  p.channel_bandwidth = Bandwidth::GBps(23.46);  // DDR4-2933
  p.dram_latency = FromNanos(85);
  p.has_llc = true;
  p.ddio = true;
  return p;
}

MemoryParams MemoryParams::HostNoDdio() {
  MemoryParams p = Host();
  p.ddio = false;
  // Without DDIO the LLC still exists for CPU traffic but inbound NIC writes
  // are forced to DRAM (non-allocating); we model the I/O path as LLC-less.
  p.has_llc = false;
  return p;
}

MemoryParams MemoryParams::Soc() {
  MemoryParams p;
  p.channels = 1;
  p.banks_per_channel = 16;
  p.bank_read_service = FromNanos(20);
  p.bank_write_service = FromNanos(44);
  p.cmd_read_service = FromNanos(11.8);
  p.cmd_write_service = FromNanos(12.8);
  p.channel_bandwidth = Bandwidth::GBps(25.6);  // 64-bit DDR4 @ 3200 MT/s
  p.dram_latency = FromNanos(110);
  p.has_llc = false;
  p.ddio = false;
  return p;
}

MemorySubsystem::MemorySubsystem(Simulator* sim, std::string name, const MemoryParams& params)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      row_bytes_(params.row_bytes),
      channels_(static_cast<uint64_t>(params.channels)),
      banks_per_channel_(static_cast<uint64_t>(params.banks_per_channel)) {
  SNIC_CHECK_GT(params_.channels, 0);
  SNIC_CHECK_GT(params_.banks_per_channel, 0);
  SNIC_CHECK_GT(params_.row_bytes, 0u);
  const size_t channels = static_cast<size_t>(params_.channels);
  cmd_.assign(channels, BusyServer(sim));
  data_bus_.assign(channels, BusyServer(sim));
  banks_.assign(channels * static_cast<size_t>(params_.banks_per_channel), BusyServer(sim));
  if (params_.has_llc) {
    llc_.emplace(sim, params_.llc_slices);
  }
}

bool MemorySubsystem::LlcLookup(uint64_t row, bool is_write) {
  if (!params_.has_llc) {
    return false;
  }
  if (llc_tags_.empty()) {
    llc_tags_.assign(std::max<uint64_t>(1, params_.llc_bytes / params_.row_bytes),
                     ~uint64_t{0});
  }
  const size_t set = static_cast<size_t>(row % llc_tags_.size());
  const bool hit = llc_tags_[set] == row;
  if (hit) {
    ++llc_hits_;
    return true;
  }
  ++llc_misses_;
  // DDIO write-allocate: an inbound write installs the line and is absorbed
  // by the cache, never waiting on DRAM. Reads install on miss (the refill
  // cost is paid via the DRAM path below).
  if (is_write && params_.ddio) {
    llc_tags_[set] = row;
    return true;
  }
  llc_tags_[set] = row;
  return false;
}

SimTime MemorySubsystem::AccessDram(SimTime ready, uint64_t row, bool is_write) {
  ++dram_accesses_;
  const uint64_t channel = channels_.Mod(row);
  const uint64_t bank_index = banks_per_channel_.Mod(channels_.Div(row));
  BusyServer& cmd = cmd_[channel];
  BusyServer& bank = banks_[channel * banks_per_channel_.value() + bank_index];
  const SimTime cmd_done = cmd.EnqueueAt(
      ready, is_write ? params_.cmd_write_service : params_.cmd_read_service);
  const SimTime bank_done = bank.EnqueueAt(
      cmd_done, is_write ? params_.bank_write_service : params_.bank_read_service);
  return bank_done + params_.dram_latency;
}

SimTime MemorySubsystem::AccessSmall(SimTime ready, uint64_t addr, bool is_write) {
  const uint64_t row = row_bytes_.Div(addr);
  if (LlcLookup(row, is_write)) {
    return llc_->EnqueueAt(ready, params_.llc_service) + params_.llc_latency;
  }
  return AccessDram(ready, row, is_write);
}

SimTime MemorySubsystem::AccessBulk(SimTime ready, uint64_t addr, uint32_t len,
                                    bool is_write) {
  // A long DMA burst streams rows across channels; the channel data buses
  // are the constraint, with one activation charged per row touched.
  const uint64_t first_row = row_bytes_.Div(addr);
  const uint64_t last_row = row_bytes_.Div(addr + len - 1);
  SimTime done = ready;
  for (uint64_t row = first_row; row <= last_row; ++row) {
    if (LlcLookup(row, is_write)) {
      const SimTime t =
          llc_->EnqueueAt(ready, params_.llc_service) + params_.llc_latency;
      done = std::max(done, t);
      continue;
    }
    ++dram_accesses_;
    const uint64_t channel = channels_.Mod(row);
    const uint64_t row_start = std::max(addr, row * params_.row_bytes);
    const uint64_t row_end = std::min<uint64_t>(addr + len, (row + 1) * params_.row_bytes);
    const SimTime stream =
        params_.channel_bandwidth.TransferTime(row_end - row_start);
    const SimTime t =
        data_bus_[channel].EnqueueAt(ready, stream) +
        params_.dram_latency;
    done = std::max(done, t);
  }
  return done;
}

SimTime MemorySubsystem::Serve(SimTime ready, uint64_t addr, uint32_t len, bool is_write,
                               uint64_t req_id) {
  ready = std::max(ready, sim_->now());
  const SimTime done = (len <= params_.bulk_threshold)
                           ? AccessSmall(ready, addr, is_write)
                           : AccessBulk(ready, addr, len, is_write);
  if (Tracer* const tr = sim_->tracer(); tr != nullptr) {
    tr->Span(name_, is_write ? "write" : "read", ready, done, req_id,
             is_write ? TraceCat::kAsync : TraceCat::kPhase);
  }
  return done;
}

void MemorySubsystem::RegisterMetrics(MetricsRegistry* reg) {
  using M = MemorySubsystem;
  static constexpr MetricsRegistry::Row<M> kRows[] = {
      {"llc_hits", "count", [](const M& m) -> double { return m.llc_hits_; }},
      {"llc_misses", "count", [](const M& m) -> double { return m.llc_misses_; }},
      {"llc_hit_ratio", "fraction", [](const M& m) {
         const uint64_t total = m.llc_hits_ + m.llc_misses_;
         return total > 0 ? static_cast<double>(m.llc_hits_) / static_cast<double>(total) : 0.0;
       }},
      {"dram_accesses", "count", [](const M& m) -> double { return m.dram_accesses_; }},
  };
  reg->Register(name_, *this, kRows);
}

}  // namespace snicsim

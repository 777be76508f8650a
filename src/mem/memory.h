// Host- and SoC-side memory subsystems.
//
// The paper's Advice #1 hinges on two architectural differences between the
// BlueField-2 SoC and the host (paper §3.2, Fig. 6/7):
//   * the host supports DDIO — inbound NIC writes allocate directly into the
//     last-level cache, so skewed (narrow-range) write workloads stay fast;
//     the ARM SoC does not, so every NIC access goes to DRAM;
//   * the SoC has a single DRAM channel vs. the host's eight, so bank-level
//     parallelism runs out quickly when the address range shrinks.
//
// The model: addresses map to (channel, bank) by row; each access occupies a
// per-channel command slot and then a per-bank service slot (reads are
// served faster than writes, as on real DRAM). An optional LLC absorbs
// accesses that hit; with DDIO, writes always allocate. Bulk (multi-row)
// DMA bursts stream through the channel data bus at the channel bandwidth.
#ifndef SRC_MEM_MEMORY_H_
#define SRC_MEM_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/units.h"
#include "src/obs/metrics.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"

namespace snicsim {

struct MemoryParams {
  int channels = 1;
  int banks_per_channel = 16;
  uint64_t row_bytes = 2 * kKiB;
  // Per-access service occupancy of one bank.
  SimTime bank_read_service = FromNanos(20);
  SimTime bank_write_service = FromNanos(44);
  // Per-access occupancy of the channel command pipeline.
  SimTime cmd_read_service = FromNanos(11.8);
  SimTime cmd_write_service = FromNanos(12.8);
  // Streaming bandwidth of one channel's data bus.
  Bandwidth channel_bandwidth = Bandwidth::GBps(25.6);
  // Fixed access latency (row activation + CAS + controller).
  SimTime dram_latency = FromNanos(90);

  // Last-level cache (absent on the SoC I/O path).
  bool has_llc = false;
  bool ddio = false;  // inbound I/O writes allocate into the LLC
  uint64_t llc_bytes = 36 * kMiB;
  int llc_slices = 8;
  SimTime llc_service = FromNanos(4);   // per-access slice occupancy
  SimTime llc_latency = FromNanos(30);  // load-to-use latency

  // Transfers larger than this stream through the channel data bus instead
  // of being modeled access-by-access.
  uint32_t bulk_threshold = 4096;

  // The host of the paper's SRV machines: 8× DDR4-2933 channels + DDIO LLC.
  static MemoryParams Host();
  // Same silicon with DDIO disabled (the paper's CLI-machine experiment).
  static MemoryParams HostNoDdio();
  // BlueField-2 SoC: one DDR4 channel, no DDIO.
  static MemoryParams Soc();
};

class MemorySubsystem {
 public:
  MemorySubsystem(Simulator* sim, std::string name, const MemoryParams& params);

  MemorySubsystem(const MemorySubsystem&) = delete;
  MemorySubsystem& operator=(const MemorySubsystem&) = delete;

  // Serves one access whose data arrives (write) or whose request arrives
  // (read) at `ready`. Returns the completion time: data available for
  // reads, globally visible for writes. `cb`, if given, fires then.
  // `req_id` threads the originating request through to trace spans: reads
  // trace as critical-path phases, writes as async (posted, off the
  // completion path).
  template <typename F = std::nullptr_t>
  SimTime Access(SimTime ready, uint64_t addr, uint32_t len, bool is_write,
                 F&& cb = nullptr, uint64_t req_id = 0) {
    const SimTime done = Serve(ready, addr, len, is_write, req_id);
    sim_->AtIfAny(done, std::forward<F>(cb));
    return done;
  }

  void RegisterMetrics(MetricsRegistry* reg);

  const MemoryParams& params() const { return params_; }
  uint64_t llc_hits() const { return llc_hits_; }
  uint64_t llc_misses() const { return llc_misses_; }
  uint64_t dram_accesses() const { return dram_accesses_; }
  const std::string& name() const { return name_; }

 private:
  // Access without the callback: charges the servers and returns the
  // completion time.
  SimTime Serve(SimTime ready, uint64_t addr, uint32_t len, bool is_write, uint64_t req_id);
  SimTime AccessSmall(SimTime ready, uint64_t addr, bool is_write);
  SimTime AccessBulk(SimTime ready, uint64_t addr, uint32_t len, bool is_write);
  SimTime AccessDram(SimTime ready, uint64_t row, bool is_write);
  // Returns true if the row is (now) LLC-resident for this access.
  bool LlcLookup(uint64_t row, bool is_write);

  Simulator* sim_;
  std::string name_;
  MemoryParams params_;
  // The address map's divisors (row_bytes, channels, banks_per_channel).
  Divisor row_bytes_;
  Divisor channels_;
  Divisor banks_per_channel_;

  // Sized once at construction; the servers are held by value.
  std::vector<BusyServer> cmd_;       // one per channel
  std::vector<BusyServer> banks_;     // channels * banks
  std::vector<BusyServer> data_bus_;  // one per channel
  std::optional<MultiServer> llc_;    // has_llc only

  // Direct-mapped row-granular LLC presence table (random-ish replacement by
  // direct conflict). Sized from llc_bytes / row_bytes at the first lookup,
  // so a testbed that never touches memory never fills it.
  std::vector<uint64_t> llc_tags_;

  uint64_t llc_hits_ = 0;
  uint64_t llc_misses_ = 0;
  uint64_t dram_accesses_ = 0;
};

}  // namespace snicsim

#endif  // SRC_MEM_MEMORY_H_

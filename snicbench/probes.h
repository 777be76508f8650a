// Layer probes for the traced snicbench run.
//
// Each probe times a tight loop of calls into one layer's public functions
// from outside the library, on inputs drawn from the workload's own
// parameters (server count, key count and skew, value sizes, thread count,
// timeouts) and its seed. A probe reports the median over several timed
// batches of the per-call cost in nanoseconds.
#ifndef SNICBENCH_PROBES_H_
#define SNICBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace snicbench {

// What a workload hands the probes. Every field comes from the workload's
// parameters; a workload without a layer (no ring, no tenant plane) states
// the nearest value it does have in its definition in snicbench.cc.
struct ProbeInputs {
  uint64_t seed = 1;
  int servers = 2;          // ring / parallel-core domains (>= 2)
  int sim_threads = 1;      // ParallelSimulator worker threads
  uint64_t keys = 4096;     // key space the Zipf draws cover
  double zipf_theta = 0.99;  // key skew, in (0, 1)
  uint64_t cached_keys = 1024;
  std::vector<uint32_t> class_bytes = {64};  // value / payload sizes
  std::vector<double> mix = {1.0};          // weights parallel to class_bytes
  double write_fraction = 0.1;
  uint64_t users = 1000;         // closed-loop population per server
  double think_mean_us = 1000.0;
  snicsim::SimTime timeout = snicsim::FromMicros(25);   // cancel-heavy clock
  snicsim::SimTime lookahead = snicsim::FromMicros(2);  // cross-domain edge
  int soc_cores = 2;                  // arbiter pool cores
  std::vector<int> tenant_weights = {1, 1};
};

struct ProbeResult {
  std::string name;  // e.g. "sim.event_ns"
  double ns = 0.0;   // median per-call cost
};

// Runs every probe once (a few hundred milliseconds in total).
std::vector<ProbeResult> RunProbes(const ProbeInputs& in);

}  // namespace snicbench

#endif  // SNICBENCH_PROBES_H_

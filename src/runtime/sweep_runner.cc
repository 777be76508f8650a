#include "src/runtime/sweep_runner.h"

#include <limits>
#include <string>

#include "src/common/spec.h"

namespace snicsim::runtime {

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

// A count flag rejects a value outside int instead of truncating it, and a value below 1
// instead of remapping it.
int CountFlag(Flags& flags, const std::string& name, int def, const std::string& help) {
  const int64_t v = flags.GetInt(name, def, help);
  if (v > std::numeric_limits<int>::max()) {
    spec::ExitBadFlag(name, std::to_string(v) + " does not fit an int");
  }
  if (v < 1) {
    spec::ExitBadFlag(name, std::to_string(v) + " is below 1");
  }
  return static_cast<int>(v);
}

}  // namespace

int JobsFlag(Flags& flags) {
  return CountFlag(flags, "jobs", DefaultJobs(),
                   "experiments to run concurrently (sweep points are independent; "
                   "output is byte-identical for any value)");
}

int SimThreadsFlag(Flags& flags) {
  return CountFlag(flags, "sim-threads", 1,
                   "event cores per simulation (multi-domain sims shard per-server "
                   "domains across them; output is byte-identical for any value)");
}

}  // namespace snicsim::runtime

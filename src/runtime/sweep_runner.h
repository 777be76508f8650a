// Parallel execution of independent sweep points.
//
// Every figure is a grid of fully independent experiments, each owning its Simulator and
// RNGs. SweepQueue runs the points on up to --jobs threads and returns the results in Add()
// order; benches print only after Run(), so `--jobs=N` output is byte-identical to serial.
#ifndef SRC_RUNTIME_SWEEP_RUNNER_H_
#define SRC_RUNTIME_SWEEP_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/log.h"

namespace snicsim::runtime {

// Number of workers used when --jobs is not given: hardware concurrency,
// with a floor of 1.
int DefaultJobs();

// Registers the shared --jobs flag every bench binary accepts. Call before flags.Finish().
// A value below 1 exits 2.
int JobsFlag(Flags& flags);

// Registers the --sim-threads flag of the multi-domain benches (rack_scale, sec_membership):
// event cores *inside* one simulation, which shards per-server domains across them (DESIGN.md
// §12), as opposed to --jobs which parallelizes across whole experiments. Output is
// byte-identical for any value. Total worker threads ≈ jobs × sim_threads — keep the product
// near the core count. A value below 1 exits 2.
int SimThreadsFlag(Flags& flags);

// Order-preserving sweep for the bench mains: Add() every experiment in the
// exact order the table-building code will consume it, Run() once, then
// read the results sequentially (or via the index Add returned). Keeping
// submission order == consumption order is what makes the parallel table
// byte-identical to the serial one.
template <typename R>
class SweepQueue {
  static_assert(!std::is_same_v<R, bool>,
                "std::vector<bool> elements alias; use int results instead");

 public:
  explicit SweepQueue(int jobs) : jobs_(jobs) { SNIC_CHECK_GE(jobs, 1); }

  size_t Add(std::function<R()> point) {
    points_.push_back(std::move(point));
    return points_.size() - 1;
  }

  // Runs every added point and returns the results in Add() order. The points run on
  // min(jobs, points) runners — the calling thread plus helper threads — that each claim the
  // next unrun point from one shared counter, so jobs=1 starts no thread. A point may block on
  // another only if that many points can make progress at once. If any point threw, the first
  // exception observed is rethrown once every point has run.
  std::vector<R> Run() {
    const std::vector<std::function<R()>> points = std::exchange(points_, {});
    std::vector<R> results(points.size());
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::exception_ptr error;  // guarded by mu
    const auto runner = [&] {
      for (size_t i = next++; i < points.size(); i = next++) {
        try {
          results[i] = points[i]();
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (error == nullptr) {
            error = std::current_exception();
          }
        }
      }
    };
    // Declared after the state the helpers use, so a throwing emplace_back still joins them.
    std::vector<std::jthread> helpers;
    for (size_t t = 1; t < std::min(static_cast<size_t>(jobs_), points.size()); ++t) {
      helpers.emplace_back(runner);
    }
    runner();
    helpers.clear();  // joins
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
    return results;
  }

 private:
  int jobs_;
  std::vector<std::function<R()>> points_;
};

}  // namespace snicsim::runtime

#endif  // SRC_RUNTIME_SWEEP_RUNNER_H_

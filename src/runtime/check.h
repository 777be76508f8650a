// The --check driver of the self-checking benches (DESIGN.md §7.1).
//
// A bench runs its cells once with RunEach and prints its tables. Under --check it then opens a
// Check, which prints the "== --check: <title> ==" header. Replay reruns the cells serially and
// compares their digests with the first run's; each bench clause that fails prints one
// "FAIL: …" or "FAIL(<label>): …" line; Finish prints "CHECK PASSED: <summary>" or
// "CHECK FAILED" and returns the exit code. Only failures print, so a passing run's --check
// stdout is exactly the header and the summary line.
#ifndef SRC_RUNTIME_CHECK_H_
#define SRC_RUNTIME_CHECK_H_

#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/runtime/sweep_runner.h"

namespace snicsim::runtime {

// Runs run(cell) for every cell on a SweepQueue of `jobs` runners; results in cell order.
template <typename Cell, typename Run>
auto RunEach(const std::vector<Cell>& cells, int jobs, Run run) {
  SweepQueue<std::invoke_result_t<Run&, const Cell&>> sweep(jobs);
  for (const Cell& c : cells) {
    sweep.Add([&run, &c] { return run(c); });
  }
  return sweep.Run();
}

class Check {
 public:
  // Prints the header, after a blank line. `jobs` is the --jobs the bench's cells ran at.
  Check(const std::string& title, int jobs);

  // Reruns `cells` at --jobs=1, and at sim_threads=1 where a cell carries that field, and fails
  // unless every cell's digest(result) equals the one in `results`, the cells' first run.
  template <typename Cell, typename Result, typename Run, typename Digest>
  void Replay(std::vector<Cell> cells, const std::vector<Result>& results, Run run,
              Digest digest) {
    int sim_threads = 0;  // 0: the cells run in one domain, with no such field
    if constexpr (requires(Cell c) { c.sim_threads; }) {
      for (Cell& c : cells) {
        sim_threads = std::exchange(c.sim_threads, 1);
      }
    }
    const auto digests = [&digest](const std::vector<Result>& rs) {
      std::vector<std::string> out;
      for (const Result& r : rs) {
        out.push_back(std::invoke(digest, r));
      }
      return out;
    };
    CompareDigests(digests(results), digests(RunEach(cells, /*jobs=*/1, run)), sim_threads);
  }

  // A clause: when `failed`, prints "FAIL: <fmt…>" and fails the run. Returns `failed`.
  bool FailIf(bool failed, const char* fmt, ...) __attribute__((format(printf, 3, 4)));
  // The same clause for one labelled cell, printed as "FAIL(<label>): <fmt…>".
  bool FailAt(const std::string& label, bool failed, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));
  // One "FAIL(<label>): <break>" per broken ledger identity, as a LedgerBreaks() names it.
  void Ledger(const std::string& label, const std::vector<std::string>& breaks);

  // Prints "CHECK PASSED: <summary>" if no clause failed, else "CHECK FAILED"; returns the
  // exit code, 0 or 1.
  int Finish(const std::string& summary) const;

 private:
  void CompareDigests(const std::vector<std::string>& here, const std::vector<std::string>& serial,
                      int sim_threads);

  int jobs_;
  bool ok_ = true;
};

}  // namespace snicsim::runtime

#endif  // SRC_RUNTIME_CHECK_H_

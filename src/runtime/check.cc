#include "src/runtime/check.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace snicsim::runtime {
namespace {

void PrintFail(const std::string& label, const char* fmt, va_list args) {
  if (label.empty()) {
    std::printf("FAIL: ");
  } else {
    std::printf("FAIL(%s): ", label.c_str());
  }
  std::vprintf(fmt, args);
  std::printf("\n");
}

}  // namespace

Check::Check(const std::string& title, int jobs) : jobs_(jobs) {
  std::printf("\n== --check: %s ==\n", title.c_str());
}

bool Check::FailIf(bool failed, const char* fmt, ...) {
  if (failed) {
    va_list args;
    va_start(args, fmt);
    PrintFail("", fmt, args);
    va_end(args);
    ok_ = false;
  }
  return failed;
}

bool Check::FailAt(const std::string& label, bool failed, const char* fmt, ...) {
  if (failed) {
    va_list args;
    va_start(args, fmt);
    PrintFail(label, fmt, args);
    va_end(args);
    ok_ = false;
  }
  return failed;
}

void Check::Ledger(const std::string& label, const std::vector<std::string>& breaks) {
  for (const std::string& broken : breaks) {
    FailAt(label, true, "%s", broken.c_str());
  }
}

int Check::Finish(const std::string& summary) const {
  if (ok_) {
    std::printf("CHECK PASSED: %s\n", summary.c_str());
    return 0;
  }
  std::printf("CHECK FAILED\n");
  return 1;
}

void Check::CompareDigests(const std::vector<std::string>& here,
                           const std::vector<std::string>& serial, int sim_threads) {
  const auto [a, b] = std::mismatch(here.begin(), here.end(), serial.begin(), serial.end());
  if (a == here.end() && b == serial.end()) {
    return;
  }
  const size_t first = static_cast<size_t>(a - here.begin());
  if (sim_threads > 0) {
    FailIf(true,
           "fingerprints differ from --jobs=1 --sim-threads=1 (ran --jobs=%d --sim-threads=%d; "
           "first at cell %zu)",
           jobs_, sim_threads, first);
  } else {
    FailIf(true, "fingerprints differ between --jobs=1 and --jobs=%d (first at cell %zu)", jobs_,
           first);
  }
}

}  // namespace snicsim::runtime

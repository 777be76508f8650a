// Responder-address generation.
//
// The paper's one-sided workloads pick random addresses from a 10 GB region
// by default (§3 evaluation setup); the skew study (Fig. 7) shrinks the
// range so accesses concentrate on fewer DRAM rows/banks.
#ifndef SRC_WORKLOAD_ADDR_GEN_H_
#define SRC_WORKLOAD_ADDR_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace snicsim {

class AddressGenerator {
 public:
  // Uniform over [base, base + range), aligned to `align`.
  AddressGenerator(uint64_t base, uint64_t range, uint64_t align = 64,
                   uint64_t seed = 42)
      : base_(base), range_(std::max<uint64_t>(range, align)), align_(align), rng_(seed) {}

  static AddressGenerator Default10G(uint64_t seed = 42) {
    return AddressGenerator(0, 10ull * 1024 * kMiB, 64, seed);
  }

  uint64_t Next() {
    const uint64_t slots = range_ / align_;
    return base_ + rng_.NextBelow(slots) * align_;
  }

  uint64_t base() const { return base_; }
  uint64_t range() const { return range_; }
  uint64_t align() const { return align_; }

  // A copy of this generator's region with a different seed (so concurrent
  // threads draw independent streams over the same range).
  AddressGenerator WithSeed(uint64_t seed) const {
    return AddressGenerator(base_, range_, align_, seed);
  }

 private:
  uint64_t base_;
  uint64_t range_;
  uint64_t align_;
  Rng rng_;
};

// The state-free half of Zipfian item selection: precomputed Gray et al.
// quick-zipf coefficients with an O(1) uniform-to-rank transform. One
// ZipfDist is shared read-only by thousands of logical clients (the fleet),
// each drawing uniforms from its own Rng stream — the setup cost is paid
// once per thread per (items, theta), and draws stay completion-order
// independent.
class ZipfDist {
 public:
  // `items` in [1, 2^40], `theta` in (0, 1): 0.99 is the YCSB default.
  explicit ZipfDist(uint64_t items, double theta = 0.99)
      : items_(items), theta_(theta) {
    SNIC_CHECK_GT(items, 0u);
    SNIC_CHECK(theta > 0.0 && theta < 1.0);
    zetan_ = MemoZetan();
    zeta2_ = Zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

  // Maps a uniform u in [0, 1) to a rank in [0, items): rank 0 is hottest.
  uint64_t RankOf(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) {
      return 0;
    }
    if (uz < 1.0 + std::pow(0.5, theta_)) {
      return 1;
    }
    const double n = static_cast<double>(items_);
    const uint64_t rank =
        static_cast<uint64_t>(n * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= items_ ? items_ - 1 : rank;
  }

  uint64_t items() const { return items_; }
  double theta() const { return theta_; }

 private:
  // Zeta(items_), from a small per-thread table keyed on the exact
  // (items, theta) pair. The normalizer is up to 10,000 pow() calls and a
  // pure function of its key, so a sweep that rebuilds one experiment per
  // point pays it once; a hit returns the very double the loop computed.
  // The table is bounded (round-robin replacement), and per-thread, so
  // concurrent sweep runners share nothing and take no lock.
  double MemoZetan() const {
    struct Entry {
      uint64_t items;  // 0 = empty: items is never 0
      double theta;
      double zetan;
    };
    static constexpr int kEntries = 8;
    thread_local Entry memo[kEntries] = {};
    thread_local int next = 0;
    for (const Entry& e : memo) {
      if (e.items == items_ && e.theta == theta_) {
        return e.zetan;
      }
    }
    Entry& e = memo[next];
    next = (next + 1) % kEntries;
    e = {items_, theta_, Zeta(items_)};
    return e.zetan;
  }

  double Zeta(uint64_t n) const {
    // Exact for small n; the standard integral approximation beyond that
    // (the generator only needs zetan_ to ~1% for a faithful tail).
    double sum = 0.0;
    const uint64_t exact = n < 10000 ? n : 10000;
    for (uint64_t i = 1; i <= exact; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta_);
    }
    if (n > exact) {
      const double a = 1.0 - theta_;
      sum += (std::pow(static_cast<double>(n), a) -
              std::pow(static_cast<double>(exact), a)) /
             a;
    }
    return sum;
  }

  uint64_t items_;
  double theta_;
  double zetan_ = 0.0;
  double zeta2_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
};

// Zipfian item selection (YCSB-style), for workloads where a few keys are
// hot — the realistic version of Fig. 7's shrunken-range skew. Bundles a
// ZipfDist with its own Rng stream; draws are byte-identical to the
// pre-ZipfDist generator.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t items, double theta = 0.99, uint64_t seed = 42)
      : dist_(items, theta), rng_(seed) {}

  // Returns a rank in [0, items): rank 0 is the hottest item.
  uint64_t Next() { return dist_.RankOf(rng_.NextDouble()); }

  uint64_t items() const { return dist_.items(); }
  double theta() const { return dist_.theta(); }
  const ZipfDist& dist() const { return dist_; }

 private:
  ZipfDist dist_;
  Rng rng_;
};

}  // namespace snicsim

#endif  // SRC_WORKLOAD_ADDR_GEN_H_

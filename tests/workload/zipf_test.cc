#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/workload/addr_gen.h"

namespace snicsim {
namespace {

TEST(Zipf, RanksInRange) {
  ZipfGenerator z(1000, 0.99, 7);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LT(z.Next(), 1000u);
  }
}

TEST(Zipf, Deterministic) {
  ZipfGenerator a(5000, 0.9, 3);
  ZipfGenerator b(5000, 0.9, 3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Zipf, HeadIsHot) {
  ZipfGenerator z(100000, 0.99, 11);
  const int n = 200000;
  int head = 0;
  for (int i = 0; i < n; ++i) {
    head += z.Next() < 1000 ? 1 : 0;  // hottest 1%
  }
  // Under zipf(0.99), the top 1% of items draw a large share of accesses;
  // under uniform they would draw ~1%.
  EXPECT_GT(head, n / 4);
}

TEST(Zipf, RankFrequencyMonotone) {
  ZipfGenerator z(64, 0.99, 5);
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 300000; ++i) {
    counts[z.Next()]++;
  }
  EXPECT_GT(counts[0], counts[8]);
  EXPECT_GT(counts[8], counts[32]);
  EXPECT_GT(counts[32], 0);
}

TEST(Zipf, LowerThetaIsFlatter) {
  auto head_share = [](double theta) {
    ZipfGenerator z(10000, theta, 9);
    int head = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      head += z.Next() < 100 ? 1 : 0;
    }
    return head;
  };
  EXPECT_GT(head_share(0.95), head_share(0.5));
}

TEST(Zipf, SingleItemAlwaysZero) {
  ZipfGenerator z(1, 0.9, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(z.Next(), 0u);
  }
}

// ZipfDist as it was before its normalizer was memoized: Zeta(items) is
// recomputed by the same loop on every construction. The memo must return
// exactly this double, so every rank below must match it bit for bit.
class ReferenceZipf {
 public:
  ReferenceZipf(uint64_t items, double theta) : items_(items), theta_(theta) {
    zetan_ = Zeta(items);
    zeta2_ = Zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(items_), 1.0 - theta_)) /
           (1.0 - zeta2_ / zetan_);
  }

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

  // The uniforms at which the rank leaves 0 and 1.
  double rank0_edge() const { return 1.0 / zetan_; }
  double rank1_edge() const { return (1.0 + std::pow(0.5, theta_)) / zetan_; }

 private:
  double Zeta(uint64_t n) const {
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

struct ZipfKey {
  uint64_t items;
  double theta;
};

constexpr ZipfKey kZipfKeys[] = {{1, 0.5},      {4096, 0.99},  {10000, 0.99},
                                 {16384, 0.9},  {65536, 0.99}, {1000000, 0.5}};

// 10^4 uniforms in [0, 1): the ends, eight ulps either side of the rank-0
// and rank-1 edges (where a normalizer off by one ulp flips a rank), and
// the rest from one fixed stream.
std::vector<double> Probes(const ReferenceZipf& ref) {
  std::vector<double> u = {0.0, std::nextafter(1.0, 0.0)};
  for (double edge : {ref.rank0_edge(), ref.rank1_edge()}) {
    double below = edge;
    double above = edge;
    for (int i = 0; i < 8; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 1.0);
      u.push_back(below);
      u.push_back(above);
    }
    u.push_back(edge);
  }
  Rng rng(2024);
  while (u.size() < 10000) {
    u.push_back(rng.NextDouble());
  }
  for (double& x : u) {
    x = std::min(x, std::nextafter(1.0, 0.0));  // few items put an edge at or past 1
  }
  return u;
}

// Probes on which `dist` and `ref` rank differently.
int Mismatches(const ZipfDist& dist, const ReferenceZipf& ref, const std::vector<double>& u) {
  int n = 0;
  for (double x : u) {
    n += dist.RankOf(x) == ref.RankOf(x) ? 0 : 1;
  }
  return n;
}

// The per-thread normalizer memo never drifts from the loop it replaces:
// on a miss, on a hit, on a thread with its own table, and after eviction.
TEST(ZipfMemo, RanksMatchTheUnmemoizedNormalizer) {
  for (const ZipfKey& k : kZipfKeys) {
    SCOPED_TRACE(testing::Message() << "items=" << k.items << " theta=" << k.theta);
    const ReferenceZipf ref(k.items, k.theta);
    const std::vector<double> u = Probes(ref);
    ASSERT_EQ(u.size(), 10000u);
    EXPECT_EQ(Mismatches(ZipfDist(k.items, k.theta), ref, u), 0) << "first build";
    EXPECT_EQ(Mismatches(ZipfDist(k.items, k.theta), ref, u), 0) << "second build";
    int on_thread = -1;
    std::thread([&] { on_thread = Mismatches(ZipfDist(k.items, k.theta), ref, u); }).join();
    EXPECT_EQ(on_thread, 0) << "second thread";
  }
  // More distinct keys than the table holds: every key above is evicted.
  for (uint64_t items = 100; items < 116; ++items) {
    const ZipfDist filler(items, 0.7);
    EXPECT_LT(filler.RankOf(0.5), items);
  }
  for (const ZipfKey& k : kZipfKeys) {
    SCOPED_TRACE(testing::Message() << "items=" << k.items << " theta=" << k.theta);
    const ReferenceZipf ref(k.items, k.theta);
    EXPECT_EQ(Mismatches(ZipfDist(k.items, k.theta), ref, Probes(ref)), 0) << "after eviction";
  }
}

}  // namespace
}  // namespace snicsim

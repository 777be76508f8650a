#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace snicsim {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(r.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroBound) {
  Rng r(7);
  EXPECT_EQ(r.NextBelow(0), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughUniformity) {
  Rng r(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[r.NextBelow(10)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% of expected
  }
}

TEST(Rng, NoShortCycles) {
  Rng r(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    seen.insert(r.Next());
  }
  EXPECT_EQ(seen.size(), 10000u);
}

// The reference: all eight bytes, low byte first, each XORed in and
// multiplied by the FNV prime.
uint64_t FnvMixByteLoop(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ULL;
  }
  return h;
}

// FnvMix stops at the last non-zero byte and multiplies by a power of the
// prime for the rest; that must be the byte loop exactly, for values of
// every byte length and with zero bytes inside them.
TEST(FnvMix, MatchesTheByteLoop) {
  Rng r(2024);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t h = r.Next();
    const int bytes = i % 9;  // significant bytes: 0..8
    uint64_t v = bytes == 0 ? 0 : r.Next() >> (64 - 8 * bytes);
    if (i % 4 == 1) {
      v &= 0x00ff00ff00ff00ffULL;  // zero bytes between non-zero ones
    }
    ASSERT_EQ(FnvMix(h, v), FnvMixByteLoop(h, v)) << "h=" << h << " v=" << v;
  }
  for (const uint64_t v : {0ULL, 1ULL, 0x80ULL, 0x100ULL, 1ULL << 63, ~0ULL}) {
    EXPECT_EQ(FnvMix(1469598103934665603ULL, v),
              FnvMixByteLoop(1469598103934665603ULL, v));
  }
}

}  // namespace
}  // namespace snicsim

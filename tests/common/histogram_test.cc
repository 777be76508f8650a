#include "src/common/histogram.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "tests/common/allocation_counter.h"

namespace snicsim {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  EXPECT_EQ(h.Percentile(50), 1234);
  EXPECT_EQ(h.Percentile(99.9), 1234);
}

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (int i = 0; i < 32; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.Percentile(100), 31);
  EXPECT_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 15.5);
}

TEST(Histogram, PercentileWithinRelativeError) {
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBelow(1'000'000)) + 1);
  }
  // Median of uniform [1, 1e6] is ~5e5; log-bucketing with 5 sub-bucket bits
  // bounds relative error around 3%.
  const double p50 = static_cast<double>(h.Percentile(50));
  EXPECT_NEAR(p50, 5e5, 5e5 * 0.05);
  const double p90 = static_cast<double>(h.Percentile(90));
  EXPECT_NEAR(p90, 9e5, 9e5 * 0.05);
}

TEST(Histogram, CountedRecord) {
  Histogram h;
  h.Record(100, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.Percentile(1), 100);
  h.Record(100, 0);  // no-op
  EXPECT_EQ(h.count(), 10u);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

// The bucket array grows to the highest recorded bucket, so an unused
// histogram costs no heap memory.
TEST(Histogram, ConstructionAllocatesNothing) {
  const uint64_t before = g_allocations;
  Histogram h;
  EXPECT_EQ(g_allocations, before);
  h.Record(7);
  EXPECT_EQ(h.Percentile(50), 7);
}

// Merging histograms of different spans, in either order, reads exactly
// like recording every sample into one histogram.
TEST(Histogram, MergeEitherWayMatchesOneHistogram) {
  Histogram narrow;
  Histogram wide;
  Histogram all;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto small = static_cast<int64_t>(rng.NextBelow(100));
    const auto large = static_cast<int64_t>(rng.NextBelow(1u << 30));
    narrow.Record(small);
    wide.Record(large);
    all.Record(small);
    all.Record(large);
  }
  Histogram narrow_first = narrow;
  narrow_first.Merge(wide);
  Histogram wide_first = wide;
  wide_first.Merge(narrow);
  for (const Histogram* h : {&narrow_first, &wide_first}) {
    EXPECT_EQ(h->count(), all.count());
    EXPECT_EQ(h->min(), all.min());
    EXPECT_EQ(h->max(), all.max());
    EXPECT_EQ(h->Summary(), all.Summary());
    for (double p : {0.0, 1.0, 25.0, 50.0, 50.1, 75.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(h->Percentile(p), all.Percentile(p)) << "p" << p;
    }
  }
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  h.Record(3);
  EXPECT_EQ(h.Percentile(100), 3);
}

TEST(Histogram, NegativeClampedToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), -5);  // min/max keep the raw value; bucket clamps
  EXPECT_LE(h.Percentile(50), 0);
}

TEST(Histogram, PercentilesMonotonic) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextBelow(1u << 20)));
  }
  int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const int64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(Histogram, SummaryMentionsPercentiles) {
  Histogram h;
  h.Record(FromMicros(2));
  const std::string s = h.Summary();
  EXPECT_NE(s.find("p50="), std::string::npos);
  EXPECT_NE(s.find("p99="), std::string::npos);
}

}  // namespace
}  // namespace snicsim

#include "src/common/units.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>

namespace snicsim {
namespace {

TEST(Units, TimeConversions) {
  EXPECT_EQ(FromNanos(1), kNanos);
  EXPECT_EQ(FromMicros(1), kMicros);
  EXPECT_EQ(FromMillis(1), kMillis);
  EXPECT_DOUBLE_EQ(ToNanos(FromNanos(123.0)), 123.0);
  EXPECT_DOUBLE_EQ(ToMicros(FromMicros(7.5)), 7.5);
  EXPECT_DOUBLE_EQ(ToSeconds(kSeconds), 1.0);
}

TEST(Units, BandwidthConstruction) {
  const Bandwidth b = Bandwidth::Gbps(200);
  EXPECT_DOUBLE_EQ(b.gbps(), 200.0);
  EXPECT_DOUBLE_EQ(b.bytes_per_sec(), 25e9);
  EXPECT_DOUBLE_EQ(Bandwidth::GBps(25).bytes_per_sec(), 25e9);
  EXPECT_TRUE(Bandwidth().is_zero());
  EXPECT_FALSE(b.is_zero());
}

TEST(Units, TransferTimeMatchesRate) {
  const Bandwidth b = Bandwidth::GBps(1);  // 1 byte per ns
  EXPECT_EQ(b.TransferTime(1000), FromNanos(1000));
  EXPECT_EQ(b.TransferTime(0), 0);
  // Zero bandwidth = ideal wire.
  EXPECT_EQ(Bandwidth().TransferTime(1 * kGiB), 0);
}

TEST(Units, RateServiceTime) {
  const Rate r = Rate::Mpps(100);
  EXPECT_EQ(r.ServiceTime(), FromNanos(10));
  EXPECT_EQ(r.ServiceTime(5), FromNanos(50));
  EXPECT_DOUBLE_EQ(r.mpps(), 100.0);
  EXPECT_EQ(Rate().ServiceTime(), 0);
}

TEST(Units, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 512), 0u);
  EXPECT_EQ(CeilDiv(1, 512), 1u);
  EXPECT_EQ(CeilDiv(512, 512), 1u);
  EXPECT_EQ(CeilDiv(513, 512), 2u);
  EXPECT_EQ(CeilDiv(9 * kMiB, 128), 9u * kMiB / 128);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(64), "64B");
  EXPECT_EQ(FormatBytes(2048), "2KB");
  EXPECT_EQ(FormatBytes(9 * kMiB), "9MB");
  EXPECT_EQ(FormatBytes(3 * kGiB), "3GB");
  EXPECT_EQ(FormatBytes(1536), "1.5KB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(FormatTime(FromNanos(1.5)), "1.5ns");
  EXPECT_EQ(FormatTime(FromMicros(2.6)), "2.60us");
  EXPECT_EQ(FormatTime(FromMillis(3)), "3.00ms");
  EXPECT_EQ(FormatTime(500), "500ps");
}

TEST(Units, DivisorMatchesPlainDivision) {
  for (const uint64_t d : {1ULL, 2ULL, 8ULL, 128ULL, 512ULL, 2048ULL, 3ULL, 12ULL, 18432ULL}) {
    const Divisor div(d);
    EXPECT_EQ(div.value(), d);
    for (const uint64_t n : std::initializer_list<uint64_t>{
             0, 1, 127, 128, 129, 4095, 4096, 10 * kMiB + 17, (1ULL << 40) + 3}) {
      EXPECT_EQ(div.Div(n), n / d) << n << " / " << d;
      EXPECT_EQ(div.Mod(n), n % d) << n << " % " << d;
      EXPECT_EQ(div.CeilDiv(n), CeilDiv(n, d)) << n << " / " << d;
    }
  }
}

}  // namespace
}  // namespace snicsim

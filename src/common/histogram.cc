#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/log.h"
#include "src/common/units.h"

namespace snicsim {

Histogram::Histogram(int sub_bucket_bits)
    : sub_bucket_bits_(sub_bucket_bits), sub_bucket_count_(int64_t{1} << sub_bucket_bits) {
  SNIC_CHECK(sub_bucket_bits >= 1 && sub_bucket_bits <= 16);
  // 64 power-of-two ranges cover the whole int64 positive domain.
  buckets_.assign(static_cast<size_t>(64 * sub_bucket_count_), 0);
}

int Histogram::BucketFor(int64_t value) const {
  if (value < 0) {
    value = 0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < static_cast<uint64_t>(sub_bucket_count_)) {
    return static_cast<int>(v);
  }
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - sub_bucket_bits_ + 1;
  const int64_t sub = static_cast<int64_t>(v >> shift) - (sub_bucket_count_ >> 1);
  const int range = msb - sub_bucket_bits_ + 1;
  return static_cast<int>(range * (sub_bucket_count_ >> 1) + sub_bucket_count_ +
                          (sub - (sub_bucket_count_ >> 1)));
}

int64_t Histogram::BucketHigh(int index) const {
  if (index < sub_bucket_count_) {
    return index;
  }
  const int64_t half = sub_bucket_count_ >> 1;
  const int range = static_cast<int>((index - sub_bucket_count_) / half) + 1;
  const int64_t sub = (index - sub_bucket_count_) % half + half;
  return ((sub + 1) << range) - 1;
}

void Histogram::Record(int64_t value) { Record(value, 1); }

void Histogram::Record(int64_t value, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  const int b = BucketFor(value);
  SNIC_CHECK_LT(static_cast<size_t>(b), buckets_.size());
  buckets_[static_cast<size_t>(b)] += n;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

void Histogram::Merge(const Histogram& other) {
  SNIC_CHECK_EQ(sub_bucket_bits_, other.sub_bucket_bits_);
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0;
  max_ = 0;
}

int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const auto target =
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) {
      return std::clamp(BucketHigh(static_cast<int>(i)), min_, max_);
    }
  }
  return max_;
}

std::string Histogram::Summary(bool as_time) const {
  auto fmt = [as_time](int64_t v) {
    return as_time ? FormatTime(v) : std::to_string(v);
  };
  return "p50=" + fmt(Percentile(50)) + " p90=" + fmt(Percentile(90)) +
         " p99=" + fmt(Percentile(99)) + " max=" + fmt(max());
}

}  // namespace snicsim

#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/units.h"

namespace snicsim {

int Histogram::BucketFor(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < static_cast<uint64_t>(kSubBucketCount)) {
    return static_cast<int>(v);
  }
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - kSubBucketBits + 1;
  const int64_t sub = static_cast<int64_t>(v >> shift) - (kSubBucketCount >> 1);
  const int range = msb - kSubBucketBits + 1;
  return static_cast<int>(range * (kSubBucketCount >> 1) + kSubBucketCount +
                          (sub - (kSubBucketCount >> 1)));
}

int64_t Histogram::BucketHigh(int index) {
  if (index < kSubBucketCount) {
    return index;
  }
  const int64_t half = kSubBucketCount >> 1;
  const int range = static_cast<int>((index - kSubBucketCount) / half) + 1;
  const int64_t sub = (index - kSubBucketCount) % half + half;
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
  const auto b = static_cast<size_t>(BucketFor(value));
  if (b >= buckets_.size()) [[unlikely]] {
    buckets_.resize(b + 1, 0);
  }
  buckets_[b] += n;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

void Histogram::Merge(const Histogram& other) {
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
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::Reset() {
  buckets_.clear();
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

// Log-bucketed latency histogram with percentile queries.
//
// Buckets grow geometrically (HdrHistogram-style: linear sub-buckets within
// power-of-two ranges) so that a single histogram covers nanoseconds to
// seconds with bounded relative error and O(1) recording.
#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace snicsim {

class Histogram {
 public:
  // An empty histogram holds no buckets: the bucket array grows to the
  // highest bucket recorded, so building one allocates nothing.
  Histogram() = default;

  void Record(int64_t value);
  void Record(int64_t value, uint64_t count);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const { return max_; }
  double Mean() const;
  // p in [0, 100]. Returns 0 on an empty histogram.
  int64_t Percentile(double p) const;
  int64_t Median() const { return Percentile(50.0); }

  // "p50=... p99=... max=..." summary for bench reporters; values are
  // formatted as times when `as_time` is set.
  std::string Summary(bool as_time = true) const;

 private:
  // 2^5 linear sub-buckets per power-of-two range give <= ~3% relative
  // error on percentile queries.
  static constexpr int kSubBucketBits = 5;
  static constexpr int64_t kSubBucketCount = int64_t{1} << kSubBucketBits;

  static int BucketFor(int64_t value);
  static int64_t BucketHigh(int index);

  std::vector<uint64_t> buckets_;  // up to the highest nonzero bucket
  uint64_t count_ = 0;
  double sum_ = 0.0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

}  // namespace snicsim

#endif  // SRC_COMMON_HISTOGRAM_H_

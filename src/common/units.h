// Strongly-suffixed simulation units.
//
// All simulated time is kept in integer picoseconds (SimTime) so that event
// ordering is exact and runs are bit-reproducible; helpers convert to and
// from human units. Bandwidths are kept in bytes-per-second doubles wrapped
// in a Bandwidth value type that can compute serialization delays.
#ifndef SRC_COMMON_UNITS_H_
#define SRC_COMMON_UNITS_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

namespace snicsim {

// Simulated time in integer picoseconds.
using SimTime = int64_t;

inline constexpr SimTime kPicos = 1;
inline constexpr SimTime kNanos = 1000;
inline constexpr SimTime kMicros = 1000 * kNanos;
inline constexpr SimTime kMillis = 1000 * kMicros;
inline constexpr SimTime kSeconds = 1000 * kMillis;

constexpr SimTime FromNanos(double ns) { return static_cast<SimTime>(ns * kNanos); }
constexpr SimTime FromMicros(double us) { return static_cast<SimTime>(us * kMicros); }
constexpr SimTime FromMillis(double ms) { return static_cast<SimTime>(ms * kMillis); }
constexpr double ToNanos(SimTime t) { return static_cast<double>(t) / kNanos; }
constexpr double ToMicros(SimTime t) { return static_cast<double>(t) / kMicros; }
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / kSeconds; }

// Byte-count helpers.
inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

// A link or device bandwidth. Internally bytes/second.
class Bandwidth {
 public:
  constexpr Bandwidth() : bytes_per_sec_(0.0) {}

  static constexpr Bandwidth Gbps(double gbps) { return Bandwidth(gbps * 1e9 / 8.0); }
  static constexpr Bandwidth GBps(double gBps) { return Bandwidth(gBps * 1e9); }

  constexpr double bytes_per_sec() const { return bytes_per_sec_; }
  constexpr double gbps() const { return bytes_per_sec_ * 8.0 / 1e9; }
  constexpr bool is_zero() const { return bytes_per_sec_ <= 0.0; }

  // Time to serialize `bytes` at this rate. Zero-bandwidth means "infinitely
  // fast" (no serialization component), which models ideal internal wiring.
  constexpr SimTime TransferTime(uint64_t bytes) const {
    if (bytes_per_sec_ <= 0.0) {
      return 0;
    }
    return static_cast<SimTime>(static_cast<double>(bytes) / bytes_per_sec_ * 1e12);
  }

  friend constexpr bool operator==(Bandwidth a, Bandwidth b) {
    return a.bytes_per_sec_ == b.bytes_per_sec_;
  }
  friend constexpr bool operator<(Bandwidth a, Bandwidth b) {
    return a.bytes_per_sec_ < b.bytes_per_sec_;
  }

 private:
  explicit constexpr Bandwidth(double bps) : bytes_per_sec_(bps) {}
  double bytes_per_sec_;
};

// A processing rate in operations (packets, requests) per second.
class Rate {
 public:
  constexpr Rate() : per_sec_(0.0) {}
  static constexpr Rate PerSec(double r) { return Rate(r); }
  static constexpr Rate Mpps(double m) { return Rate(m * 1e6); }

  constexpr double per_sec() const { return per_sec_; }
  constexpr double mpps() const { return per_sec_ / 1e6; }
  constexpr bool is_zero() const { return per_sec_ <= 0.0; }

  // Service time of one unit of work.
  constexpr SimTime ServiceTime() const {
    if (per_sec_ <= 0.0) {
      return 0;
    }
    return static_cast<SimTime>(1e12 / per_sec_);
  }
  constexpr SimTime ServiceTime(uint64_t n) const {
    if (per_sec_ <= 0.0) {
      return 0;
    }
    return static_cast<SimTime>(1e12 * static_cast<double>(n) / per_sec_);
  }

 private:
  explicit constexpr Rate(double r) : per_sec_(r) {}
  double per_sec_;
};

// Integer ceiling division; the workhorse of TLP/frame segmentation.
constexpr uint64_t CeilDiv(uint64_t n, uint64_t d) { return (n + d - 1) / d; }

// Exact unsigned division by a divisor fixed when the Divisor is built: a
// shift and a mask when it is a power of two, plain division otherwise.
// The DMA and memory hot paths divide by a PCIe MTU, a DRAM row size, a
// channel count or a bank count on every burst or access, and those are
// powers of two in every shipped configuration.
class Divisor {
 public:
  // The power-of-two test is spelled out: std::has_single_bit becomes a
  // libgcc popcount call on baseline x86-64, and a Divisor is built per
  // call wherever an MTU is passed as a plain integer.
  constexpr Divisor(uint64_t d)  // NOLINT: implicit, stands in for the integer
      : d_(d), shift_(d != 0 && (d & (d - 1)) == 0 ? std::countr_zero(d) : -1) {}

  constexpr uint64_t value() const { return d_; }
  constexpr uint64_t Div(uint64_t n) const { return shift_ >= 0 ? n >> shift_ : n / d_; }
  constexpr uint64_t Mod(uint64_t n) const { return shift_ >= 0 ? n & (d_ - 1) : n % d_; }
  constexpr uint64_t CeilDiv(uint64_t n) const { return Div(n + d_ - 1); }

 private:
  uint64_t d_;
  int shift_;  // log2(d_), or -1 when d_ is not a power of two
};

// Human-readable formatting used by the bench reporters.
std::string FormatBytes(uint64_t bytes);
std::string FormatTime(SimTime t);
std::string FormatGbps(double gbps);
std::string FormatMpps(double mpps);

}  // namespace snicsim

#endif  // SRC_COMMON_UNITS_H_

// Deterministic pseudo-random number generation for workloads.
//
// xoshiro256** seeded via splitmix64: fast, high quality, and — unlike
// std::mt19937 plus distribution objects — bit-identical across standard
// library implementations, which keeps every figure reproducible.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace snicsim {

// One splitmix64 step: a draw-free, full-avalanche 64-bit mixer.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// 64-bit FNV-1a constants. The offset basis is one digit short of FNV's
// published 14695981039346656037; every recorded fingerprint, digest and
// golden depends on it, so it stays.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

// kFnvPrimePow[k] == kFnvPrime^k (mod 2^64).
inline constexpr std::array<uint64_t, 9> kFnvPrimePow = [] {
  std::array<uint64_t, 9> p{};
  p[0] = 1;
  for (size_t k = 1; k < p.size(); ++k) {
    p[k] = p[k - 1] * kFnvPrime;
  }
  return p;
}();

// Folds the 8 bytes of `v`, low byte first, into the FNV-1a state `h`.
// A zero byte XORs nothing in, so each byte past the last non-zero one is
// a bare multiply by the prime: the loop stops there and multiplies by the
// matching power, which is exact mod 2^64. Digested values are mostly
// small (domain ids, seqs, counters), so most mixes take one or two steps.
inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  int folded = 0;
  for (; v != 0; v >>= 8, ++folded) {
    h = (h ^ (v & 0xffu)) * kFnvPrime;
  }
  return h * kFnvPrimePow[static_cast<size_t>(8 - folded)];
}

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL) {
    // splitmix64 expansion of the seed into the xoshiro state.
    for (auto& s : state_) {
      s = SplitMix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound == 0 returns 0.
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    // Lemire's nearly-divisionless bounded generation.
    unsigned __int128 m = static_cast<unsigned __int128>(Next()) * bound;
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

}  // namespace snicsim

#endif  // SRC_COMMON_RNG_H_

// certkit support: deterministic pseudo-random number generation.
//
// Every stochastic component (corpus generation, workload synthesis, test
// sweeps) uses these generators with explicit seeds so that all experiments
// are reproducible bit-for-bit across runs and platforms.
#ifndef CERTKIT_SUPPORT_RNG_H_
#define CERTKIT_SUPPORT_RNG_H_

#include <array>
#include <cstdint>

#include "support/check.h"

namespace certkit::support {

// SplitMix64: tiny, fast generator; also used to seed Xoshiro.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// Xoshiro256** — the workhorse generator. Satisfies the minimal needs of
// UniformRandomBitGenerator so it can also drive <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return Next(); }
  // Inline, with UniformDouble: per-pixel loops (the camera render draws
  // one value per pixel) run at the generator's own speed.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1): the 53 high bits of Next().
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi); requires lo < hi.
  double UniformDouble(double lo, double hi) {
    CERTKIT_CHECK(lo < hi);
    return lo + (hi - lo) * UniformDouble();
  }

  // Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double Gaussian();
  double Gaussian(double mean, double stddev);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Index in [0, weights.size()) with probability proportional to weights[i].
  // Requires at least one strictly positive weight.
  std::size_t WeightedIndex(const double* weights, std::size_t n);

  // Raw engine state, for checkpointing. A generator restored with
  // set_state continues the stream bit-exactly where state() captured it.
  std::array<std::uint64_t, 4> state() const { return s_; }
  void set_state(const std::array<std::uint64_t, 4>& s) { s_ = s; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

}  // namespace certkit::support

#endif  // CERTKIT_SUPPORT_RNG_H_

/// \file rng.hpp
/// Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// Channel models and property tests need reproducible randomness that is
/// independent of the standard library implementation; std::mt19937 output
/// is portable but slow, and distributions are not. We ship our own engine
/// and the few distributions we need.
///
/// next_u64() and the Bernoulli draw are inline: the channel walks make one
/// draw per wire symbol, so a call per draw would cost more than the
/// generator step itself.
#pragma once

#include <cmath>
#include <cstdint>

namespace tbi {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  /// A Bernoulli probability precomputed as an integer threshold on the
  /// top 53 bits of a draw.
  ///
  /// uniform_double() < p holds exactly when (next_u64() >> 11) < bound(),
  /// bound() = ceil(p * 2^53) clamped to [0, 2^53]: the draw is m * 2^-53
  /// for the integer m = x >> 11, and m * 2^-53 < p <=> m < p * 2^53 <=>
  /// m < ceil(p * 2^53) (scaling by a power of two is exact). Equivalently
  /// x < bound() * 2^11, which is 2^64 for p >= 1, so the comparison is
  /// made on the shifted draw. p <= 0 and NaN give 0 (never fires), as
  /// the double comparison does.
  class Bernoulli {
   public:
    explicit Bernoulli(double p)
        : bound_(!(p > 0.0)  ? 0
                 : p >= 1.0 ? kOne
                            : static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))) {}

    /// Number of 53-bit draws (out of 2^53) that fire.
    std::uint64_t bound() const { return bound_; }
    /// False exactly when p <= 0: no draw can fire.
    bool possible() const { return bound_ != 0; }

   private:
    static constexpr std::uint64_t kOne = std::uint64_t{1} << 53;
    std::uint64_t bound_;
  };

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize the state from a 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) (bound > 0), unbiased via rejection.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial: one draw, identical to uniform_double() < p.
  bool bernoulli(Bernoulli b) { return (next_u64() >> 11) < b.bound(); }

  /// Bernoulli trial with probability \p p (same rule as above).
  bool bernoulli(double p) { return bernoulli(Bernoulli{p}); }

  /// Geometric: number of failures before first success, success prob p > 0.
  std::uint64_t geometric(double p);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace tbi

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace tbi {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedResets) {
  Rng a(7);
  const auto x0 = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), x0);
}

TEST(Rng, UniformInBounds) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(11);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.uniform(7)];
  for (int h : hits) {
    EXPECT_GT(h, 700);  // each residue ~1000 expected; crude uniformity
    EXPECT_LT(h, 1300);
  }
}

TEST(Rng, UniformDoubleRange) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(13);
  const double p = 0.1;
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.geometric(p));
  // mean of failures-before-success = (1-p)/p = 9
  EXPECT_NEAR(sum / trials, 9.0, 0.5);
}

TEST(Rng, GeometricPOne) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

/// Independent xoshiro256** 1.0 written from the published reference
/// (Blackman & Vigna), seeded by four splitmix64 outputs.
class ReferenceXoshiro {
 public:
  explicit ReferenceXoshiro(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
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

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t s_[4];
};

TEST(Rng, KnownAnswerAgainstReferenceXoshiro) {
  // Pinned values: the first outputs for seed 0 (splitmix64 state words
  // e220a8397b1dcdaf, 6e789e6aa1b965f4, 06c45d188009454f, f88bb8a8724c81ec).
  Rng pinned(0);
  EXPECT_EQ(pinned.next_u64(), 0x99EC5F36CB75F2B4ULL);
  EXPECT_EQ(pinned.next_u64(), 0xBF6E1F784956452AULL);
  EXPECT_EQ(pinned.next_u64(), 0x1A5F849D4933E6E0ULL);
  EXPECT_EQ(pinned.next_u64(), 0x6AA594F1262D2D2CULL);
  for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0x9E3779B97F4A7C15ULL, ~0ULL}) {
    Rng rng(seed);
    ReferenceXoshiro ref(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.next_u64(), ref.next()) << "seed " << seed << " draw " << i;
    }
  }
}

/// Probabilities the integer Bernoulli rule must get exactly right: the
/// ends of [0, 1], the smallest and largest non-trivial values, the
/// channel rates the benchmarks use, their floating-point neighbours, and
/// out-of-range values on both sides.
std::vector<double> threshold_probabilities() {
  // GilbertElliottParams::from_burst_profile(300, 0.004, ...).p_gb, the
  // fer-fade benchmark's Good -> Bad rate.
  const double fade_p_gb = (1.0 / 300) * 0.004 / (1.0 - 0.004);
  const double one_below = 1.0 - 0x1.0p-53;
  std::vector<double> ps = {0.0,       0x1.0p-53, 1e-5, 1e-4, fade_p_gb, 0.5,
                            0.95,      one_below, 1.0,  1.5,  -0.25,     -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (double p : {0x1.0p-53, 1e-5, 1e-4, fade_p_gb, 0.5, 0.95}) {
    ps.push_back(std::nextafter(p, 0.0));
    ps.push_back(std::nextafter(p, 1.0));
  }
  ps.push_back(std::nextafter(1.0, 2.0));
  return ps;
}

TEST(Rng, BernoulliThresholdMatchesDoubleCompare) {
  // The double rule is uniform_double() < p on the draw x; the integer
  // rule is (x >> 11) < ceil(p * 2^53), i.e. x < T = bound * 2^11. Check
  // both around the boundary T and on random draws.
  const auto by_double = [](std::uint64_t x, double p) {
    return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
  };
  constexpr unsigned __int128 kLast = std::numeric_limits<std::uint64_t>::max();
  Rng random(99);
  for (double p : threshold_probabilities()) {
    const Rng::Bernoulli b(p);
    const unsigned __int128 t = static_cast<unsigned __int128>(b.bound()) << 11;
    std::vector<std::uint64_t> xs = {0, 1, 2047, 2048, kLast};
    for (const __int128 d : {-2048, -1, 0, 1, 2048, 2049}) {
      const __int128 x = static_cast<__int128>(t) + d;
      if (x >= 0 && x <= static_cast<__int128>(kLast)) {
        xs.push_back(static_cast<std::uint64_t>(x));
      }
    }
    for (int i = 0; i < 10000; ++i) xs.push_back(random.next_u64());
    for (std::uint64_t x : xs) {
      ASSERT_EQ((x >> 11) < b.bound(), by_double(x, p)) << "p " << p << " x " << x;
    }
    // T is the exact boundary whenever it fits in 64 bits.
    if (t > 0 && t <= kLast) {
      EXPECT_TRUE(by_double(static_cast<std::uint64_t>(t - 1), p)) << "p " << p;
      if (t < kLast) {
        EXPECT_FALSE(by_double(static_cast<std::uint64_t>(t), p)) << "p " << p;
      }
    }
    EXPECT_EQ(b.possible(), p > 0.0) << "p " << p;
  }
  EXPECT_EQ(Rng::Bernoulli(1.0 - 0x1.0p-53).bound(), (std::uint64_t{1} << 53) - 1);
  EXPECT_EQ(Rng::Bernoulli(1.0).bound(), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::Bernoulli(std::nan("")).bound(), 0u);
}

TEST(Rng, BernoulliDrawsMatchUniformDoubleCompare) {
  // Same seed, three rules, one stream: every draw agrees and the
  // generators end in the same state.
  for (double p : threshold_probabilities()) {
    Rng by_double(5), by_value(5), by_threshold(5);
    const Rng::Bernoulli b(p);
    for (int i = 0; i < 20000; ++i) {
      const bool expected = by_double.uniform_double() < p;
      ASSERT_EQ(by_value.bernoulli(p), expected) << "p " << p << " draw " << i;
      ASSERT_EQ(by_threshold.bernoulli(b), expected) << "p " << p << " draw " << i;
    }
    const std::uint64_t next = by_double.next_u64();
    EXPECT_EQ(by_value.next_u64(), next);
    EXPECT_EQ(by_threshold.next_u64(), next);
  }
}

}  // namespace
}  // namespace tbi

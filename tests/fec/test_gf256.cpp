#include "fec/gf256.hpp"

#include <gtest/gtest.h>

#include "support/gf256_reference.hpp"

namespace tbi::fec {
namespace {

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::add(7, 7), 0);
  EXPECT_EQ(GF256::sub(0x53, 0xCA), GF256::add(0x53, 0xCA));
}

TEST(GF256, MulBasics) {
  EXPECT_EQ(GF256::mul(0, 77), 0);
  EXPECT_EQ(GF256::mul(77, 0), 0);
  EXPECT_EQ(GF256::mul(1, 77), 77);
  EXPECT_EQ(GF256::mul(77, 1), 77);
  // alpha * alpha^254 = alpha^255 = 1
  EXPECT_EQ(GF256::mul(GF256::pow_alpha(1), GF256::pow_alpha(254)), 1);
}

TEST(GF256, MulCommutativeAssociativeSample) {
  for (unsigned a = 1; a < 256; a += 17) {
    for (unsigned b = 1; b < 256; b += 23) {
      EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
      for (unsigned c = 1; c < 256; c += 51) {
        EXPECT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
      }
    }
  }
}

TEST(GF256, DistributesOverAdd) {
  for (unsigned a = 1; a < 256; a += 13) {
    for (unsigned b = 0; b < 256; b += 19) {
      for (unsigned c = 0; c < 256; c += 29) {
        EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
                  GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
      }
    }
  }
}

TEST(GF256, EveryNonzeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const std::uint8_t inv = GF256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
    EXPECT_EQ(GF256::div(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(a)), 1);
  }
}

TEST(GF256, AlphaGeneratesTheFullMultiplicativeGroup) {
  bool seen[256] = {false};
  for (unsigned p = 0; p < 255; ++p) {
    const std::uint8_t v = GF256::pow_alpha(p);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "alpha^" << p << " repeats";
    seen[v] = true;
  }
  EXPECT_EQ(GF256::pow_alpha(255), GF256::pow_alpha(0));
}

TEST(GF256, LogIsInverseOfPow) {
  for (unsigned p = 0; p < 255; ++p) {
    EXPECT_EQ(GF256::log_alpha(GF256::pow_alpha(p)), p);
  }
}

// The table-driven mul() (doubled antilog table indexed with
// log(a)+log(b), no modulo) must reproduce the carry-less reference for
// every one of the 256 x 256 input pairs.
TEST(GF256, MulMatchesCarrylessReferenceExhaustively) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(GF256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                test::carryless_mul(static_cast<std::uint8_t>(a),
                                    static_cast<std::uint8_t>(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(GF256, DivInvertsMulExhaustively) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 1; b < 256; ++b) {
      const std::uint8_t p = GF256::mul(static_cast<std::uint8_t>(a),
                                        static_cast<std::uint8_t>(b));
      ASSERT_EQ(GF256::div(p, static_cast<std::uint8_t>(b)), a)
          << "a=" << a << " b=" << b;
    }
  }
}

}  // namespace
}  // namespace tbi::fec

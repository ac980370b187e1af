#include "fec/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>

#include "common/rng.hpp"
#include "support/gf256_reference.hpp"

namespace tbi::fec {
namespace {

std::vector<std::uint8_t> random_data(unsigned k, Rng& rng) {
  std::vector<std::uint8_t> d(k);
  for (auto& b : d) b = static_cast<std::uint8_t>(rng.next_u64());
  return d;
}

TEST(ReedSolomon, EncodeIsSystematic) {
  Rng rng(1);
  const ReedSolomon rs(255, 223);
  const auto data = random_data(rs.k(), rng);
  const auto word = rs.encode(data);
  ASSERT_EQ(word.size(), rs.n());
  for (unsigned i = 0; i < rs.k(); ++i) EXPECT_EQ(word[i], data[i]);
}

TEST(ReedSolomon, EncodedWordsAreValid) {
  Rng rng(2);
  for (auto [n, k] : {std::pair{255u, 223u}, {255u, 239u}, {63u, 47u}, {15u, 7u}}) {
    const ReedSolomon rs(n, k);
    for (int trial = 0; trial < 5; ++trial) {
      EXPECT_TRUE(rs.is_codeword(rs.encode(random_data(k, rng))));
    }
  }
}

TEST(ReedSolomon, DecodeCleanWordNoOp) {
  Rng rng(3);
  const ReedSolomon rs(255, 223);
  auto word = rs.encode(random_data(rs.k(), rng));
  const auto copy = word;
  const auto res = rs.decode(word);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.corrected_symbols, 0u);
  EXPECT_EQ(word, copy);
}

class RsCorrection : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(RsCorrection, CorrectsUpToTErrors) {
  const auto [n, k] = GetParam();
  const ReedSolomon rs(n, k);
  Rng rng(n * 1000 + k);
  for (unsigned errors = 1; errors <= rs.t(); ++errors) {
    const auto data = random_data(rs.k(), rng);
    const auto clean = rs.encode(data);
    auto word = clean;
    // Inject `errors` distinct-position symbol errors.
    std::vector<unsigned> positions;
    while (positions.size() < errors) {
      const unsigned p = static_cast<unsigned>(rng.uniform(rs.n()));
      bool dup = false;
      for (unsigned q : positions) dup |= q == p;
      if (!dup) positions.push_back(p);
    }
    for (unsigned p : positions) {
      std::uint8_t flip = 0;
      while (flip == 0) flip = static_cast<std::uint8_t>(rng.next_u64());
      word[p] ^= flip;
    }
    const auto res = rs.decode(word);
    EXPECT_TRUE(res.ok) << "errors=" << errors;
    EXPECT_EQ(res.corrected_symbols, errors);
    EXPECT_EQ(word, clean);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CodeSizes, RsCorrection,
    ::testing::Values(std::tuple{255u, 223u}, std::tuple{255u, 239u},
                      std::tuple{255u, 191u}, std::tuple{63u, 31u},
                      std::tuple{31u, 15u}, std::tuple{15u, 7u}),
    [](const auto& info) {
      return "RS_" + std::to_string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ReedSolomon, DetectsBeyondTErrors) {
  // t+1 errors are uncorrectable; decode must fail (or at worst
  // miscorrect into a *valid* different word — rare; with these seeds it
  // must report failure).
  const ReedSolomon rs(255, 223);
  Rng rng(99);
  const auto data = random_data(rs.k(), rng);
  auto word = rs.encode(data);
  const auto clean = word;
  unsigned injected = 0;
  for (unsigned p = 0; injected < rs.t() + 5; p += 3, ++injected) {
    word[p] ^= 0x5A;
  }
  const auto res = rs.decode(word);
  if (res.ok) {
    // If decoding "succeeded" it must at least be a valid code word.
    EXPECT_TRUE(rs.is_codeword(word));
    EXPECT_NE(word, clean) << "cannot possibly recover the original";
  }
}

TEST(ReedSolomon, BurstOfTConsecutiveErrorsCorrected) {
  // Relevant case for interleaving: bursts inside one code word.
  const ReedSolomon rs(255, 223);
  Rng rng(7);
  const auto data = random_data(rs.k(), rng);
  const auto clean = rs.encode(data);
  auto word = clean;
  for (unsigned p = 40; p < 40 + rs.t(); ++p) word[p] ^= 0xFF;
  const auto res = rs.decode(word);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(word, clean);
}

TEST(ReedSolomon, ParityOnlyErrorsCorrected) {
  const ReedSolomon rs(63, 47);
  Rng rng(13);
  const auto clean = rs.encode(random_data(rs.k(), rng));
  auto word = clean;
  word[rs.n() - 1] ^= 1;
  word[rs.n() - 2] ^= 0x80;
  EXPECT_TRUE(rs.decode(word).ok);
  EXPECT_EQ(word, clean);
}

/// Independent reference for the codec's field arithmetic and polynomial
/// algebra: the carry-less schoolbook multiply, powers of alpha = 0x02 by
/// repeated multiplication, generic polynomial long division and Horner
/// evaluation. It shares no tables and no code with GF256 or ReedSolomon.
namespace ref {

using test::carryless_mul;

std::uint8_t alpha_pow(unsigned e) {
  std::uint8_t x = 1;
  for (unsigned i = 0; i < e; ++i) x = carryless_mul(x, 2);
  return x;
}

/// Polynomials are low degree first. g(x) = prod_{i=1}^{p} (x + alpha^i).
std::vector<std::uint8_t> generator(unsigned p) {
  std::vector<std::uint8_t> g{1};
  for (unsigned i = 1; i <= p; ++i) {
    std::vector<std::uint8_t> next(g.size() + 1, 0);
    for (std::size_t d = 0; d < g.size(); ++d) {
      next[d + 1] ^= g[d];                          // x * g
      next[d] ^= carryless_mul(g[d], alpha_pow(i));  // alpha^i * g
    }
    g = std::move(next);
  }
  return g;
}

/// a(x) mod b(x) for monic b, by schoolbook long division.
std::vector<std::uint8_t> poly_mod(std::vector<std::uint8_t> a,
                                   const std::vector<std::uint8_t>& b) {
  const std::size_t db = b.size() - 1;
  for (std::size_t top = a.size(); top-- > db;) {
    const std::uint8_t q = a[top];
    if (q == 0) continue;
    for (std::size_t d = 0; d <= db; ++d) a[top - db + d] ^= carryless_mul(q, b[d]);
  }
  a.resize(db);
  return a;
}

/// Parity bytes of systematic RS(n, k) in word order: word[j] is the
/// coefficient of x^(n-1-j), so parity = d(x) * x^p mod g(x), high
/// degree first.
std::vector<std::uint8_t> parity(const std::vector<std::uint8_t>& data, unsigned p) {
  std::vector<std::uint8_t> shifted(data.size() + p, 0);
  for (std::size_t j = 0; j < data.size(); ++j) shifted[data.size() + p - 1 - j] = data[j];
  auto rem = poly_mod(std::move(shifted), generator(p));
  return {rem.rbegin(), rem.rend()};
}

/// S_i = r(alpha^i) for i = 1..p, with r(x) = sum_j word[j] x^(n-1-j)
/// evaluated by Horner.
std::vector<std::uint8_t> syndromes(const std::vector<std::uint8_t>& word, unsigned p) {
  std::vector<std::uint8_t> s(p);
  for (unsigned i = 1; i <= p; ++i) {
    const std::uint8_t x = alpha_pow(i);
    std::uint8_t acc = 0;
    for (std::uint8_t w : word) acc = static_cast<std::uint8_t>(carryless_mul(acc, x) ^ w);
    s[i - 1] = acc;
  }
  return s;
}

}  // namespace ref

const std::pair<unsigned, unsigned> kKnownAnswerCodes[] = {
    {255u, 239u}, {255u, 223u}, {255u, 191u}, {63u, 47u}};

TEST(ReedSolomon, ParityMatchesLongDivisionReference) {
  Rng rng(21);
  for (auto [n, k] : kKnownAnswerCodes) {
    const ReedSolomon rs(n, k);
    for (int trial = 0; trial < 8; ++trial) {
      const auto data = random_data(k, rng);
      const auto expected = ref::parity(data, n - k);
      const auto word = rs.encode(data);
      ASSERT_EQ(std::vector<std::uint8_t>(word.begin() + k, word.end()), expected)
          << "RS(" << n << "," << k << ") trial " << trial;
      // In-place encode (data aliasing the word's first k bytes) agrees.
      std::vector<std::uint8_t> in_place(data);
      in_place.resize(n, 0xA5);
      rs.encode(std::span<const std::uint8_t>(in_place.data(), k), in_place);
      EXPECT_EQ(in_place, word);
    }
  }
}

TEST(ReedSolomon, SyndromesMatchHornerReference) {
  // decode() leaves S_1..S_{n-k} in RsScratch::synd whatever its outcome.
  // Dense random words, sparse ones (the zero-skipping path) and clean
  // code words (all-zero syndromes) are all checked.
  Rng rng(22);
  for (auto [n, k] : kKnownAnswerCodes) {
    const ReedSolomon rs(n, k);
    RsScratch scratch;
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<std::uint8_t> word(n, 0);
      if (trial % 3 == 0) {
        word = random_data(n, rng);
      } else if (trial % 3 == 1) {
        for (auto& w : word) {
          if (rng.uniform(8) == 0) w = static_cast<std::uint8_t>(rng.next_u64());
        }
      } else {
        word = rs.encode(random_data(k, rng));
      }
      const auto expected = ref::syndromes(word, n - k);
      auto received = word;
      rs.decode(received, scratch);
      ASSERT_EQ(scratch.synd, expected) << "RS(" << n << "," << k << ") trial " << trial;
      EXPECT_EQ(rs.is_codeword(word),
                std::all_of(expected.begin(), expected.end(),
                            [](std::uint8_t s) { return s == 0; }));
    }
  }
}

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(256, 200), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(100, 100), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(100, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(100, 99), std::invalid_argument);  // odd parity
  const ReedSolomon rs(255, 223);
  EXPECT_THROW(rs.encode(std::vector<std::uint8_t>(10)), std::invalid_argument);
  std::vector<std::uint8_t> short_word(10);
  EXPECT_THROW(rs.decode(short_word), std::invalid_argument);
}

}  // namespace
}  // namespace tbi::fec

/// \file gf256.hpp
/// Arithmetic over GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1
/// (0x11D), the conventional Reed-Solomon field.
///
/// Log/antilog tables are computed at compile time (constexpr), so every
/// operation is a guard-free inline table lookup: mul() indexes the
/// 512-entry doubled antilog table directly with log(a)+log(b) — no
/// `% 255` and no static-init check.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

namespace tbi::fec {

namespace detail {

inline constexpr unsigned kGfPrimitivePoly = 0x11D;

constexpr std::array<std::uint8_t, 512> gf256_make_exp() {
  std::array<std::uint8_t, 512> t{};
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    t[i] = static_cast<std::uint8_t>(x);
    x <<= 1;
    if (x & 0x100) x ^= kGfPrimitivePoly;
  }
  for (unsigned i = 255; i < 512; ++i) t[i] = t[i - 255];
  return t;
}

constexpr std::array<std::uint16_t, 256> gf256_make_log() {
  std::array<std::uint16_t, 256> t{};
  const auto e = gf256_make_exp();
  for (unsigned i = 0; i < 255; ++i) t[e[i]] = static_cast<std::uint16_t>(i);
  t[0] = 0;  // sentinel, never used by mul/div (zero short-circuit)
  return t;
}

}  // namespace detail

class GF256 {
 public:
  static constexpr unsigned kFieldSize = 256;
  static constexpr unsigned kPrimitivePoly = 0x11D;

  static std::uint8_t add(std::uint8_t a, std::uint8_t b) {
    return static_cast<std::uint8_t>(a ^ b);
  }
  static std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return add(a, b); }

  static std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
    if (a == 0 || b == 0) return 0;
    // log(a) + log(b) <= 508 < 512: the doubled table absorbs the wrap.
    return kExp[kLog[a] + kLog[b]];
  }

  /// Multiplicative inverse; undefined for 0 (asserts in debug builds).
  static std::uint8_t inv(std::uint8_t a);

  static std::uint8_t div(std::uint8_t a, std::uint8_t b) {
    assert(b != 0 && "GF256: division by zero");
    if (a == 0) return 0;
    // log(a) + 255 - log(b) is in [1, 509]: direct doubled-table index.
    return kExp[kLog[a] + 255u - kLog[b]];
  }

  /// alpha^power for the primitive element alpha = 0x02.
  static std::uint8_t pow_alpha(unsigned power) { return kExp[power % 255]; }

  /// Discrete log base alpha; undefined for 0.
  static unsigned log_alpha(std::uint8_t a);

 private:
  /// kExp[i] = alpha^(i mod 255) for i < 510 (doubled antilog table);
  /// kLog[alpha^i] = i with kLog[0] a zero sentinel never used by mul/div.
  static constexpr std::array<std::uint8_t, 512> kExp = detail::gf256_make_exp();
  static constexpr std::array<std::uint16_t, 256> kLog = detail::gf256_make_log();
};

}  // namespace tbi::fec

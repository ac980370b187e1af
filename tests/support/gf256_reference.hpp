/// \file gf256_reference.hpp
/// Test helper: an independent GF(2^8) multiply for the field and codec
/// tests to check against.
///
/// Naive carry-less (schoolbook) multiply: shift-and-add in GF(2)[x],
/// then reduce by the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D). It
/// shares no tables and no code with GF256.
#pragma once

#include <cstdint>

namespace tbi::test {

inline std::uint8_t carryless_mul(std::uint8_t a, std::uint8_t b) {
  unsigned product = 0;
  for (unsigned bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) product ^= static_cast<unsigned>(a) << bit;
  }
  for (int degree = 14; degree >= 8; --degree) {
    if (product & (1u << degree)) product ^= 0x11Du << (degree - 8);
  }
  return static_cast<std::uint8_t>(product);
}

}  // namespace tbi::test

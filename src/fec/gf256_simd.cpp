#include "fec/gf256_simd.hpp"

#include "fec/gf256.hpp"

namespace tbi::fec {

namespace {

struct MulTable {
  std::uint8_t row[256][256];
};

constexpr MulTable make_mul_table() {
  // One log/antilog lookup per entry keeps the 64 K-entry build under the
  // compiler's constexpr operation limit, UBSan builds included.
  const auto exp = detail::gf256_make_exp();
  const auto log = detail::gf256_make_log();
  MulTable t{};
  for (unsigned m = 1; m < 256; ++m) {
    for (unsigned x = 1; x < 256; ++x) t.row[m][x] = exp[log[m] + log[x]];
  }
  return t;
}

// 64 KiB full product table, multiplier-major: kMul.row[m] is the
// kernel's lookup row. Backed by .rodata like GF256's tables.
constinit const MulTable kMul = make_mul_table();

}  // namespace

void gf256_muladd(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t m,
                  std::size_t len) {
  if (m == 0 || len == 0) return;
  const std::uint8_t* row = kMul.row[m];
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    dst[i] ^= row[src[i]];
    dst[i + 1] ^= row[src[i + 1]];
    dst[i + 2] ^= row[src[i + 2]];
    dst[i + 3] ^= row[src[i + 3]];
  }
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

}  // namespace tbi::fec

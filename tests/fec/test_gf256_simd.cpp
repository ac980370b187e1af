/// \file test_gf256_simd.cpp
/// Oracle wall for the GF(2^8) constant-multiplier kernel
/// (gf256_simd.hpp), checked byte-for-byte against a carry-less
/// (schoolbook) reference multiply that shares no tables with the kernel
/// under test — every multiplier 0..255, a length ladder covering the
/// four-symbol unrolled body and every tail, and a grid of src/dst
/// misalignments.
#include "fec/gf256_simd.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "fec/gf256.hpp"

namespace tbi::fec {
namespace {

/// Naive carry-less multiply in GF(2)[x] reduced by the primitive
/// polynomial — the same independent reference test_gf256.cpp pins
/// GF256::mul against. No shared code with the kernel's 64 KiB product
/// table or the log/antilog tables it is built from.
std::uint8_t carryless_reference_mul(std::uint8_t a, std::uint8_t b) {
  unsigned product = 0;
  for (unsigned bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) product ^= static_cast<unsigned>(a) << bit;
  }
  for (int degree = 14; degree >= 8; --degree) {
    if (product & (1u << degree)) {
      product ^= GF256::kPrimitivePoly << (degree - 8);
    }
  }
  return static_cast<std::uint8_t>(product);
}

/// reference_rows()[m][x] = m * x from the carry-less reference, built
/// once per process so the exhaustive sweep is table-lookup cheap.
const std::uint8_t (*reference_rows())[256] {
  static const auto* rows = [] {
    auto* t = new std::uint8_t[256][256];
    for (unsigned m = 0; m < 256; ++m) {
      for (unsigned x = 0; x < 256; ++x) {
        t[m][x] = carryless_reference_mul(static_cast<std::uint8_t>(m),
                                          static_cast<std::uint8_t>(x));
      }
    }
    return t;
  }();
  return rows;
}

/// Run one kernel call against the reference on pattern buffers with
/// guard regions. The full-buffer memcmp checks both the result span and
/// that not a single byte outside [doff, doff + len) was written.
void check_muladd(const std::vector<std::uint8_t>& src,
                  const std::vector<std::uint8_t>& dst0, std::size_t soff,
                  std::size_t doff, unsigned m, std::size_t len,
                  std::vector<std::uint8_t>& dst,
                  std::vector<std::uint8_t>& want) {
  const std::uint8_t* row = reference_rows()[m];
  std::memcpy(dst.data(), dst0.data(), dst0.size());
  std::memcpy(want.data(), dst0.data(), dst0.size());
  for (std::size_t i = 0; i < len; ++i) {
    want[doff + i] = static_cast<std::uint8_t>(want[doff + i] ^ row[src[soff + i]]);
  }
  gf256_muladd(dst.data() + doff, src.data() + soff, static_cast<std::uint8_t>(m),
               len);
  if (std::memcmp(dst.data(), want.data(), dst.size()) != 0) {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      ASSERT_EQ(static_cast<unsigned>(dst[i]), static_cast<unsigned>(want[i]))
          << "m=" << m << " len=" << len
          << " soff=" << soff << " doff=" << doff << " byte=" << i
          << (i < doff || i >= doff + len ? " (guard)" : "");
    }
  }
}

TEST(Gf256SimdOracle, EveryMultiplierEveryLengthEveryBackend) {
  // Length ladder: every short length (0..64), one full code word (255),
  // and 63 consecutive lengths past a 4 KiB body (4097..4159), so the
  // unrolled body and the tail loop see every residue.
  std::vector<std::size_t> lens;
  for (std::size_t l = 0; l <= 64; ++l) lens.push_back(l);
  lens.push_back(255);
  for (std::size_t l = 4097; l <= 4159; ++l) lens.push_back(l);

  constexpr std::size_t kPad = 64;  // guard region below and above
  const std::size_t size = lens.back() + 2 * kPad;
  std::mt19937 rng(0xC0DEu);
  std::vector<std::uint8_t> src(size), dst0(size);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : dst0) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> dst(size), want(size);

  for (unsigned m = 0; m < 256; ++m) {
    for (std::size_t li = 0; li < lens.size(); ++li) {
      // Rotate both offsets with the sweep so unaligned src and dst ride
      // through every multiplier and length; the dedicated misalignment
      // test below covers the full 32x32 offset grid.
      const std::size_t soff = kPad + ((m + li) & 31);
      const std::size_t doff = kPad + ((m + 5 * li) & 31);
      check_muladd(src, dst0, soff, doff, m, lens[li], dst, want);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Gf256SimdOracle, EverySrcDstMisalignmentPair) {
  // Fixed multiplier and an odd length (24 unrolled steps plus a
  // one-symbol tail), the complete 32x32 src/dst offset grid.
  constexpr unsigned kM = 0x57;
  constexpr std::size_t kLen = 97;
  constexpr std::size_t kPad = 64;
  const std::size_t size = kLen + 2 * kPad;
  std::mt19937 rng(0xA11Du);
  std::vector<std::uint8_t> src(size), dst0(size);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : dst0) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> dst(size), want(size);

  for (std::size_t soff = 0; soff < 32; ++soff) {
    for (std::size_t doff = 0; doff < 32; ++doff) {
      check_muladd(src, dst0, kPad / 2 + soff, kPad / 2 + doff, kM, kLen, dst, want);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace tbi::fec

/// \file gf256_simd.hpp
/// Constant-multiplier kernel over GF(2^8)/0x11D.
///
/// The RS codec's two row loops — encode's parity-feedback rows and the
/// syndrome power-row accumulation (DESIGN.md §8) — reduce to one
/// primitive: XOR-accumulate a span multiplied by a fixed field scalar,
///
///     dst[i] ^= m * src[i]   for i in [0, len),   m constant.
///
/// The kernel reads one 256-entry product row per multiplier out of a
/// constexpr 64 KiB table, four symbols per step. The FER pipeline
/// decides almost every touched word in closed form (DESIGN.md §5), so
/// the codec is off its hot path and this portable kernel is the only
/// backend.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tbi::fec {

/// dst[i] ^= m * src[i] over GF(2^8)/0x11D for i in [0, len). src and dst
/// must not overlap (they never alias in the codec: table rows vs
/// accumulators). Any alignment, any length.
void gf256_muladd(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t m,
                  std::size_t len);

}  // namespace tbi::fec

#include "interleaver/triangular.hpp"

namespace tbi::interleaver {

TriangularInterleaver::TriangularInterleaver(std::uint64_t side) : side_(side) {
  if (side == 0) throw std::invalid_argument("TriangularInterleaver: side must be > 0");
}

std::pair<std::uint64_t, std::uint64_t> TriangularInterleaver::write_position(
    std::uint64_t k) const {
  if (k >= capacity()) throw std::out_of_range("TriangularInterleaver::write_position");
  // Solve tri_row_offset(n, i) <= k via the quadratic root of
  // -i^2/2 + i(n + 1/2) - k = 0, then fix up integer rounding.
  const std::uint64_t n = side_;
  const std::uint64_t disc = (2 * n + 1) * (2 * n + 1) - 8 * k;
  std::uint64_t i = (2 * n + 1 - isqrt(disc)) / 2;
  while (i > 0 && tri_row_offset(n, i) > k) --i;
  while (i + 1 < n && tri_row_offset(n, i + 1) <= k) ++i;
  return {i, k - tri_row_offset(n, i)};
}

std::uint64_t TriangularInterleaver::permute(std::uint64_t k) const {
  const auto [i, j] = write_position(k);
  return output_index(i, j);
}

std::vector<std::uint8_t> TriangularInterleaver::interleave(
    const std::vector<std::uint8_t>& in) const {
  if (in.size() != capacity()) {
    throw std::invalid_argument("TriangularInterleaver: bad block size");
  }
  // Write row-wise, read column-wise: symbol (i, j) moves from its packed
  // input offset to its packed output offset.
  std::vector<std::uint8_t> out(in.size());
  for (std::uint64_t i = 0; i < side_; ++i) {
    for (std::uint64_t j = 0; j < tri_row_length(side_, i); ++j) {
      out[output_index(i, j)] = in[input_index(i, j)];
    }
  }
  return out;
}

std::vector<std::uint8_t> TriangularInterleaver::deinterleave(
    const std::vector<std::uint8_t>& in) const {
  if (in.size() != capacity()) {
    throw std::invalid_argument("TriangularInterleaver: bad block size");
  }
  std::vector<std::uint8_t> out(in.size());
  for (std::uint64_t i = 0; i < side_; ++i) {
    for (std::uint64_t j = 0; j < tri_row_length(side_, i); ++j) {
      out[input_index(i, j)] = in[output_index(i, j)];
    }
  }
  return out;
}

}  // namespace tbi::interleaver

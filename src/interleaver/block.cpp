#include "interleaver/block.hpp"

namespace tbi::interleaver {

BlockInterleaver::BlockInterleaver(std::uint64_t rows, std::uint64_t cols)
    : rows_(rows), cols_(cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("BlockInterleaver: dimensions must be positive");
  }
}

std::uint64_t BlockInterleaver::permute(std::uint64_t k) const {
  if (k >= capacity()) throw std::out_of_range("BlockInterleaver::permute");
  const std::uint64_t i = k / cols_;  // written row-wise
  const std::uint64_t j = k % cols_;
  return j * rows_ + i;  // read column-wise
}

std::uint64_t BlockInterleaver::inverse(std::uint64_t k) const {
  if (k >= capacity()) throw std::out_of_range("BlockInterleaver::inverse");
  const std::uint64_t j = k / rows_;
  const std::uint64_t i = k % rows_;
  return i * cols_ + j;
}

std::vector<std::uint8_t> BlockInterleaver::interleave(
    const std::vector<std::uint8_t>& in) const {
  if (in.size() != capacity()) throw std::invalid_argument("BlockInterleaver: bad size");
  // Write row-wise, read column-wise: (i, j) moves from i*cols + j to
  // j*rows + i.
  std::vector<std::uint8_t> out(in.size());
  for (std::uint64_t i = 0; i < rows_; ++i) {
    for (std::uint64_t j = 0; j < cols_; ++j) out[j * rows_ + i] = in[i * cols_ + j];
  }
  return out;
}

std::vector<std::uint8_t> BlockInterleaver::deinterleave(
    const std::vector<std::uint8_t>& in) const {
  if (in.size() != capacity()) throw std::invalid_argument("BlockInterleaver: bad size");
  std::vector<std::uint8_t> out(in.size());
  for (std::uint64_t i = 0; i < rows_; ++i) {
    for (std::uint64_t j = 0; j < cols_; ++j) out[i * cols_ + j] = in[j * rows_ + i];
  }
  return out;
}

}  // namespace tbi::interleaver

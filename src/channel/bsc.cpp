#include "channel/bsc.hpp"

#include <stdexcept>

namespace tbi::channel {

SymmetricChannel::SymmetricChannel(double error_probability, unsigned symbol_bits)
    : p_(error_probability), symbol_bits_(symbol_bits) {
  if (!(p_ >= 0.0 && p_ <= 1.0)) {  // written so NaN fails too
    throw std::invalid_argument("SymmetricChannel: probability out of range");
  }
  if (symbol_bits_ == 0) {
    throw std::invalid_argument("SymmetricChannel: symbol_bits must be > 0");
  }
}

std::uint64_t SymmetricChannel::advance(std::uint64_t span, Rng& rng,
                                        EventSink sink) {
  const std::uint64_t base = position();
  const Rng::Bernoulli error(p_);
  std::uint64_t corrupted = 0;
  for (std::uint64_t i = 0; i < span; ++i) {
    if (rng.bernoulli(error)) {
      sink({base + i, corrupt_flip(symbol_bits_, rng)});
      ++corrupted;
    }
  }
  return corrupted;
}

}  // namespace tbi::channel

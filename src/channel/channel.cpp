#include "channel/channel.hpp"

#include <stdexcept>
#include <string>

namespace tbi::channel {

std::uint64_t Channel::events(std::uint64_t start, std::uint64_t span, Rng& rng,
                              EventSink sink) {
  if (start < position_) {
    throw std::logic_error(
        std::string("Channel::events: start ") + std::to_string(start) +
        " is behind position " + std::to_string(position_) +
        " — channels only run forward; rewind with a fresh instance");
  }
  if (start > position_) {
    const auto discard = [](const Corruption&) {};
    advance(start - position_, rng, discard);
    position_ = start;
  }
  const std::uint64_t count = advance(span, rng, sink);
  position_ += span;
  return count;
}

}  // namespace tbi::channel

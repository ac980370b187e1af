/// \file channel_buffer.hpp
/// Test helper: materialize a channel's corruption events in a buffer.
///
/// Channels only emit (wire position, XOR flip) events; tests that check
/// a corruption *pattern* XOR those events into a symbol buffer through
/// this one helper, so every test sees the same mapping from events to
/// bytes.
#pragma once

#include <cstdint>
#include <span>

#include "channel/channel.hpp"
#include "common/rng.hpp"

namespace tbi::test {

/// XOR every event of the wire range [start, start + buf.size()) into
/// \p buf and return the event count (Channel::events rules: start must
/// not be behind ch.position()).
inline std::uint64_t corrupt(channel::Channel& ch, std::uint64_t start,
                             std::span<std::uint8_t> buf, Rng& rng) {
  const auto apply = [start, buf](const channel::Corruption& e) {
    buf[e.wire_pos - start] ^= e.flip;
  };
  return ch.events(start, buf.size(), rng, apply);
}

/// Sequential form: corrupt \p buf as the next buf.size() wire symbols.
inline std::uint64_t corrupt(channel::Channel& ch, std::span<std::uint8_t> buf,
                             Rng& rng) {
  return corrupt(ch, ch.position(), buf, rng);
}

}  // namespace tbi::test

/// \file channel.hpp
/// Symbol-error channel model interface.
///
/// The paper motivates triangular interleaving with the optical LEO
/// downlink: long coherence time (> 2 ms) means errors arrive in very
/// long bursts. Real downlink traces are proprietary, so these synthetic
/// models reproduce the relevant statistics (DESIGN.md §5): a memoryless
/// BSC as control, a Gilbert-Elliott two-state burst channel, and a
/// correlated-fading LEO model with configurable coherence time.
///
/// Channels emit *corruption events*, never touch symbol data: each
/// corrupted wire symbol yields one (wire position, non-zero XOR flip)
/// event, with flips drawn independently of the symbol values. A caller
/// that holds a buffer XORs the events into it; the FER pipeline maps
/// them straight to code-word positions.
///
/// Every channel is a deterministic state machine over a *wire position*
/// counter: symbol i of the stream is corrupted by a fixed function of
/// (parameters, RNG seed, the i-1 symbols before it). The one primitive a
/// subclass implements, advance(), walks a span of symbols and hands each
/// event to a sink. events() crosses any gap before the requested range
/// with a no-op sink — the identical RNG draws, nothing emitted — so a
/// fresh channel can fast-forward to any wire position and continue
/// exactly as a sequential walk would. That counter-based random access is
/// what lets range-addressable error sources (src/source/) hand disjoint
/// spans of one frame to independent workers.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/rng.hpp"

namespace tbi::channel {

/// One corruption event on the wire stream.
struct Corruption {
  std::uint64_t wire_pos = 0;  ///< absolute wire position (symbol index)
  std::uint8_t flip = 0;       ///< non-zero XOR mask applied to the symbol
};

inline bool operator==(const Corruption& a, const Corruption& b) {
  return a.wire_pos == b.wire_pos && a.flip == b.flip;
}

/// Non-owning reference to a `void(const Corruption&)` callable.
///
/// Events flow channel -> source -> pipeline through this instead of
/// std::function so the per-frame hot path never allocates (a capturing
/// lambda bigger than the std::function small-buffer would heap-allocate
/// every frame and break the zero-steady-allocation invariant). The
/// referenced callable must outlive the call it is passed to, which
/// always holds for the call-site lambdas used here.
class EventSink {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventSink>>>
  EventSink(F&& f)  // NOLINT: implicit by design, mirrors function_ref
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, const Corruption& e) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(e);
        }) {}

  void operator()(const Corruption& e) const { call_(obj_, e); }

 private:
  void* obj_;
  void (*call_)(void*, const Corruption&);
};

class Channel {
 public:
  virtual ~Channel() = default;

  /// Counter-based random access: emit into \p sink every corruption
  /// event of the wire range [start, start + span) and return their
  /// count. Requires start >= position() (the channel only runs forward;
  /// rewind by constructing a fresh instance and reseeding the RNG); the
  /// gap is crossed with the same draws and nothing emitted. Walking a
  /// stream through events() at any boundaries yields exactly the events
  /// of one call over the whole stream (tested property).
  std::uint64_t events(std::uint64_t start, std::uint64_t span, Rng& rng,
                       EventSink sink);

  /// Wire position of the next symbol events() will consume.
  std::uint64_t position() const { return position_; }

  virtual const char* name() const = 0;

 protected:
  /// The one subclass primitive: walk \p span symbols of the wire from
  /// position(), calling sink({position() + i, flip}) for each corrupted
  /// symbol i, and return the number of corrupted symbols. The draws
  /// must not depend on the sink, so crossing a gap with a no-op sink
  /// keeps the RNG stream aligned.
  virtual std::uint64_t advance(std::uint64_t span, Rng& rng, EventSink sink) = 0;

 private:
  std::uint64_t position_ = 0;
};

/// Random non-zero flip mask confined to the low \p bits.
inline std::uint8_t corrupt_flip(unsigned bits, Rng& rng) {
  const std::uint64_t mask = (bits >= 8) ? 0xFF : ((1u << bits) - 1);
  std::uint8_t flip = 0;
  while (flip == 0) flip = static_cast<std::uint8_t>(rng.next_u64() & mask);
  return flip;
}

}  // namespace tbi::channel

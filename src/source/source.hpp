/// \file source.hpp
/// Burst sources: the pipeline-facing abstraction over "where do
/// corruption events come from".
///
/// The FER pipeline historically called Channel::apply directly, which
/// welded it to live channel simulation: no replaying a recorded burst
/// trace, no composing several links into one wire stream. An
/// ErrorSource decouples that — it yields corruption events (wire
/// position + XOR flip) over any requested wire-position range, and the
/// pipeline consumes events without caring whether they came from a
/// channel model, a trace file, or N interleaved links (DESIGN.md §6).
///
/// The contract leans on the same property the pipeline's frame loop
/// exploits: every channel's corruption is data-independent
/// (guaranteed non-zero XOR flips drawn independently of symbol
/// values), so running a channel over a zeroed scratch buffer recovers
/// the exact (position, flip) events it would have applied in place.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "channel/channel.hpp"

namespace tbi::source {

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
/// Events flow source -> pipeline through this instead of std::function
/// so the per-frame hot path never allocates (a capturing lambda bigger
/// than the std::function small-buffer would heap-allocate every frame
/// and break the zero-steady-allocation invariant). The referenced
/// callable must outlive the events() call, which always holds for the
/// call-site lambdas used here.
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

/// Yields corruption events over wire-position ranges.
///
/// Ranges are normally requested in increasing order (the pipeline walks
/// frames forward); implementations backed by stateful channels support
/// random access by rewinding to a fresh instance and skipping forward,
/// which is deterministic but costs the skipped draws. Events within one
/// call arrive in increasing wire_pos per underlying stream, but a
/// composite source may interleave streams, so consumers that need a
/// global order must sort (the pipeline sorts by input index
/// anyway).
class ErrorSource {
 public:
  virtual ~ErrorSource() = default;

  /// Emit every corruption event in [start, start + span) into \p sink.
  /// Returns the number of events emitted.
  virtual std::uint64_t events(std::uint64_t start, std::uint64_t span,
                               EventSink sink) = 0;

  /// Corrupt \p wire in place as the range [start, start + wire.size())
  /// by XORing the events() stream into the buffer. The pipeline never
  /// materializes a frame; this is for tests and tools.
  std::uint64_t corrupt(std::uint64_t start, std::span<std::uint8_t> wire);

  /// Convenience for tests and tools: append the range's events to \p out.
  std::uint64_t collect(std::uint64_t start, std::uint64_t span,
                        std::vector<Corruption>& out);

  virtual const char* name() const = 0;

  /// Bytes of internal scratch this source retains between calls — the
  /// pipeline folds this into its workspace_peak_bytes accounting so the
  /// paper-scale memory bound stays honest after the refactor.
  virtual std::uint64_t scratch_bytes() const { return 0; }
};

using ChannelFactory = std::function<std::unique_ptr<channel::Channel>()>;

/// Adapts a stateful Channel to the random-access ErrorSource contract.
///
/// Owns the channel instance and its RNG stream. Forward motion uses
/// Channel::apply_range (skipping any gap); a request behind the current
/// position rebuilds the channel from the factory and reseeds, then
/// skips forward — deterministic random access at the cost of replaying
/// the prefix draws (cheap for LEO, whose clean sample windows skip in
/// O(1); see leo.hpp).
class ChannelSource final : public ErrorSource {
 public:
  ChannelSource(ChannelFactory factory, std::uint64_t seed,
                std::uint64_t chunk_symbols);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override;

  std::uint64_t scratch_bytes() const override { return chunk_.capacity(); }

  const channel::Channel& channel() const { return *channel_; }

 private:
  void rewind_if_behind(std::uint64_t start);

  ChannelFactory factory_;
  std::uint64_t seed_;
  std::uint64_t chunk_symbols_;
  std::unique_ptr<channel::Channel> channel_;
  Rng rng_;
  std::vector<std::uint8_t> chunk_;  ///< zeroed scan buffer for events()
};

/// Composes N per-link sources into one interleaved wire stream.
///
/// Global wire position p carries link p % N at that link's local
/// position p / N — symbol round-robin, the way a multi-lane ingestion
/// stage would merge per-fiber streams before the interleaver. Each link
/// keeps its own source (own channel instance, own seed) plus a phase
/// offset into its local stream, so links can model staggered
/// acquisition starts.
class MultiLinkSource final : public ErrorSource {
 public:
  struct Link {
    std::unique_ptr<ErrorSource> source;
    std::uint64_t phase_offset = 0;  ///< added to link-local positions
  };

  explicit MultiLinkSource(std::vector<Link> links);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override { return "multi-link"; }

  std::uint64_t scratch_bytes() const override;

  std::size_t link_count() const { return links_.size(); }

 private:
  std::vector<Link> links_;
};

}  // namespace tbi::source

/// \file source.hpp
/// Burst sources: the pipeline-facing abstraction over "where do
/// corruption events come from".
///
/// An ErrorSource yields corruption events (wire position + XOR flip)
/// over any requested wire-position range, and the pipeline consumes
/// events without caring whether they came from a channel model, a trace
/// file, or N interleaved links (DESIGN.md §6). The event type and the
/// non-allocating sink are the channel layer's own (channel.hpp): a
/// ChannelSource hands the caller's sink straight to the channel, so a
/// live channel costs one indirect call per event and nothing per clean
/// symbol beyond its RNG draws.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "channel/channel.hpp"

namespace tbi::source {

using channel::Corruption;
using channel::EventSink;

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
};

using ChannelFactory = std::function<std::unique_ptr<channel::Channel>()>;

/// Adapts a stateful Channel to the random-access ErrorSource contract.
///
/// Owns the channel instance and its RNG stream. Forward motion uses
/// Channel::events (skipping any gap); a request behind the current
/// position rebuilds the channel from the factory and reseeds, then
/// skips forward — deterministic random access at the cost of replaying
/// the prefix draws (cheap for LEO, whose clean sample windows skip in
/// O(1); see leo.hpp).
class ChannelSource final : public ErrorSource {
 public:
  ChannelSource(ChannelFactory factory, std::uint64_t seed);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override;

  const channel::Channel& channel() const { return *channel_; }

 private:
  void rewind_if_behind(std::uint64_t start);

  ChannelFactory factory_;
  std::uint64_t seed_;
  std::unique_ptr<channel::Channel> channel_;
  Rng rng_;
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

  std::size_t link_count() const { return links_.size(); }

 private:
  std::vector<Link> links_;
};

}  // namespace tbi::source

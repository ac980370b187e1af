#include "source/source.hpp"

#include <algorithm>
#include <stdexcept>

namespace tbi::source {

std::uint64_t ErrorSource::corrupt(std::uint64_t start,
                                   std::span<std::uint8_t> wire) {
  auto apply = [start, wire](const Corruption& e) {
    wire[e.wire_pos - start] ^= e.flip;
  };
  return events(start, wire.size(), EventSink(apply));
}

std::uint64_t ErrorSource::collect(std::uint64_t start, std::uint64_t span,
                                   std::vector<Corruption>& out) {
  auto append = [&out](const Corruption& e) { out.push_back(e); };
  return events(start, span, EventSink(append));
}

ChannelSource::ChannelSource(ChannelFactory factory, std::uint64_t seed,
                             std::uint64_t chunk_symbols)
    : factory_(std::move(factory)),
      seed_(seed),
      chunk_symbols_(chunk_symbols),
      rng_(seed) {
  if (!factory_) {
    throw std::invalid_argument("ChannelSource: null channel factory");
  }
  if (chunk_symbols_ == 0) {
    throw std::invalid_argument("ChannelSource: chunk_symbols must be > 0");
  }
  channel_ = factory_();
  if (!channel_) {
    throw std::invalid_argument("ChannelSource: factory produced no channel");
  }
}

void ChannelSource::rewind_if_behind(std::uint64_t start) {
  if (start < channel_->position()) {
    channel_ = factory_();
    rng_.reseed(seed_);
  }
}

std::uint64_t ChannelSource::events(std::uint64_t start, std::uint64_t span,
                                    EventSink sink) {
  rewind_if_behind(start);
  std::uint64_t count = 0;
  for (std::uint64_t off = 0; off < span; off += chunk_symbols_) {
    const std::uint64_t len = std::min(chunk_symbols_, span - off);
    chunk_.assign(static_cast<std::size_t>(len), 0);
    const std::uint64_t hits = channel_->apply_range(
        start + off, std::span<std::uint8_t>(chunk_.data(), len), rng_);
    if (hits == 0) continue;
    for (std::uint64_t i = 0; i < len; ++i) {
      if (chunk_[i] != 0) sink({start + off + i, chunk_[i]});
    }
    count += hits;
  }
  return count;
}

const char* ChannelSource::name() const { return channel_->name(); }

MultiLinkSource::MultiLinkSource(std::vector<Link> links)
    : links_(std::move(links)) {
  if (links_.empty()) {
    throw std::invalid_argument("MultiLinkSource: need at least one link");
  }
  for (const Link& link : links_) {
    if (!link.source) {
      throw std::invalid_argument("MultiLinkSource: null link source");
    }
  }
}

std::uint64_t MultiLinkSource::events(std::uint64_t start, std::uint64_t span,
                                      EventSink sink) {
  const std::uint64_t n = links_.size();
  const std::uint64_t end = start + span;
  std::uint64_t count = 0;
  for (std::uint64_t l = 0; l < n; ++l) {
    // Link l owns global positions p with p % n == l, at local position
    // p / n. Count of link-l positions below X is ceil((X - l) / n).
    const std::uint64_t lo = start > l ? (start - l + n - 1) / n : 0;
    const std::uint64_t hi = end > l ? (end - l + n - 1) / n : 0;
    if (hi <= lo) continue;
    const std::uint64_t off = links_[l].phase_offset;
    auto remap = [&sink, off, n, l](const Corruption& e) {
      sink({(e.wire_pos - off) * n + l, e.flip});
    };
    count += links_[l].source->events(lo + off, hi - lo, EventSink(remap));
  }
  return count;
}

std::uint64_t MultiLinkSource::scratch_bytes() const {
  std::uint64_t total = 0;
  for (const Link& link : links_) {
    total += link.source->scratch_bytes();
  }
  return total;
}

}  // namespace tbi::source

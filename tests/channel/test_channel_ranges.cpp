/// Counter-based random access (Channel::events): walking a stream
/// through events() at arbitrary boundaries — including one symbol at a
/// time, and with gaps crossed unobserved — must yield exactly the
/// corruption of a single call over the whole stream, for every channel
/// model. This is the contract the source layer (src/source/) builds on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"
#include "support/channel_buffer.hpp"

namespace tbi::channel {
namespace {

using test::corrupt;

std::unique_ptr<Channel> make_named(const std::string& which) {
  if (which == "bsc") return std::make_unique<SymmetricChannel>(0.01, 8);
  if (which == "ge") {
    const auto p = GilbertElliottParams::from_burst_profile(300, 0.05, 0.95, 8);
    return std::make_unique<GilbertElliottChannel>(p);
  }
  LeoChannelParams p;
  // Aggressive fading so even the 4k-symbol single-step test crosses
  // fades: short coherence decorrelates the power samples quickly.
  p.fade_probability = 0.2;
  p.fade_depth_error_rate = 0.9;
  p.symbols_per_sample = 300;
  p.coherence_time_s = 2e-8;
  return std::make_unique<LeoFadingChannel>(p);
}

class ChannelRanges : public ::testing::TestWithParam<std::string> {};

TEST_P(ChannelRanges, ChunkedApplyRangeMatchesSequentialApply) {
  constexpr std::size_t kTotal = 50'000;

  auto whole = make_named(GetParam());
  Rng rng_whole(42);
  std::vector<std::uint8_t> data_whole(kTotal, 0);
  const auto errors_whole = corrupt(*whole, data_whole, rng_whole);
  ASSERT_GT(errors_whole, 0u);

  // Random chunk boundaries, no divisor relationship with any internal
  // period (GE burst length, LEO sample window).
  auto chunked = make_named(GetParam());
  Rng rng_chunked(42);
  std::vector<std::uint8_t> data_chunked(kTotal, 0);
  std::uint64_t errors_chunked = 0;
  Rng len_rng(7);
  for (std::size_t pos = 0; pos < kTotal;) {
    const std::size_t len = std::min(
        kTotal - pos, static_cast<std::size_t>(1 + len_rng.uniform(997)));
    errors_chunked += corrupt(
        *chunked, pos, std::span<std::uint8_t>(data_chunked.data() + pos, len),
        rng_chunked);
    pos += len;
  }
  EXPECT_EQ(errors_chunked, errors_whole);
  EXPECT_EQ(data_chunked, data_whole);
}

TEST_P(ChannelRanges, SingleSymbolChunksMatchSequentialApply) {
  // The degenerate chunk size: one events() call per symbol.
  constexpr std::size_t kTotal = 4'000;

  auto whole = make_named(GetParam());
  Rng rng_whole(9);
  std::vector<std::uint8_t> data_whole(kTotal, 0);
  const auto errors_whole = corrupt(*whole, data_whole, rng_whole);

  auto stepped = make_named(GetParam());
  Rng rng_stepped(9);
  std::vector<std::uint8_t> data_stepped(kTotal, 0);
  std::uint64_t errors_stepped = 0;
  for (std::size_t pos = 0; pos < kTotal; ++pos) {
    errors_stepped += corrupt(
        *stepped, pos, std::span<std::uint8_t>(data_stepped.data() + pos, 1),
        rng_stepped);
  }
  EXPECT_EQ(errors_stepped, errors_whole);
  EXPECT_EQ(data_stepped, data_whole);
}

TEST_P(ChannelRanges, SparseRangesMatchSequentialPattern) {
  // Reading disjoint windows with gaps: the skipped spans must consume
  // exactly the draws a full walk would, so the windows land on the same
  // corruption pattern a sequential walk produces.
  constexpr std::size_t kTotal = 60'000;

  auto whole = make_named(GetParam());
  Rng rng_whole(31);
  std::vector<std::uint8_t> reference(kTotal, 0);
  corrupt(*whole, reference, rng_whole);

  auto sparse = make_named(GetParam());
  Rng rng_sparse(31);
  Rng len_rng(13);
  std::size_t pos = 0;
  bool compared_nonzero = false;
  while (pos < kTotal) {
    pos += len_rng.uniform(3000);  // gap, never materialized
    if (pos >= kTotal) break;
    const std::size_t len = std::min(
        kTotal - pos, static_cast<std::size_t>(1 + len_rng.uniform(2000)));
    std::vector<std::uint8_t> window(len, 0);
    corrupt(*sparse, pos, window, rng_sparse);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(window[i], reference[pos + i]) << "wire position " << pos + i;
      compared_nonzero |= reference[pos + i] != 0;
    }
    pos += len;
  }
  EXPECT_TRUE(compared_nonzero) << "test never crossed a corrupted symbol";
}

TEST_P(ChannelRanges, BackwardStartThrows) {
  auto ch = make_named(GetParam());
  Rng rng(1);
  std::vector<std::uint8_t> data(100, 0);
  corrupt(*ch, 500, data, rng);
  EXPECT_EQ(ch->position(), 600u);
  EXPECT_THROW(corrupt(*ch, 599, data, rng), std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ChannelRanges,
                         ::testing::Values("bsc", "ge", "leo"));

TEST(ChannelSkipAhead, LeoFixedSeedGolden) {
  // Deterministic regression pin: skipping 1M symbols into a fixed-seed
  // LEO channel and corrupting the next window must reproduce the pattern
  // of a sequential walk over the same prefix. Guards the O(1)
  // un-faded-sample fast path in LeoFadingChannel against draw-order
  // drift. Fades are seed luck (the AR(1) samples are correlated), so
  // scan a fixed seed range for the first one whose window actually fades
  // — the scan itself is deterministic.
  LeoChannelParams p;
  p.fade_probability = 0.1;
  p.fade_depth_error_rate = 0.9;
  p.symbols_per_sample = 300;
  p.coherence_time_s = 2e-7;
  constexpr std::uint64_t kSkip = 1'000'000;
  constexpr std::size_t kWindow = 16'384;

  bool faded_window_found = false;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    // Reference from a sequential walk over the same wire prefix.
    LeoFadingChannel seq(p);
    Rng rng_seq(seed);
    std::vector<std::uint8_t> prefix(kSkip, 0);
    corrupt(seq, prefix, rng_seq);
    std::vector<std::uint8_t> expected(kWindow, 0);
    const auto expected_errors = corrupt(seq, expected, rng_seq);

    LeoFadingChannel skip(p);
    Rng rng_skip(seed);
    std::vector<std::uint8_t> window(kWindow, 0);
    const auto errors = corrupt(skip, kSkip, window, rng_skip);

    ASSERT_EQ(errors, expected_errors) << "seed " << seed;
    ASSERT_EQ(window, expected) << "seed " << seed;
    if (errors > 0) {
      faded_window_found = true;
      break;
    }
  }
  EXPECT_TRUE(faded_window_found)
      << "no seed in range fades the window — weaken the fade params";
}

}  // namespace
}  // namespace tbi::channel

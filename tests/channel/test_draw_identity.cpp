/// Draw identity of the channel walks.
///
/// The channels test each Bernoulli draw against a precomputed integer
/// threshold (Rng::Bernoulli). The oracles below are the definitional
/// per-symbol loops that compare uniform_double() against the double
/// probability; each channel must emit the oracle's events exactly and
/// leave its generator in the same state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"

namespace tbi::channel {
namespace {

using Events = std::vector<Corruption>;

bool draw(Rng& rng, double p) { return rng.uniform_double() < p; }

Events bsc_oracle(double p, unsigned bits, std::uint64_t span, Rng& rng) {
  Events out;
  for (std::uint64_t i = 0; i < span; ++i) {
    if (draw(rng, p)) out.push_back({i, corrupt_flip(bits, rng)});
  }
  return out;
}

Events ge_oracle(const GilbertElliottParams& q, std::uint64_t span, Rng& rng) {
  Events out;
  bool bad = false;
  for (std::uint64_t i = 0; i < span; ++i) {
    if (bad) {
      if (draw(rng, q.p_bg)) bad = false;
    } else {
      if (draw(rng, q.p_gb)) bad = true;
    }
    const double p = bad ? q.error_bad : q.error_good;
    if (p > 0.0 && draw(rng, p)) out.push_back({i, corrupt_flip(q.symbol_bits, rng)});
  }
  return out;
}

/// AR(1) power process sampled every symbols_per_sample symbols, with a
/// stationary first sample and Marsaglia polar Gaussians (spare cached);
/// rho and the fade threshold come from the channel under test.
Events leo_oracle(const LeoChannelParams& q, double rho, double threshold,
                  std::uint64_t span, Rng& rng) {
  bool has_spare = false;
  double spare = 0.0;
  const auto gaussian = [&]() {
    if (has_spare) {
      has_spare = false;
      return spare;
    }
    double u, v, s;
    do {
      u = 2.0 * rng.uniform_double() - 1.0;
      v = 2.0 * rng.uniform_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare = v * m;
    has_spare = true;
    return u * m;
  };
  const double sigma = std::sqrt(1.0 - rho * rho);
  Events out;
  double state = 0.0;
  bool faded = false;
  for (std::uint64_t i = 0; i < span; ++i) {
    if (i % q.symbols_per_sample == 0) {
      state = i == 0 ? gaussian() : rho * state + sigma * gaussian();
      faded = state < threshold;
    }
    if (faded && draw(rng, q.fade_depth_error_rate)) {
      out.push_back({i, corrupt_flip(q.symbol_bits, rng)});
    }
  }
  return out;
}

/// Walk \p ch over [0, span) in seeded pseudo-random chunks, so the
/// per-call threshold set-up and carried state are crossed many times.
Events walk(Channel& ch, std::uint64_t span, Rng& rng, std::uint64_t chunk_seed) {
  Events out;
  const auto collect = [&out](const Corruption& e) { out.push_back(e); };
  Rng chunks(chunk_seed);
  while (ch.position() < span) {
    const std::uint64_t len =
        std::min(span - ch.position(), 1 + chunks.uniform(20000));
    ch.events(ch.position(), len, rng, collect);
  }
  return out;
}

/// Same events, same generator state afterwards (next 4 draws).
void expect_identical(const Events& got, const Events& want, Rng& got_rng,
                      Rng& want_rng) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "event " << i << " at wire " << want[i].wire_pos;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got_rng.next_u64(), want_rng.next_u64());
}

constexpr std::uint64_t kSpan = 200'000;
constexpr std::uint64_t kSeeds[] = {1, 2, 7, 1001, 0xDEADBEEF};

TEST(DrawIdentity, SymmetricMatchesDoubleCompareLoop) {
  for (double p : {0.0, 1e-5, 1e-3, 0.3, 1.0}) {
    for (std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(testing::Message() << "p " << p << " seed " << seed);
      SymmetricChannel ch(p, 3);
      Rng rng(seed), oracle_rng(seed);
      const Events got = walk(ch, kSpan, rng, seed + 1);
      const Events want = bsc_oracle(p, 3, kSpan, oracle_rng);
      expect_identical(got, want, rng, oracle_rng);
    }
  }
}

TEST(DrawIdentity, GilbertElliottMatchesDoubleCompareLoop) {
  // The fer-fade profile, a fast-switching profile (error_good = 0, so the
  // Good state makes no error draw), and one where Good also errs.
  std::vector<GilbertElliottParams> profiles = {
      GilbertElliottParams::from_burst_profile(300, 0.004, 0.95, 3),
      GilbertElliottParams::from_burst_profile(40, 0.3, 0.5, 3),
  };
  GilbertElliottParams noisy_good = profiles[1];
  noisy_good.error_good = 1e-3;
  noisy_good.error_bad = 1.0;
  profiles.push_back(noisy_good);
  for (std::size_t k = 0; k < profiles.size(); ++k) {
    for (std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(testing::Message() << "profile " << k << " seed " << seed);
      GilbertElliottChannel ch(profiles[k]);
      Rng rng(seed), oracle_rng(seed);
      const Events got = walk(ch, kSpan, rng, seed + 1);
      const Events want = ge_oracle(profiles[k], kSpan, oracle_rng);
      if (k > 0) {
        EXPECT_GT(want.size(), 0u);
      }
      expect_identical(got, want, rng, oracle_rng);
    }
  }
}

TEST(DrawIdentity, LeoMatchesDoubleCompareLoop) {
  for (double depth : {0.0, 0.5, 1.0}) {
    LeoChannelParams q;
    q.symbol_rate_hz = 1.0;
    q.coherence_time_s = 2000.0;
    q.fade_probability = 0.3;
    q.fade_depth_error_rate = depth;
    q.symbols_per_sample = 300;  // no divisor relationship with the chunks
    for (std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(testing::Message() << "depth " << depth << " seed " << seed);
      LeoFadingChannel ch(q);
      Rng rng(seed), oracle_rng(seed);
      const Events got = walk(ch, kSpan, rng, seed + 1);
      const Events want = leo_oracle(q, ch.rho(), ch.threshold(), kSpan, oracle_rng);
      if (depth > 0.0) {
        EXPECT_GT(want.size(), 0u) << "no in-fade window was walked";
      }
      expect_identical(got, want, rng, oracle_rng);
    }
  }
}

}  // namespace
}  // namespace tbi::channel

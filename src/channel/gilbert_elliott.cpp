#include "channel/gilbert_elliott.hpp"

#include <stdexcept>

namespace tbi::channel {

GilbertElliottParams GilbertElliottParams::from_burst_profile(
    double mean_burst_symbols, double bad_fraction, double error_bad,
    unsigned symbol_bits) {
  // Written so that NaN fails every test.
  if (!(mean_burst_symbols >= 1.0) || !(bad_fraction > 0.0 && bad_fraction < 1.0)) {
    throw std::invalid_argument("GilbertElliottParams: bad burst profile");
  }
  GilbertElliottParams p;
  p.p_bg = 1.0 / mean_burst_symbols;
  // stationary bad fraction = p_gb / (p_gb + p_bg)
  p.p_gb = p.p_bg * bad_fraction / (1.0 - bad_fraction);
  p.error_good = 0.0;
  p.error_bad = error_bad;
  p.symbol_bits = symbol_bits;
  return p;
}

GilbertElliottChannel::GilbertElliottChannel(GilbertElliottParams params)
    : params_(params) {
  auto check01 = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!check01(params_.p_gb) || !check01(params_.p_bg) ||
      !check01(params_.error_good) || !check01(params_.error_bad)) {
    throw std::invalid_argument("GilbertElliottChannel: probability out of range");
  }
  if (params_.symbol_bits == 0) {
    throw std::invalid_argument("GilbertElliottChannel: symbol_bits must be > 0");
  }
}

double GilbertElliottChannel::stationary_bad() const {
  const double denom = params_.p_gb + params_.p_bg;
  return denom > 0.0 ? params_.p_gb / denom : 0.0;
}

std::uint64_t GilbertElliottChannel::advance(std::uint64_t span, Rng& rng,
                                             EventSink sink) {
  const std::uint64_t base = position();
  const Rng::Bernoulli to_bad(params_.p_gb);
  const Rng::Bernoulli to_good(params_.p_bg);
  const Rng::Bernoulli error_good(params_.error_good);
  const Rng::Bernoulli error_bad(params_.error_bad);
  bool bad = bad_;
  std::uint64_t corrupted = 0;
  for (std::uint64_t i = 0; i < span; ++i) {
    bad = bad ? !rng.bernoulli(to_good) : rng.bernoulli(to_bad);
    // A state whose error rate is 0 makes no error draw at all.
    const Rng::Bernoulli& error = bad ? error_bad : error_good;
    if (error.possible() && rng.bernoulli(error)) {
      sink({base + i, corrupt_flip(params_.symbol_bits, rng)});
      ++corrupted;
    }
  }
  bad_ = bad;
  return corrupted;
}

}  // namespace tbi::channel

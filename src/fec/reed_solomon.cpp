#include "fec/reed_solomon.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace tbi::fec {

namespace {

std::uint8_t poly_eval(std::span<const std::uint8_t> p, std::uint8_t x) {
  std::uint8_t acc = 0;
  for (std::size_t i = p.size(); i-- > 0;) {
    acc = GF256::add(GF256::mul(acc, x), p[i]);
  }
  return acc;
}

}  // namespace

ReedSolomon::ReedSolomon(unsigned n, unsigned k) : n_(n), k_(k) {
  if (n_ == 0 || n_ > 255 || k_ == 0 || k_ >= n_) {
    throw std::invalid_argument("ReedSolomon: need 0 < k < n <= 255");
  }
  if ((n_ - k_) % 2 != 0) {
    throw std::invalid_argument("ReedSolomon: n - k must be even");
  }
  // g(x) = prod_{i=1}^{n-k} (x - alpha^i), low degree first.
  generator_ = {1};
  for (unsigned i = 1; i <= n_ - k_; ++i) {
    const std::uint8_t root = GF256::pow_alpha(i);
    std::vector<std::uint8_t> next(generator_.size() + 1, 0);
    for (std::size_t d = 0; d < generator_.size(); ++d) {
      next[d] = GF256::add(next[d], GF256::mul(generator_[d], root));
      next[d + 1] = GF256::add(next[d + 1], generator_[d]);
    }
    generator_ = std::move(next);
  }
}

void ReedSolomon::encode(std::span<const std::uint8_t> data,
                         std::span<std::uint8_t> word) const {
  if (data.size() != k_ || word.size() != n_) {
    throw std::invalid_argument("ReedSolomon::encode: bad size");
  }
  // Systematic encoding as in-place long division of data * x^(n-k) by
  // g(x): the dividend starts as [data | 0^p]; each step cancels the
  // leading coefficient c[i] by subtracting c[i] * g(x) aligned under it.
  // The monic leading term of g cancels c[i] itself, so only the lower p
  // coefficients are applied. What remains in c[k..n) IS the parity,
  // already in the word's high-degree-first layout (c[k+d] is the
  // coefficient of x^(p-1-d)).
  const unsigned p = parity();
  std::uint8_t c[255];
  std::copy(data.begin(), data.end(), c);
  std::fill(c + k_, c + n_, 0);
  for (unsigned i = 0; i < k_; ++i) {
    const std::uint8_t f = c[i];
    if (f == 0) continue;
    for (unsigned d = 1; d <= p; ++d) {
      c[i + d] = GF256::add(c[i + d], GF256::mul(f, generator_[p - d]));
    }
  }
  if (word.data() != data.data()) {
    std::copy(data.begin(), data.end(), word.begin());
  }
  std::copy(c + k_, c + n_, word.begin() + k_);
}

bool ReedSolomon::syndromes(std::span<const std::uint8_t> word,
                            std::span<std::uint8_t> out) const {
  // word[j] is the coefficient of x^(n-1-j), so S_i = r(alpha^i) =
  // sum_j word[j] * alpha^{i(n-1-j)}. In the log domain the term of a
  // nonzero symbol w is alpha^{log w + i(n-1-j)}: the exponent steps by
  // n-1-j per syndrome, so each term is one antilog lookup and zero
  // symbols cost nothing.
  const unsigned p = parity();
  std::fill(out.begin(), out.end(), 0);
  for (unsigned j = 0; j < n_; ++j) {
    const std::uint8_t w = word[j];
    if (w == 0) continue;
    const unsigned step = n_ - 1 - j;  // < 255
    unsigned e = GF256::log_alpha(w);
    for (unsigned i = 0; i < p; ++i) {
      e += step;
      if (e >= 255) e -= 255;
      out[i] = GF256::add(out[i], GF256::pow_alpha(e));
    }
  }
  return std::all_of(out.begin(), out.end(), [](std::uint8_t s) { return s == 0; });
}

bool ReedSolomon::is_codeword(std::span<const std::uint8_t> word) const {
  if (word.size() != n_) return false;
  std::array<std::uint8_t, 256> synd;
  return syndromes(word, std::span<std::uint8_t>(synd.data(), parity()));
}

RsDecodeResult ReedSolomon::decode(std::span<std::uint8_t> word,
                                   RsScratch& scratch) const {
  if (word.size() != n_) throw std::invalid_argument("ReedSolomon::decode: bad size");
  scratch.synd.resize(parity());
  if (syndromes(word, scratch.synd)) return {true, 0};
  const auto& synd = scratch.synd;

  // Berlekamp-Massey: error locator sigma(x), low degree first.
  auto& sigma = scratch.sigma;
  auto& prev = scratch.prev;
  sigma.assign(1, 1);
  prev.assign(1, 1);
  unsigned L = 0;
  unsigned m = 1;
  std::uint8_t b = 1;
  for (unsigned iter = 0; iter < parity(); ++iter) {
    std::uint8_t delta = synd[iter];
    for (unsigned i = 1; i <= L && i < sigma.size(); ++i) {
      delta = GF256::add(delta, GF256::mul(sigma[i], synd[iter - i]));
    }
    if (delta == 0) {
      ++m;
      continue;
    }
    if (2 * L <= iter) {
      scratch.tmp = sigma;
      const std::uint8_t scale = GF256::div(delta, b);
      if (sigma.size() < prev.size() + m) sigma.resize(prev.size() + m, 0);
      for (std::size_t i = 0; i < prev.size(); ++i) {
        sigma[i + m] = GF256::add(sigma[i + m], GF256::mul(scale, prev[i]));
      }
      L = iter + 1 - L;
      prev = scratch.tmp;
      b = delta;
      m = 1;
    } else {
      const std::uint8_t scale = GF256::div(delta, b);
      if (sigma.size() < prev.size() + m) sigma.resize(prev.size() + m, 0);
      for (std::size_t i = 0; i < prev.size(); ++i) {
        sigma[i + m] = GF256::add(sigma[i + m], GF256::mul(scale, prev[i]));
      }
      ++m;
    }
  }
  while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
  const unsigned errors = static_cast<unsigned>(sigma.size()) - 1;
  if (errors > t()) return {false, 0};

  // Chien search over code-word positions. Position j (coefficient of
  // x^(n-1-j)) has locator X = alpha^(n-1-j); it is an error location iff
  // sigma(X^{-1}) == 0.
  auto& error_positions = scratch.positions;
  error_positions.clear();
  for (unsigned j = 0; j < n_; ++j) {
    const unsigned power = n_ - 1 - j;
    const std::uint8_t x_inv = GF256::pow_alpha(255 - (power % 255));
    if (poly_eval(sigma, x_inv) == 0) error_positions.push_back(j);
  }
  if (error_positions.size() != errors) return {false, 0};

  // Forney: error evaluator omega(x) = [S(x) * sigma(x)] mod x^(n-k).
  auto& omega = scratch.omega;
  omega.assign(parity(), 0);
  for (unsigned i = 0; i < parity(); ++i) {
    for (std::size_t d = 0; d < sigma.size() && d <= i; ++d) {
      omega[i] = GF256::add(omega[i], GF256::mul(synd[i - d], sigma[d]));
    }
  }
  // sigma'(x): formal derivative (odd-degree coefficients).
  auto& sigma_deriv = scratch.deriv;
  sigma_deriv.clear();
  for (std::size_t d = 1; d < sigma.size(); d += 2) {
    sigma_deriv.resize(d, 0);
    sigma_deriv[d - 1] = sigma[d];
  }

  for (unsigned j : error_positions) {
    const unsigned power = n_ - 1 - j;
    const std::uint8_t x_inv = GF256::pow_alpha(255 - (power % 255));
    const std::uint8_t num = poly_eval(omega, x_inv);
    const std::uint8_t den = poly_eval(sigma_deriv, x_inv);
    if (den == 0) return {false, 0};
    // With syndromes S_i = r(alpha^i), i = 1..2t, the Forney magnitude is
    // e_j = omega(X^{-1}) / sigma'(X^{-1}) (the X factors cancel in GF(2^m)).
    const std::uint8_t magnitude = GF256::div(num, den);
    word[j] = GF256::add(word[j], magnitude);
  }

  if (!is_codeword(word)) return {false, 0};
  return {true, static_cast<unsigned>(error_positions.size())};
}

std::vector<std::uint8_t> ReedSolomon::encode(
    const std::vector<std::uint8_t>& data) const {
  std::vector<std::uint8_t> word(n_);
  encode(std::span<const std::uint8_t>(data),
         std::span<std::uint8_t>(word));
  return word;
}

RsDecodeResult ReedSolomon::decode(std::vector<std::uint8_t>& word) const {
  RsScratch scratch;
  return decode(std::span<std::uint8_t>(word), scratch);
}

}  // namespace tbi::fec

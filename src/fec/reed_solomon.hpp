/// \file reed_solomon.hpp
/// Systematic Reed-Solomon codec RS(n, k) over GF(2^8), n <= 255.
///
/// Stands in for the proprietary satcom FEC of the paper's system
/// (DESIGN.md §5): the end-to-end examples encode a frame, pass it through
/// the two-stage triangular interleaver and a bursty optical channel, and
/// show that the interleaver converts channel bursts that would swamp any
/// single code word into correctable per-code-word error counts.
///
/// Decoder: syndromes -> Berlekamp-Massey -> Chien search -> Forney,
/// correcting up to t = (n-k)/2 symbol errors per code word.
///
/// Role: the FER pipeline decides every word of weight <= t in closed
/// form (sim::decode_error_word, DESIGN.md §5) and never encodes, so
/// decode() runs only on the few words a fade pushes past t, and encode()
/// serves the tests and examples. Both stay plain (DESIGN.md §8): encode
/// is the textbook long division of data * x^(n-k) by g(x) with
/// GF256::mul, and the syndrome pass adds alpha^(log w + i(n-1-j)) for
/// each nonzero received symbol w at position j, one antilog lookup per
/// term. The span overloads of encode()/decode() write into caller-owned
/// buffers and an RsScratch workspace, so decoding performs zero heap
/// allocations per code word; the vector overloads remain as convenience
/// wrappers with identical results.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fec/gf256.hpp"

namespace tbi::fec {

struct RsDecodeResult {
  bool ok = false;                 ///< true when a valid code word was recovered
  unsigned corrected_symbols = 0;  ///< number of symbol corrections applied
};

/// Reusable decoder workspace. All vectors grow to their steady-state
/// size on first use and are reused afterwards; one instance per worker
/// thread (never shared concurrently).
struct RsScratch {
  std::vector<std::uint8_t> synd;       ///< syndromes S_1..S_{n-k}
  std::vector<std::uint8_t> sigma;      ///< error locator
  std::vector<std::uint8_t> prev;       ///< BM auxiliary polynomial
  std::vector<std::uint8_t> tmp;        ///< BM update scratch
  std::vector<std::uint8_t> omega;      ///< error evaluator
  std::vector<std::uint8_t> deriv;      ///< sigma' (formal derivative)
  std::vector<unsigned> positions;      ///< Chien search hits

  /// Pre-size every buffer for length-\p n code words. The decoder grows
  /// them lazily to the worst error count seen so far; reserving up front
  /// is what makes the pipeline's steady-state frame loop allocation-free.
  void reserve(std::size_t n) {
    synd.reserve(n);
    sigma.reserve(n);
    prev.reserve(n);
    tmp.reserve(n);
    omega.reserve(n);
    deriv.reserve(n);
    positions.reserve(n);
  }
};

class ReedSolomon {
 public:
  /// \p n total symbols per code word, \p k data symbols; n-k must be even
  /// and positive, n <= 255.
  ReedSolomon(unsigned n, unsigned k);

  unsigned n() const { return n_; }
  unsigned k() const { return k_; }
  unsigned parity() const { return n_ - k_; }
  unsigned t() const { return (n_ - k_) / 2; }

  /// Encode k data symbols into the n-symbol systematic code word
  /// \p word (data first, parity appended). word.size() must be n; the
  /// data may alias word's first k bytes.
  void encode(std::span<const std::uint8_t> data, std::span<std::uint8_t> word) const;

  /// Decode an n-symbol received word in place, using \p scratch for all
  /// intermediate polynomials (no allocations in steady state).
  RsDecodeResult decode(std::span<std::uint8_t> word, RsScratch& scratch) const;

  /// Convenience wrappers (identical results, allocate per call).
  std::vector<std::uint8_t> encode(const std::vector<std::uint8_t>& data) const;
  RsDecodeResult decode(std::vector<std::uint8_t>& word) const;

  /// True iff \p word is a valid code word (all syndromes zero).
  bool is_codeword(std::span<const std::uint8_t> word) const;

 private:
  /// Fill \p out (size parity) with syndromes; returns true iff all zero.
  bool syndromes(std::span<const std::uint8_t> word,
                 std::span<std::uint8_t> out) const;

  unsigned n_;
  unsigned k_;
  std::vector<std::uint8_t> generator_;  ///< generator polynomial, low degree first
};

}  // namespace tbi::fec

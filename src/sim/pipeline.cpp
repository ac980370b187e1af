#include "sim/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"
#include "common/mathutil.hpp"
#include "interleaver/block.hpp"
#include "interleaver/streams.hpp"
#include "interleaver/triangular.hpp"
#include "interleaver/twostage.hpp"
#include "perf/counters.hpp"
#include "source/trace.hpp"

namespace tbi::sim {

namespace {

constexpr unsigned kChannelSymbolBits = 8;  // RS symbols are bytes

/// One channel hit in the frame workspace: input index << 8 | XOR flip.
using Hit = std::uint64_t;
constexpr std::uint64_t kMaxHitCapacity = std::uint64_t{1} << 56;

constexpr Hit make_hit(std::uint64_t input_index, std::uint8_t flip) {
  return input_index << 8 | flip;
}
constexpr std::uint64_t hit_index(Hit h) { return h >> 8; }
constexpr std::uint8_t hit_flip(Hit h) { return static_cast<std::uint8_t>(h); }

/// The hit list's reservation before the warm-up frame, and its floor
/// after it.
constexpr std::size_t kMinHitReserve = 4096;
/// After the warm-up frame the hit list reserves this multiple of that
/// frame's events. A fade frame's count is a sum over a few dozen
/// geometric fades, so one frame can read a cell's rate low by up to ~3x.
constexpr std::size_t kHitHeadroom = 4;

/// Stream permutation for the pipeline's interleaver axis, used only
/// through its O(1) inverse. The block variant reshapes the packed
/// triangle into an exact rows x cols rectangle (classic SRAM
/// interleaver) as the non-triangular baseline; the two-stage variant is
/// the paper's SRAM-block-into-DRAM-triangle composition.
class StreamInterleaver {
 public:
  StreamInterleaver(const std::string& kind, std::uint64_t side,
                    std::uint64_t symbols_per_burst) {
    if (kind == "none") {
      capacity_ = triangular_number(side);
      return;
    }
    if (kind == "triangular") {
      tri_ = std::make_unique<interleaver::TriangularInterleaver>(side);
      capacity_ = tri_->capacity();
      return;
    }
    if (kind == "block") {
      // T(side) = side*(side+1)/2 factors exactly as rows x cols with
      // rows = side (side odd) or side+1 (side even).
      const std::uint64_t rows = (side % 2 == 1) ? side : side + 1;
      block_ = std::make_unique<interleaver::BlockInterleaver>(
          rows, triangular_number(side) / rows);
      capacity_ = block_->capacity();
      return;
    }
    if (kind == "two-stage") {
      two_ = std::make_unique<interleaver::TwoStageInterleaver>(side,
                                                                symbols_per_burst);
      capacity_ = two_->capacity_symbols();
      return;
    }
    throw std::invalid_argument("pipeline: unknown interleaver '" + kind + "'");
  }

  /// Frame size in symbols.
  std::uint64_t capacity_symbols() const { return capacity_; }

  /// Input (code-word stream) position of the symbol at wire position
  /// \p p — the inverse permutation, O(1) for every kind.
  std::uint64_t wire_to_input(std::uint64_t p) const {
    if (tri_) return tri_->permute(p);  // involution: inverse == forward
    if (block_) return block_->inverse(p);
    if (two_) return two_->inverse(p);
    return p;
  }

 private:
  std::unique_ptr<interleaver::TriangularInterleaver> tri_;
  std::unique_ptr<interleaver::BlockInterleaver> block_;
  std::unique_ptr<interleaver::TwoStageInterleaver> two_;
  std::uint64_t capacity_ = 0;
};

/// Where a frame's input (code-word stream) indices sit in its RS words.
///
/// * Packed: full RS(n, k) words back to back; a sub-word tail of the
///   interleaver capacity is zero padding.
/// * Row-aligned (side == rs_n): triangle row i carries one shortened
///   RS(n, k) word with i implicit leading zeros, transmitted as word
///   symbols [i, n). A row carries data only while its length n - i
///   exceeds the parity, i.e. rows 0..k-1; the trailing rows are padding.
///
/// Either way word w's symbol j sits at input index base(w) + j for
/// j >= lead(w), and its data is symbols [lead(w), k).
class WordLayout {
 public:
  static WordLayout packed(std::uint64_t capacity, unsigned n) {
    return WordLayout(n, capacity / n, {});
  }

  static WordLayout row_aligned(unsigned n, unsigned k) {
    std::vector<std::uint64_t> row_start(k + 1, 0);
    for (unsigned i = 0; i < k; ++i) row_start[i + 1] = row_start[i] + (n - i);
    return WordLayout(n, k, std::move(row_start));
  }

  /// Code words per frame.
  std::uint64_t words() const { return words_; }

  /// Word holding \p input_index; >= words() inside the padding.
  std::uint64_t word_of(std::uint64_t input_index) const {
    if (row_start_.empty()) return input_index / n_;
    return static_cast<std::uint64_t>(
        std::upper_bound(row_start_.begin(), row_start_.end(), input_index) -
        row_start_.begin() - 1);
  }

  /// Implicit leading zeros of word \p w: its first checked symbol.
  unsigned lead(std::uint64_t w) const {
    return row_start_.empty() ? 0 : static_cast<unsigned>(w);
  }

  /// Input index of word \p w's (possibly implicit) symbol 0.
  std::uint64_t base(std::uint64_t w) const {
    return row_start_.empty() ? w * n_ : row_start_[w] - w;
  }

 private:
  WordLayout(unsigned n, std::uint64_t words, std::vector<std::uint64_t> row_start)
      : n_(n), words_(words), row_start_(std::move(row_start)) {}

  unsigned n_;
  std::uint64_t words_;
  std::vector<std::uint64_t> row_start_;  ///< row-aligned only: rows 0..k
};

/// The interleaver and word layout every frame of one config uses. The
/// classic kinds are row-aligned exactly when the side equals the code
/// word; two-stage frames are burst-granular and always packed.
struct FrameGeometry {
  explicit FrameGeometry(const PipelineConfig& config)
      : side(config.side != 0 ? config.side : config.rs_n),
        il(config.interleaver, side, config.symbols_per_burst),
        layout(make_layout(config, side, il.capacity_symbols())) {}

  std::uint64_t side;
  StreamInterleaver il;
  WordLayout layout;

 private:
  static WordLayout make_layout(const PipelineConfig& config, std::uint64_t side,
                                std::uint64_t capacity) {
    if (capacity >= kMaxHitCapacity) {
      throw std::invalid_argument("pipeline: frame too large for the hit encoding");
    }
    if (config.interleaver != "two-stage" && side == config.rs_n) {
      return WordLayout::row_aligned(config.rs_n, config.rs_k);
    }
    if (capacity < config.rs_n) {
      throw std::invalid_argument("pipeline: side too small for one RS code word");
    }
    return WordLayout::packed(capacity, config.rs_n);
  }
};

/// Per-run workspace: every buffer the frame loop touches, allocated once
/// and reused across frames (zero steady-state allocations per frame).
/// Nothing is proportional to the frame capacity: one code word, the
/// sparse per-frame hit list and the decoder scratch.
struct FrameWorkspace {
  std::vector<std::uint8_t> word;  ///< one RS code word (n symbols)
  std::vector<Hit> hits;           ///< per-frame corruption, input order
  fec::RsScratch rs_scratch;

  explicit FrameWorkspace(unsigned n) : word(n) {
    rs_scratch.reserve(n);
    hits.reserve(kMinHitReserve);
  }

  /// Bytes currently held across all buffers (capacities, so reserve
  /// growth is charged) — the instrumented counter the paper-scale
  /// memory test bounds by the per-frame error count.
  std::uint64_t allocated_bytes() const {
    const auto scratch_bytes = [](const fec::RsScratch& s) {
      return s.synd.capacity() + s.sigma.capacity() + s.prev.capacity() +
             s.tmp.capacity() + s.omega.capacity() + s.deriv.capacity() +
             s.positions.capacity() * sizeof(unsigned);
    };
    return word.capacity() + hits.capacity() * sizeof(Hit) +
           scratch_bytes(rs_scratch);
  }
};

/// Decode one frame from its sorted hit list (ws.hits) in the error
/// domain: each touched word is the all-zero code word plus its hits
/// (decode_error_word). Words with no hits decode trivially and are only
/// counted.
void decode_error_frame(const fec::ReedSolomon& rs, const WordLayout& layout,
                        FrameWorkspace& ws, PipelineResult& result) {
  const unsigned n = rs.n();
  std::uint8_t* word = ws.word.data();
  const std::vector<Hit>& hits = ws.hits;
  result.code_words += layout.words();
  std::uint64_t failures = 0;
  std::size_t h = 0;
  while (h < hits.size()) {
    const std::uint64_t w = layout.word_of(hit_index(hits[h]));
    if (w >= layout.words()) break;  // the rest are hits in the zero padding
    const std::uint64_t base = layout.base(w);
    std::fill(word, word + n, 0);
    for (; h < hits.size() && hit_index(hits[h]) < base + n; ++h) {
      word[hit_index(hits[h]) - base] ^= hit_flip(hits[h]);
    }
    const WordOutcome out = decode_error_word(
        rs, std::span<std::uint8_t>(word, n), layout.lead(w), ws.rs_scratch);
    if (out.data_ok) {
      result.corrected_symbols += out.corrected_symbols;
    } else {
      ++failures;
    }
  }
  result.word_errors += failures;
  result.frame_errors += failures != 0;
}

/// The frame loop shared by run_pipeline and combine_pipeline_slices:
/// \p load_hits(f, hits) appends frame f's hits in any order, the loop
/// sorts them and decodes. Returns the workspace's final byte count.
template <typename LoadHits>
std::uint64_t run_frames(const PipelineConfig& config, const fec::ReedSolomon& rs,
                         const WordLayout& layout, LoadHits&& load_hits,
                         PipelineResult& result) {
  FrameWorkspace ws(rs.n());
  const std::uint64_t host_start = perf::now_ns();
  perf::AllocationScope alloc_scope;
  for (unsigned f = 0; f < config.frames; ++f) {
    if (f == 1) {
      // Frame 0 is the warm-up (hit-list growth, decoder scratch). Size
      // the hit list from its event count before the steady-state window
      // starts.
      ws.hits.reserve(std::max(kMinHitReserve, kHitHeadroom * ws.hits.size()));
      alloc_scope.restart();
    }
    ws.hits.clear();
    load_hits(f, ws.hits);
    // The input indices are a permutation of distinct wire positions, so
    // plain integer order is input order and the sort is unique.
    std::sort(ws.hits.begin(), ws.hits.end());
    decode_error_frame(rs, layout, ws, result);
  }
  result.host_ns += perf::now_ns() - host_start;
  result.steady_allocations = config.frames > 1 ? alloc_scope.allocations() : 0;
  result.steady_frames = config.frames - 1;
  return ws.allocated_bytes();
}

/// DRAM stage shared by run_pipeline and combine_pipeline_slices: honored
/// for every DRAM-resident interleaver. "block" is the SRAM stage-1
/// structure and "none" buffers nothing, so asking for their DRAM phases
/// is a configuration error, not a silent no-op.
void run_dram_phase(const PipelineConfig& config, std::uint64_t side,
                    PipelineResult& result) {
  if (!config.run_dram) return;
  if (!dram_resident_interleaver(config.interleaver)) {
    throw std::invalid_argument(
        "pipeline: run_dram requires a DRAM-resident interleaver "
        "('triangular' or 'two-stage'); '" +
        config.interleaver +
        "' never touches DRAM — set run_dram = false for it");
  }
  if (config.device.name.empty()) {
    throw std::invalid_argument("pipeline: run_dram requires a device");
  }
  RunConfig rc;
  rc.device = config.device;
  rc.mapping_spec = config.mapping_spec;
  // The two-stage geometry is already burst-granular: its stage-2 side
  // *is* the burst triangle. A symbol-level triangular frame is packed
  // into bursts of the device's burst size first.
  rc.side = config.interleaver == "two-stage"
                ? side
                : interleaver::burst_triangle_side(triangular_number(side),
                                                   kChannelSymbolBits,
                                                   config.device.burst_bytes);
  rc.max_bursts_per_phase = config.dram_max_bursts_per_phase;
  rc.check_protocol = config.check_protocol;
  result.dram = run_interleaver(rc);
  result.dram_ran = true;
  result.dram_throughput_gbps = result.dram.throughput_gbps(config.device.burst_bytes);
}

}  // namespace

WordOutcome decode_error_word(const fec::ReedSolomon& rs, std::span<std::uint8_t> error,
                              unsigned lead, fec::RsScratch& scratch) {
  // Bounded-distance closed form (DESIGN.md §5): the code's minimum
  // distance is 2t + 1, so an error of weight <= t has the zero word as
  // its unique nearest code word and the decoder corrects every hit. The
  // weight is taken on the assembled word, so hits that XOR-cancel
  // count as nothing.
  const auto weight = static_cast<unsigned>(
      std::count_if(error.begin(), error.end(), [](std::uint8_t s) { return s != 0; }));
  if (weight <= rs.t()) {
    std::fill(error.begin(), error.end(), 0);
    return {true, true, weight};
  }
  const auto res = rs.decode(error, scratch);
  WordOutcome out;
  out.decoded = res.ok;
  out.data_ok = res.ok && std::all_of(error.begin() + lead, error.begin() + rs.k(),
                                      [](std::uint8_t s) { return s == 0; });
  out.corrected_symbols = res.corrected_symbols;
  return out;
}

bool dram_resident_interleaver(const std::string& kind) {
  return kind == "triangular" || kind == "two-stage";
}

PipelineConfig fer_cell_config(const PipelineConfig& base, const Scenario& scenario,
                               std::uint64_t seed) {
  PipelineConfig config = base;
  config.interleaver = scenario.interleaver;
  config.channel = scenario.channel;
  config.rs_k = scenario.rs_k;
  config.mapping_spec = scenario.mapping_spec;
  if (scenario.symbols_per_burst != 0) {
    config.symbols_per_burst = scenario.symbols_per_burst;
  }
  if (scenario.links != 0) {
    config.links = scenario.links;
  }
  // The DRAM stage only exists for DRAM-resident interleavers; narrow the
  // template's run_dram so mixed grids stay valid.
  config.run_dram = base.run_dram && dram_resident_interleaver(scenario.interleaver);
  config.seed = seed;
  if (!scenario.device.empty()) {
    const auto* device = dram::find_config(scenario.device);
    if (device == nullptr) {
      throw std::invalid_argument("fer sweep: unknown device '" + scenario.device +
                                  "'");
    }
    config.device = *device;
  }
  return config;
}

std::unique_ptr<channel::Channel> make_channel(const PipelineConfig& config) {
  if (config.channel == "none") {
    return nullptr;
  }
  if (config.channel == "bsc") {
    return std::make_unique<channel::SymmetricChannel>(config.error_probability,
                                                       kChannelSymbolBits);
  }
  if (config.channel == "gilbert-elliott") {
    return std::make_unique<channel::GilbertElliottChannel>(
        channel::GilbertElliottParams::from_burst_profile(
            config.mean_burst_symbols, config.fade_fraction,
            config.error_rate_bad, kChannelSymbolBits));
  }
  if (config.channel == "leo") {
    channel::LeoChannelParams p;
    // Express the fade geometry in symbols directly: one "second" == one
    // symbol, so the coherence time is mean_burst_symbols.
    p.symbol_rate_hz = 1.0;
    p.coherence_time_s = config.mean_burst_symbols;
    p.fade_probability = config.fade_fraction;
    p.fade_depth_error_rate = config.error_rate_bad;
    p.symbol_bits = kChannelSymbolBits;
    const double stride = std::max<double>(1.0, config.mean_burst_symbols / 16.0);
    if (!(stride <= std::numeric_limits<unsigned>::max())) {
      throw std::invalid_argument("pipeline: leo mean_burst_symbols too large");
    }
    p.symbols_per_sample = static_cast<unsigned>(stride);
    return std::make_unique<channel::LeoFadingChannel>(p);
  }
  throw std::invalid_argument("pipeline: unknown channel '" + config.channel + "'");
}

std::unique_ptr<source::ErrorSource> make_source(const PipelineConfig& config) {
  if (config.links == 0) {
    throw std::invalid_argument("pipeline: links must be >= 1");
  }
  if (!config.trace_replay.empty() && config.channel != "trace") {
    throw std::invalid_argument(
        "pipeline: trace_replay is only read when channel == 'trace'");
  }
  std::unique_ptr<source::ErrorSource> src;
  if (config.channel == "trace") {
    if (config.trace_replay.empty()) {
      throw std::invalid_argument(
          "pipeline: channel 'trace' needs a trace_replay path");
    }
    src = source::TraceReplaySource::open(config.trace_replay);
  } else if (config.channel != "none") {
    // Same stream split as the pre-source pipeline: index 1 off the cell
    // seed is the channel stream (index 0 is data), so a single link
    // reproduces the legacy channel_rng draws bit for bit.
    const std::uint64_t channel_root = job_seed(config.seed, 1);
    const auto factory = [config]() { return make_channel(config); };
    if (config.links == 1) {
      src = std::make_unique<source::ChannelSource>(factory, channel_root);
    } else {
      std::vector<source::MultiLinkSource::Link> links(config.links);
      for (unsigned l = 0; l < config.links; ++l) {
        links[l].source = std::make_unique<source::ChannelSource>(
            factory, job_seed(channel_root, l));
        links[l].phase_offset =
            static_cast<std::uint64_t>(l) * config.link_phase_symbols;
      }
      src = std::make_unique<source::MultiLinkSource>(std::move(links));
    }
  }
  if (!config.trace_record.empty()) {
    if (!src) {
      throw std::invalid_argument(
          "pipeline: trace_record needs a channel to record");
    }
    src = source::RecordingSource::to_file(std::move(src), config.trace_record);
  }
  return src;
}

PipelineResult run_pipeline(const PipelineConfig& config,
                            const fec::ReedSolomon& rs) {
  if (rs.n() != config.rs_n || rs.k() != config.rs_k) {
    throw std::invalid_argument("pipeline: codec does not match config");
  }
  if (config.frames == 0) {
    throw std::invalid_argument("pipeline: frames must be > 0");
  }

  const FrameGeometry geo(config);
  const auto src = make_source(config);
  const std::uint64_t capacity = geo.il.capacity_symbols();

  PipelineResult result;
  result.frames = config.frames;
  result.frame_symbols = capacity;

  // Source pass in wire order. The source yields the exact (position,
  // flip) events of the real transmission without the frame ever
  // existing; each maps back to its input position through the
  // interleaver's O(1) inverse. The wire position advances contiguously
  // frame to frame, so the channel state stays continuous in symbol time.
  const auto load_hits = [&](unsigned f, std::vector<Hit>& hits) {
    if (src == nullptr) return;
    result.channel_symbols += capacity;
    const std::uint64_t frame_base = static_cast<std::uint64_t>(f) * capacity;
    auto to_hit = [&hits, &geo, frame_base](const source::Corruption& e) {
      hits.push_back(make_hit(geo.il.wire_to_input(e.wire_pos - frame_base), e.flip));
    };
    result.channel_symbol_errors += src->events(frame_base, capacity, to_hit);
  };
  result.workspace_peak_bytes = run_frames(config, rs, geo.layout, load_hits, result);

  run_dram_phase(config, geo.side, result);
  return result;
}

PipelineResult run_pipeline(const PipelineConfig& config) {
  if (config.rs_n > 255 || config.rs_k == 0 || config.rs_k >= config.rs_n ||
      (config.rs_n - config.rs_k) % 2 != 0) {
    throw std::invalid_argument("pipeline: invalid RS(n, k)");
  }
  const fec::ReedSolomon rs(config.rs_n, config.rs_k);
  return run_pipeline(config, rs);
}

std::pair<std::uint64_t, std::uint64_t> stream_slice_range(std::uint64_t capacity,
                                                           unsigned slice,
                                                           unsigned num_slices) {
  if (num_slices == 0 || slice >= num_slices) {
    throw std::invalid_argument("stream_slice_range: slice out of range");
  }
  return {capacity * slice / num_slices, capacity * (slice + 1) / num_slices};
}

PipelineSliceResult run_pipeline_slice(const PipelineConfig& config, unsigned slice,
                                       unsigned num_slices) {
  if (num_slices == 0 || slice >= num_slices) {
    throw std::invalid_argument("run_pipeline_slice: slice out of range");
  }
  if (config.frames == 0) {
    throw std::invalid_argument("pipeline: frames must be > 0");
  }
  if (!config.trace_record.empty() && num_slices > 1) {
    throw std::invalid_argument(
        "run_pipeline_slice: trace_record would capture a partial trace — "
        "record with an unsliced run");
  }
  const FrameGeometry geo(config);
  const auto src = make_source(config);
  const std::uint64_t capacity = geo.il.capacity_symbols();
  const auto [lo, hi] = stream_slice_range(capacity, slice, num_slices);

  PipelineSliceResult out;
  out.slice = slice;
  out.num_slices = num_slices;
  out.frames = config.frames;
  out.hits.reserve(kMinHitReserve);

  const std::uint64_t host_start = perf::now_ns();
  for (unsigned f = 0; f < config.frames; ++f) {
    if (src == nullptr) continue;
    out.channel_symbols += hi - lo;
    const std::uint64_t frame_base = static_cast<std::uint64_t>(f) * capacity;
    auto to_hit = [&out, &geo, frame_base, f](const source::Corruption& e) {
      out.hits.push_back({f, geo.il.wire_to_input(e.wire_pos - frame_base), e.flip});
    };
    // The random-access events contract (counter-based skip-ahead) makes
    // the jump from one frame's [lo, hi) to the next exact: the stream
    // state at frame_base + lo is independent of who consumed the
    // positions before it.
    out.channel_symbol_errors += src->events(frame_base + lo, hi - lo, to_hit);
  }
  out.host_ns = perf::now_ns() - host_start;
  out.workspace_peak_bytes = out.hits.capacity() * sizeof(StreamHit);
  return out;
}

PipelineResult combine_pipeline_slices(const PipelineConfig& config,
                                       const fec::ReedSolomon& rs,
                                       std::vector<PipelineSliceResult> slices) {
  if (rs.n() != config.rs_n || rs.k() != config.rs_k) {
    throw std::invalid_argument("pipeline: codec does not match config");
  }
  if (slices.empty()) {
    throw std::invalid_argument("combine_pipeline_slices: no slices");
  }
  std::sort(slices.begin(), slices.end(),
            [](const PipelineSliceResult& a, const PipelineSliceResult& b) {
              return a.slice < b.slice;
            });
  for (std::size_t s = 0; s < slices.size(); ++s) {
    if (slices[s].slice != s || slices[s].num_slices != slices.size() ||
        slices[s].frames != config.frames) {
      throw std::invalid_argument(
          "combine_pipeline_slices: slice set does not cover this config "
          "(need one result per slice index)");
    }
  }

  const FrameGeometry geo(config);
  PipelineResult result;
  result.frames = config.frames;
  result.frame_symbols = geo.il.capacity_symbols();
  for (const auto& s : slices) {
    result.channel_symbols += s.channel_symbols;
    result.channel_symbol_errors += s.channel_symbol_errors;
    result.host_ns += s.host_ns;
    result.workspace_peak_bytes =
        std::max(result.workspace_peak_bytes, s.workspace_peak_bytes);
  }

  // Concatenating the slices' per-frame events in slice order; the frame
  // loop's sort then restores exactly the list the unsliced source pass
  // builds.
  std::vector<std::size_t> cursor(slices.size(), 0);
  const auto load_hits = [&](unsigned f, std::vector<Hit>& hits) {
    for (std::size_t s = 0; s < slices.size(); ++s) {
      const auto& sh = slices[s].hits;
      std::size_t& c = cursor[s];
      for (; c < sh.size() && sh[c].frame == f; ++c) {
        hits.push_back(make_hit(sh[c].input_index, sh[c].flip));
      }
    }
  };
  result.workspace_peak_bytes = std::max(
      result.workspace_peak_bytes, run_frames(config, rs, geo.layout, load_hits, result));

  run_dram_phase(config, geo.side, result);
  return result;
}

std::vector<FerRecord> run_fer_sweep(const SweepGrid& grid, const FerSweepOptions& options) {
  const auto cells = grid.expand();

  // Hoist codec construction out of the per-cell work: cells share one
  // immutable ReedSolomon per distinct rs_k (generator polynomial +
  // multiplier tables), safe for concurrent use by the sweep workers.
  std::map<unsigned, fec::ReedSolomon> codecs;
  for (const auto& cell : cells) {
    if (options.base.rs_n > 255 || cell.rs_k == 0 || cell.rs_k >= options.base.rs_n ||
        (options.base.rs_n - cell.rs_k) % 2 != 0) {
      throw std::invalid_argument("run_fer_sweep: invalid RS(n, k)");
    }
    codecs.try_emplace(cell.rs_k, options.base.rs_n, cell.rs_k);
  }

  return sweep_map(cells.size(), options.sweep,
                   [&](std::uint64_t index, std::uint64_t seed) {
    const Scenario& scenario = cells[index];
    FerRecord record;
    record.scenario = scenario;
    record.config = fer_cell_config(options.base, scenario, seed);
    record.result = run_pipeline(record.config, codecs.at(scenario.rs_k));
    return record;
  });
}

}  // namespace tbi::sim

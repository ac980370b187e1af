#include <stdexcept>

#include "bench.hpp"
#include "dram/standards.hpp"
#include "sim/sweep.hpp"

namespace perfbench {

namespace {

using tbi::sim::PipelineConfig;
using tbi::sim::RunConfig;
using tbi::sim::SweepGrid;

// FER cells stream the paper's headline two-stage scheme: a 255-burst
// stage-2 triangle of 64-symbol bursts (2,088,960 symbols per frame) with
// its DRAM stage on LPDDR5-8533, 20,000 bursts per phase as sweeps run it.
constexpr std::uint64_t kFerSide = 255;
constexpr std::uint64_t kFerSymbolsPerBurst = 64;
constexpr std::uint64_t kFerDramBursts = 20000;
constexpr const char* kFerDevice = "LPDDR5-8533";

// dram-table1 cells truncate each phase to a seed-drawn length in
// [kTable1MinBursts, kTable1MinBursts + kTable1BurstSpan), so cells vary
// by seed while the mix of devices and mappings stays fixed.
constexpr std::uint64_t kTable1MinBursts = 16384;
constexpr std::uint64_t kTable1BurstSpan = 8192;

PipelineConfig fer_base(unsigned frames) {
  PipelineConfig base;
  base.rs_n = 255;
  base.frames = frames;
  base.side = kFerSide;
  base.symbols_per_burst = kFerSymbolsPerBurst;
  base.mean_burst_symbols = 300;
  base.error_rate_bad = 0.95;
  base.run_dram = true;
  base.dram_max_bursts_per_phase = kFerDramBursts;
  return base;
}

SweepGrid fer_grid(std::vector<std::string> channels, std::vector<unsigned> rs_ks) {
  SweepGrid grid;
  grid.devices = {kFerDevice};
  grid.mapping_specs = {"optimized"};
  grid.interleavers = {"two-stage"};
  grid.channels = std::move(channels);
  grid.rs_ks = std::move(rs_ks);
  grid.symbols_per_bursts = {kFerSymbolsPerBurst};
  return grid;
}

Setup fer_setup(const PipelineConfig& base, const SweepGrid& grid, unsigned pass_cells,
                std::uint64_t seed) {
  Setup setup;
  const auto scenarios = grid.expand();
  for (const auto& s : scenarios) setup.codecs.try_emplace(s.rs_k, base.rs_n, s.rs_k);
  setup.configs = static_cast<unsigned>(scenarios.size());
  setup.cells.resize(pass_cells);
  for (unsigned i = 0; i < pass_cells; ++i) {
    Cell& c = setup.cells[i];
    const auto& scenario = scenarios[i % setup.configs];
    c.index = i;
    c.label = scenario.label();
    c.kind = CellKind::Fer;
    c.fer = tbi::sim::fer_cell_config(base, scenario, tbi::sim::job_seed(seed, i));
    c.rs = &setup.codecs.at(scenario.rs_k);
  }
  return setup;
}

Setup table1_setup(unsigned pass_cells, std::uint64_t seed) {
  Setup setup;
  const auto scenarios = SweepGrid::paper_bandwidth_grid().expand();
  // Each (device, mapping) appears as a write-then-read run_interleaver
  // cell and as a mixed double-buffered run_streaming cell.
  setup.configs = static_cast<unsigned>(2 * scenarios.size());
  setup.cells.resize(pass_cells);
  for (unsigned i = 0; i < pass_cells; ++i) {
    Cell& c = setup.cells[i];
    const unsigned config = i % setup.configs;
    const auto& scenario = scenarios[config / 2];
    c.index = i;
    c.kind = config % 2 == 0 ? CellKind::Interleaver : CellKind::Streaming;
    c.label = scenario.device + "/" + scenario.mapping_spec +
              (c.kind == CellKind::Interleaver ? "/write-read" : "/streaming");
    const auto* device = tbi::dram::find_config(scenario.device);
    if (device == nullptr) {
      throw std::invalid_argument("unknown device '" + scenario.device + "'");
    }
    c.dram.device = *device;
    c.dram.mapping_spec = scenario.mapping_spec;
    c.dram.side = tbi::sim::paper_side_for(*device);
    c.dram.max_bursts_per_phase = kTable1MinBursts + tbi::sim::job_seed(seed, i) % kTable1BurstSpan;
  }
  return setup;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fer-fade", "fer-sparse", "dram-table1"};
  return names;
}

Setup build_setup(const std::string& workload, std::uint64_t seed) {
  if (workload == "fer-fade") {
    // Why: the paper's headline two-stage scheme on its motivating bursty
    // channels; RS encode+decode is the largest share of the frame loop.
    // Four frames per cell keep a cell near 0.13 s, so a run holds well
    // over 100 cells for the p90.
    PipelineConfig base = fer_base(4);
    base.fade_fraction = 0.004;
    return fer_setup(base, fer_grid({"gilbert-elliott", "leo"}, {239, 223, 191}), 36, seed);
  }
  if (workload == "fer-sparse") {
    // Why: the low-FER regime; a few hundred errors per frame leave decode
    // near zero, so the per-symbol channel walk dominates.
    // Ten frames per cell, so the per-frame source walk outweighs the
    // per-cell DRAM stage as it does in a sweep.
    PipelineConfig base = fer_base(10);
    base.error_probability = 1e-5;  // bsc
    base.fade_fraction = 1e-4;      // gilbert-elliott
    return fer_setup(base, fer_grid({"bsc", "gilbert-elliott"}, {223}), 40, seed);
  }
  if (workload == "dram-table1") {
    // Why: the paper's Table I (10 devices x {row-major, optimized}) on
    // the DRAM controller and mappings, split phases beside mixed traffic.
    return table1_setup(200, seed);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

RunConfig dram_run_config(const Cell& cell) {
  if (cell.kind != CellKind::Fer) return cell.dram;
  // As run_pipeline's DRAM stage builds it for a two-stage cell: the
  // stage-2 side is already the burst triangle.
  RunConfig rc;
  rc.device = cell.fer.device;
  rc.mapping_spec = cell.fer.mapping_spec;
  rc.side = cell.fer.side;
  rc.max_bursts_per_phase = cell.fer.dram_max_bursts_per_phase;
  rc.check_protocol = cell.fer.check_protocol;
  return rc;
}

std::uint64_t paper_symbols(std::uint64_t bursts, unsigned burst_bytes) {
  return bursts * burst_bytes * 8 / tbi::sim::kPaperSymbolBits;
}

CellResult run_cell(const Cell& cell) {
  CellResult out;
  Counters& c = out.counters;
  switch (cell.kind) {
    case CellKind::Fer: {
      const auto r = tbi::sim::run_pipeline(cell.fer, *cell.rs);
      c.code_words = r.code_words;
      c.word_errors = r.word_errors;
      c.frame_errors = r.frame_errors;
      c.channel_symbol_errors = r.channel_symbol_errors;
      c.corrected_symbols = r.corrected_symbols;
      c.channel_symbols = r.channel_symbols;
      if (r.dram_ran) {
        c.bursts = r.dram.total_bursts();
        c.activates = r.dram.total_activates();
        c.write_util = r.dram.write.stats.utilization();
        c.read_util = r.dram.read.stats.utilization();
      }
      out.symbols = r.channel_symbols;
      out.allocations_per_frame = r.allocations_per_frame();
      break;
    }
    case CellKind::Interleaver: {
      const auto r = tbi::sim::run_interleaver(cell.dram);
      c.bursts = r.total_bursts();
      c.activates = r.total_activates();
      c.write_util = r.write.stats.utilization();
      c.read_util = r.read.stats.utilization();
      out.symbols = paper_symbols(c.bursts, cell.dram.device.burst_bytes);
      break;
    }
    case CellKind::Streaming: {
      const auto r = tbi::sim::run_streaming(cell.dram);
      c.bursts = r.stats.bursts;
      c.activates = r.stats.activates;
      c.mixed_util = r.stats.utilization();
      out.symbols = paper_symbols(c.bursts, cell.dram.device.burst_bytes);
      break;
    }
  }
  return out;
}

std::string check_invariants(const Cell& cell, const CellResult& r) {
  const Counters& c = r.counters;
  const auto util_ok = [](double u) { return u > 0 && u <= 1; };
  if (cell.kind == CellKind::Fer) {
    const std::uint64_t frame_symbols =
        cell.fer.side * (cell.fer.side + 1) / 2 * cell.fer.symbols_per_burst;
    const std::uint64_t words = cell.fer.frames * (frame_symbols / cell.fer.rs_n);
    if (c.code_words != words) return "code_words != frames * words per frame";
    if (c.channel_symbols != cell.fer.frames * frame_symbols) return "channel_symbols";
    if (c.word_errors > c.code_words || c.frame_errors > cell.fer.frames ||
        (c.frame_errors == 0) != (c.word_errors == 0)) {
      return "word/frame error counts inconsistent";
    }
    if (c.corrected_symbols > (c.code_words - c.word_errors) * cell.rs->t()) {
      return "more corrections than t per good word";
    }
    if (c.bursts != 2 * kFerDramBursts || !util_ok(c.write_util) || !util_ok(c.read_util)) {
      return "DRAM stage";
    }
    return {};
  }
  if (c.bursts != 2 * cell.dram.max_bursts_per_phase) return "bursts != 2 * max_bursts";
  if (c.activates == 0) return "no activates";
  if (cell.kind == CellKind::Interleaver ? !(util_ok(c.write_util) && util_ok(c.read_util))
                                         : !util_ok(c.mixed_util)) {
    return "utilization outside (0, 1]";
  }
  return {};
}

}  // namespace perfbench

/// \file bench.hpp
/// The repo benchmark's cells, their exact outputs, and the traced
/// replica that splits a cell's host time by layer.
///
/// A cell is one closed-loop operation: one sim::run_pipeline call (FER
/// workloads) or one sim::run_interleaver / sim::run_streaming call
/// (dram-table1). A workload is a fixed list of cells (one "pass") built
/// from the workload seed; cell i runs with seed sim::job_seed(seed, i).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fec/reed_solomon.hpp"
#include "sim/pipeline.hpp"
#include "sim/runner.hpp"

namespace perfbench {

enum class CellKind { Fer, Interleaver, Streaming };

struct Cell {
  std::uint64_t index = 0;  ///< position in the pass
  std::string label;
  CellKind kind = CellKind::Fer;
  tbi::sim::PipelineConfig fer;  ///< kind == Fer
  const tbi::fec::ReedSolomon* rs = nullptr;
  tbi::sim::RunConfig dram;  ///< kind == Interleaver / Streaming
};

struct Setup {
  /// One codec per code rate, hoisted out of the cells as
  /// sim::run_fer_sweep does. Cells point into this map.
  std::map<unsigned, tbi::fec::ReedSolomon> codecs;
  std::vector<Cell> cells;  ///< one pass
  unsigned configs = 0;     ///< distinct configurations; cell i has config i % configs
};

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build one pass of \p workload for workload seed \p seed. Throws
/// std::invalid_argument for an unknown workload.
Setup build_setup(const std::string& workload, std::uint64_t seed);

/// Exact per-cell outputs. The golden file, the pass-to-pass determinism
/// check and the traced-replica check all compare these field by field.
struct Counters {
  std::uint64_t code_words = 0;
  std::uint64_t word_errors = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t channel_symbol_errors = 0;
  std::uint64_t corrected_symbols = 0;
  std::uint64_t channel_symbols = 0;
  std::uint64_t bursts = 0;
  std::uint64_t activates = 0;
  double write_util = 0;
  double read_util = 0;
  double mixed_util = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
};

struct CellResult {
  Counters counters;
  /// Symbols the cell moved: channel symbols for FER cells; for DRAM-only
  /// cells, the paper's 3-bit symbols the simulated bursts carry.
  std::uint64_t symbols = 0;
  /// FER cells: steady-state operator-new calls per frame. Reported, not
  /// a cell failure: see "Known defect" in perfbench/README.md.
  double allocations_per_frame = 0;
};

/// The paper's 3-bit symbols that \p bursts bursts of \p burst_bytes carry.
std::uint64_t paper_symbols(std::uint64_t bursts, unsigned burst_bytes);

/// Run \p cell through the library's public entry point, untraced.
CellResult run_cell(const Cell& cell);

/// Empty when \p r is a plausible output of \p cell, else why not.
std::string check_invariants(const Cell& cell, const CellResult& r);

/// The DRAM RunConfig of a cell: its own for DRAM-only cells, the one
/// run_pipeline's DRAM stage builds for FER cells.
tbi::sim::RunConfig dram_run_config(const Cell& cell);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One span. Spans of one cell share `cell`; `parent` 0 is a root.
/// Layer = name up to the first '.', except the structural "cell" and
/// "frame" spans, which belong to no layer.
struct Span {
  const char* name = "";
  std::uint64_t cell = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t calls = 0;
};

/// In-memory span store; written out once, at exit.
class Tracer {
 public:
  Tracer();

  std::uint32_t open(const char* name, std::uint64_t cell, std::uint32_t parent);
  /// Close \p id now; returns its duration in ns.
  std::uint64_t close(std::uint32_t id, std::uint64_t calls = 0);
  /// A span whose time was summed from per-call clock reads, laid out
  /// from \p start_ns inside its parent.
  void add(const char* name, std::uint64_t cell, std::uint32_t parent,
           std::uint64_t start_ns, std::uint64_t dur_ns, std::uint64_t calls);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: a plain array of complete ("X") events.
  void write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t epoch_ns_;
};

/// Counts recorded at the layer boundaries of the traced run.
struct LayerCounts {
  std::uint64_t source_symbols = 0;
  std::uint64_t source_events = 0;
  std::uint64_t inverse_calls = 0;
  std::uint64_t encode_calls = 0;
  std::uint64_t decode_calls = 0;
  std::uint64_t words = 0;
  std::uint64_t word_failures = 0;
  std::uint64_t corrected_symbols = 0;
  std::uint64_t dram_bursts = 0;
  std::uint64_t dram_picks = 0;
  std::uint64_t dram_activates = 0;
  std::uint64_t dram_refreshes = 0;
  std::uint64_t dram_phase_ns = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_accesses = 0;
  /// Simulated ps: data-bus busy and phase elapsed, per phase kind.
  double write_busy_ps = 0, write_elapsed_ps = 0;
  double read_busy_ps = 0, read_elapsed_ps = 0;
  double mixed_busy_ps = 0, mixed_elapsed_ps = 0;
  std::uint64_t mapped_addresses = 0;
  std::uint64_t map_ns = 0;
  std::uint64_t map_checksum = 0;
};

struct TracedResult {
  CellResult result;
  std::uint64_t cell_ns = 0;  ///< duration of the cell span
};

/// Run \p cell as a replica that calls the public layers in the order
/// the library does, with a span around each call. Its counters must
/// equal run_cell's.
TracedResult run_cell_traced(const Cell& cell, Tracer& tracer, LayerCounts& counts);

/// Time make_mapping(...)->map(i, j) over the cell's write-phase burst
/// set (a root span outside the cell span).
void probe_mapping(const Cell& cell, Tracer& tracer, LayerCounts& counts);

}  // namespace perfbench

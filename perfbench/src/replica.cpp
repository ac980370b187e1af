#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "interleaver/twostage.hpp"
#include "mapping/factory.hpp"
#include "perf/counters.hpp"
#include "sim/sweep.hpp"
#include "source/source.hpp"

namespace perfbench {

using tbi::perf::now_ns;

Tracer::Tracer() : epoch_ns_(now_ns()) {
  // Reserved up front so recording a span never reallocates mid-cell.
  spans_.reserve(1 << 16);
}

std::uint32_t Tracer::open(const char* name, std::uint64_t cell, std::uint32_t parent) {
  Span s;
  s.name = name;
  s.cell = cell;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(s);
  return s.id;
}

std::uint64_t Tracer::close(std::uint32_t id, std::uint64_t calls) {
  Span& s = spans_[id - 1];
  s.end_ns = now_ns();
  s.calls = calls;
  return s.end_ns - s.start_ns;
}

void Tracer::add(const char* name, std::uint64_t cell, std::uint32_t parent,
                 std::uint64_t start_ns, std::uint64_t dur_ns, std::uint64_t calls) {
  Span s;
  s.name = name;
  s.cell = cell;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.start_ns = start_ns;
  s.end_ns = start_ns + dur_ns;
  s.calls = calls;
  spans_.push_back(s);
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const auto dot = name.find('.');
    const std::string cat = dot == std::string::npos ? name : name.substr(0, dot);
    // ts/dur are microseconds; three decimals keep the ns clock reads.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":1,\"args\":{\"cell\":%llu,\"span\":%u,\"parent\":%u,"
                 "\"calls\":%llu}}%s\n",
                 s.name, cat.c_str(), static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.cell), s.id, s.parent,
                 static_cast<unsigned long long>(s.calls),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace file " + path);
}

namespace {

struct Hit {
  std::uint64_t input_index;
  std::uint8_t flip;
};

void count_phase(const tbi::dram::PhaseStats& s, LayerCounts& lc) {
  lc.dram_bursts += s.bursts;
  lc.dram_picks += s.picks;
  lc.dram_activates += s.activates;
  lc.dram_refreshes += s.refreshes;
  lc.dram_phase_ns += s.host_ns;
  lc.row_hits += s.row_hits;
  lc.row_accesses += s.row_hits + s.row_misses + s.row_conflicts;
}

void count_interleaver_run(const tbi::sim::InterleaverRun& run, Counters& c, LayerCounts& lc) {
  c.bursts = run.total_bursts();
  c.activates = run.total_activates();
  c.write_util = run.write.stats.utilization();
  c.read_util = run.read.stats.utilization();
  count_phase(run.write.stats, lc);
  count_phase(run.read.stats, lc);
  lc.write_busy_ps += static_cast<double>(run.write.stats.busy);
  lc.write_elapsed_ps += static_cast<double>(run.write.stats.elapsed());
  lc.read_busy_ps += static_cast<double>(run.read.stats.busy);
  lc.read_elapsed_ps += static_cast<double>(run.read.stats.elapsed());
}

/// The streaming FER frame loop of sim::run_pipeline, rebuilt from the
/// public layers in the same order: make_source -> events -> two-stage
/// inverse -> sort -> per-word job_seed/Rng regeneration -> encode ->
/// decode, then the DRAM stage's run_interleaver with the same RunConfig.
TracedResult traced_fer(const Cell& cell, Tracer& tr, LayerCounts& lc) {
  const auto& cfg = cell.fer;
  const auto& rs = *cell.rs;
  if (cfg.interleaver != "two-stage" || cfg.links != 1) {
    throw std::invalid_argument("traced replica covers single-link two-stage cells only");
  }
  TracedResult out;
  Counters& c = out.result.counters;
  const std::uint64_t id = cell.index;
  const std::uint32_t cell_span = tr.open("cell", id, 0);

  std::uint32_t sp = tr.open("source.make", id, cell_span);
  const auto src = tbi::sim::make_source(cfg);
  tr.close(sp);

  sp = tr.open("interleaver.make", id, cell_span);
  const tbi::interleaver::TwoStageInterleaver il(cfg.side, cfg.symbols_per_burst);
  tr.close(sp);

  const unsigned n = rs.n();
  const unsigned k = rs.k();
  const std::uint64_t capacity = il.capacity_symbols();
  const std::uint64_t words_per_frame = capacity / n;
  const std::uint64_t data_root = tbi::sim::job_seed(cfg.seed, 0);
  tbi::Rng word_rng;
  tbi::fec::RsScratch scratch;
  scratch.reserve(n);
  std::vector<std::uint8_t> word(n);
  std::vector<std::uint8_t> data(k);
  std::vector<tbi::source::Corruption> events;
  std::vector<Hit> hits;
  events.reserve(1 << 16);
  hits.reserve(1 << 16);

  for (unsigned f = 0; f < cfg.frames; ++f) {
    const std::uint32_t frame_span = tr.open("frame", id, cell_span);
    const std::uint64_t frame_base = static_cast<std::uint64_t>(f) * capacity;

    // The library maps each event inside the source's sink; buffering the
    // events first lets the source walk and the inverse be timed apart.
    events.clear();
    sp = tr.open("source.events", id, frame_span);
    const std::uint64_t n_events = src->events(
        frame_base, capacity,
        [&events](const tbi::source::Corruption& e) { events.push_back(e); });
    tr.close(sp, n_events);
    c.channel_symbols += capacity;
    c.channel_symbol_errors += n_events;
    lc.source_symbols += capacity;
    lc.source_events += n_events;

    hits.clear();
    sp = tr.open("interleaver.inverse", id, frame_span);
    for (const auto& e : events) {
      hits.push_back({il.inverse(e.wire_pos - frame_base), e.flip});
    }
    tr.close(sp, events.size());
    lc.inverse_calls += events.size();

    sp = tr.open("sim.sort", id, frame_span);
    std::sort(hits.begin(), hits.end(),
              [](const Hit& a, const Hit& b) { return a.input_index < b.input_index; });
    tr.close(sp);

    // Word loop of decode_streaming_frame. Encode and decode are timed per
    // call and recorded as two aggregated child spans per frame.
    const std::uint32_t words_span = tr.open("sim.words", id, frame_span);
    const std::uint64_t words_start = tr.spans()[words_span - 1].start_ns;
    const std::uint64_t frame_seed = tbi::sim::job_seed(data_root, f);
    std::uint64_t encode_ns = 0, decode_ns = 0, touched = 0, failures = 0;
    c.code_words += words_per_frame;
    std::size_t h = 0;
    while (h < hits.size()) {
      const std::uint64_t w = hits[h].input_index / n;
      std::size_t h_end = h + 1;
      while (h_end < hits.size() && hits[h_end].input_index / n == w) ++h_end;
      if (w >= words_per_frame) break;  // hits in the zero-padding tail
      word_rng.reseed(tbi::sim::job_seed(frame_seed, w));
      for (unsigned d = 0; d < k; ++d) {
        word[d] = static_cast<std::uint8_t>(word_rng.next_u64());
      }
      std::copy(word.begin(), word.begin() + k, data.begin());
      std::uint64_t t0 = now_ns();
      rs.encode(std::span<const std::uint8_t>(word.data(), k),
                std::span<std::uint8_t>(word.data(), n));
      std::uint64_t t1 = now_ns();
      encode_ns += t1 - t0;
      for (std::size_t i = h; i < h_end; ++i) {
        word[hits[i].input_index - w * n] ^= hits[i].flip;
      }
      t0 = now_ns();
      const auto res = rs.decode(std::span<std::uint8_t>(word.data(), n), scratch);
      t1 = now_ns();
      decode_ns += t1 - t0;
      ++touched;
      if (res.ok && std::equal(data.begin(), data.end(), word.begin())) {
        c.corrected_symbols += res.corrected_symbols;
      } else {
        ++failures;
      }
      h = h_end;
    }
    tr.close(words_span);
    tr.add("fec.encode", id, words_span, words_start, encode_ns, touched);
    tr.add("fec.decode", id, words_span, words_start + encode_ns, decode_ns, touched);
    c.word_errors += failures;
    c.frame_errors += failures != 0;
    lc.encode_calls += touched;
    lc.decode_calls += touched;
    lc.words += words_per_frame;
    lc.word_failures += failures;
    tr.close(frame_span);
  }
  lc.corrected_symbols += c.corrected_symbols;

  if (cfg.run_dram) {
    sp = tr.open("dram.run_interleaver", id, cell_span);
    const auto run = tbi::sim::run_interleaver(dram_run_config(cell));
    tr.close(sp, run.total_bursts());
    count_interleaver_run(run, c, lc);
  }
  out.cell_ns = tr.close(cell_span);
  out.result.symbols = c.channel_symbols;
  return out;
}

TracedResult traced_dram(const Cell& cell, Tracer& tr, LayerCounts& lc) {
  TracedResult out;
  Counters& c = out.result.counters;
  const std::uint32_t cell_span = tr.open("cell", cell.index, 0);
  if (cell.kind == CellKind::Interleaver) {
    const std::uint32_t sp = tr.open("dram.run_interleaver", cell.index, cell_span);
    const auto run = tbi::sim::run_interleaver(cell.dram);
    tr.close(sp, run.total_bursts());
    count_interleaver_run(run, c, lc);
  } else {
    const std::uint32_t sp = tr.open("dram.run_streaming", cell.index, cell_span);
    const auto run = tbi::sim::run_streaming(cell.dram);
    tr.close(sp, run.stats.bursts);
    count_phase(run.stats, lc);
    lc.mixed_busy_ps += static_cast<double>(run.stats.busy);
    lc.mixed_elapsed_ps += static_cast<double>(run.stats.elapsed());
    c.bursts = run.stats.bursts;
    c.activates = run.stats.activates;
    c.mixed_util = run.stats.utilization();
  }
  out.cell_ns = tr.close(cell_span);
  out.result.symbols = paper_symbols(c.bursts, cell.dram.device.burst_bytes);
  return out;
}

}  // namespace

TracedResult run_cell_traced(const Cell& cell, Tracer& tracer, LayerCounts& counts) {
  return cell.kind == CellKind::Fer ? traced_fer(cell, tracer, counts)
                                    : traced_dram(cell, tracer, counts);
}

void probe_mapping(const Cell& cell, Tracer& tracer, LayerCounts& counts) {
  const auto rc = dram_run_config(cell);
  const auto mapping = tbi::mapping::make_mapping(rc.mapping_spec, rc.device, rc.side);
  const std::uint64_t side = mapping->space().side;
  const std::uint64_t limit = rc.max_bursts_per_phase;
  std::uint64_t mapped = 0;
  std::uint64_t checksum = 0;
  const std::uint32_t sp = tracer.open("mapping.map", cell.index, 0);
  // Write-phase order: row i holds side - i bursts.
  for (std::uint64_t i = 0; i < side && (limit == 0 || mapped < limit); ++i) {
    for (std::uint64_t j = 0; j < side - i && (limit == 0 || mapped < limit); ++j) {
      const auto a = mapping->map(i, j);
      checksum = checksum * 31 + a.bank + (std::uint64_t{a.row} << 20) + (std::uint64_t{a.column} << 40);
      ++mapped;
    }
  }
  counts.map_ns += tracer.close(sp, mapped);
  counts.mapped_addresses += mapped;
  counts.map_checksum ^= checksum;
}

}  // namespace perfbench

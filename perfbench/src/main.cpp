/// perfbench — the repo benchmark's measuring process.
///
///   perfbench --workload NAME --seed N --mode timed|traced|golden
///             [--seconds S] [--trace-out FILE]
///
/// One process runs one workload on one thread as a closed loop: each
/// cell runs to completion before the next starts. It prints one JSON
/// report on stdout; perfbench/run.py turns it into the benchmark's
/// metrics and checks it against the golden file.
///
///   timed   set up, then run passes of the cell list until --seconds
///           elapse, timing the set-up again after each cell; afterwards (untimed) re-run one cell per
///           configuration of each golden seed and, on dram-table1, every
///           configuration once under the JEDEC protocol checker.
///   traced  one pass; every cell runs untraced and then as the traced
///           replica, whose counters must match. Spans go to --trace-out.
///   golden  one untimed pass, for regenerating the golden file.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "perf/counters.hpp"

namespace {

using namespace perfbench;
using tbi::perf::now_ns;

/// Seeds of the golden file: the default and one held-out seed.
constexpr std::uint64_t kGoldenSeeds[] = {1, 7};
/// dram-table1 phase length of the JEDEC check pass and sim.min_util.
constexpr std::uint64_t kCheckBursts = 20000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "timed";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    usage("not an unsigned integer: '" + s + "'");
  }
  errno = 0;
  const auto v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno != 0) usage("out of range: '" + s + "'");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = parse_u64(value);
    } else if (key == "--seconds") {
      char* end = nullptr;
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0 && a.seconds <= 600)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--mode") {
      a.mode = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (std::find(workload_names().begin(), workload_names().end(), a.workload) ==
      workload_names().end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.mode != "timed" && a.mode != "traced" && a.mode != "golden") {
    usage("unknown mode '" + a.mode + "'");
  }
  if (a.mode == "traced" && a.trace_out.empty()) usage("traced mode needs --trace-out");
  return a;
}

// --- JSON output ------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string counters_json(const Counters& c) {
  return "{\"code_words\":" + num(c.code_words) + ",\"word_errors\":" + num(c.word_errors) +
         ",\"frame_errors\":" + num(c.frame_errors) +
         ",\"channel_symbol_errors\":" + num(c.channel_symbol_errors) +
         ",\"corrected_symbols\":" + num(c.corrected_symbols) +
         ",\"channel_symbols\":" + num(c.channel_symbols) + ",\"bursts\":" + num(c.bursts) +
         ",\"activates\":" + num(c.activates) + ",\"write_util\":" + num(c.write_util) +
         ",\"read_util\":" + num(c.read_util) + ",\"mixed_util\":" + num(c.mixed_util) + "}";
}

/// One executed cell. `error` is empty when the cell ran and passed its
/// invariants.
struct Record {
  std::uint64_t index = 0;
  std::uint64_t pass = 0;
  std::uint64_t ns = 0;
  std::string error;
  CellResult result;
};

std::string record_json(const Record& r, const std::string& extra = {}) {
  return "{\"index\":" + num(r.index) + ",\"pass\":" + num(r.pass) + ",\"ns\":" + num(r.ns) +
         ",\"symbols\":" + num(r.result.symbols) +
         ",\"allocations_per_frame\":" + num(r.result.allocations_per_frame) +
         ",\"error\":" + quoted(r.error) +
         ",\"counters\":" + counters_json(r.result.counters) + extra + "}";
}

std::string join(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ",\n";
    out += items[i];
  }
  return out + "]";
}

Record run_checked(const Cell& cell) {
  Record r;
  r.index = cell.index;
  const std::uint64_t t0 = now_ns();
  try {
    r.result = run_cell(cell);
    r.error = check_invariants(cell, r.result);
  } catch (const std::exception& e) {
    r.error = std::string("threw: ") + e.what();
  }
  r.ns = now_ns() - t0;
  return r;
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// --- modes --------------------------------------------------------------------

void run_timed(const Args& args) {
  // The set-up is repeated after every timed cell, so its median samples
  // the same machine conditions as the cells do. Each sample is the second
  // of two back-to-back builds: the first absorbs the cache misses the
  // previous cell leaves behind, which otherwise dominate a ~0.1 ms set-up.
  std::vector<std::string> setup_ns;
  const auto timed_setup = [&] {
    build_setup(args.workload, args.seed);
    const std::uint64_t t0 = now_ns();
    Setup s = build_setup(args.workload, args.seed);
    setup_ns.push_back(num(now_ns() - t0));
    return s;
  };
  const Setup setup = timed_setup();
  const auto& cells = setup.cells;

  run_checked(cells.front());  // warm-up: lazy dispatch, first-touch pages

  std::vector<std::string> timed;
  const std::uint64_t budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  const std::uint64_t start = now_ns();
  for (std::uint64_t i = 0; now_ns() - start < budget; ++i) {
    Record r = run_checked(cells[i % cells.size()]);
    r.pass = i / cells.size();
    timed.push_back(record_json(r));
    timed_setup();
  }
  const double rss_kb = peak_rss_kb();

  // Golden check: one cell per configuration of each golden seed.
  std::vector<std::string> golden;
  for (const std::uint64_t gs : kGoldenSeeds) {
    const Setup g = build_setup(args.workload, gs);
    for (unsigned i = 0; i < g.configs; ++i) {
      golden.push_back(record_json(run_checked(g.cells[i]),
                                   ",\"seed\":" + quoted(std::to_string(gs))));
    }
  }

  // JEDEC pass (dram-table1): every configuration once under the protocol
  // checker at a fixed phase length. Its optimized write-read cells give
  // dram-table1's sim.min_util.
  std::vector<std::string> jedec;
  for (unsigned i = 0; i < setup.configs && cells[i].kind != CellKind::Fer; ++i) {
    Cell cell = cells[i];
    cell.dram.max_bursts_per_phase = kCheckBursts;
    cell.dram.check_protocol = true;
    jedec.push_back(record_json(run_checked(cell), ",\"label\":" + quoted(cell.label)));
  }

  std::printf("{\"workload\":%s,\"seed\":%s,\"mode\":\"timed\",\"pass_cells\":%zu,"
              "\"configs\":%u,\"peak_rss_kb\":%s,\n\"setup_ns\":%s,\n"
              "\"cells\":%s,\n\"golden\":%s,\n\"jedec\":%s}\n",
              quoted(args.workload).c_str(), quoted(std::to_string(args.seed)).c_str(),
              cells.size(), setup.configs, num(rss_kb).c_str(),
              join(setup_ns).c_str(), join(timed).c_str(), join(golden).c_str(),
              join(jedec).c_str());
}

void run_traced(const Args& args) {
  const Setup setup = build_setup(args.workload, args.seed);
  Tracer tracer;
  LayerCounts lc;
  {
    // Warm-up of both paths; its spans are dropped with this tracer.
    Tracer warm;
    LayerCounts ignored;
    run_checked(setup.cells.front());
    run_cell_traced(setup.cells.front(), warm, ignored);
  }
  std::vector<std::string> records;
  for (const Cell& cell : setup.cells) {
    Record r = run_checked(cell);
    std::uint64_t traced_ns = 0;
    try {
      const TracedResult t = run_cell_traced(cell, tracer, lc);
      if (r.error.empty() && !(t.result.counters == r.result.counters)) {
        r.error = "traced replica counters differ from run_pipeline";
      }
      traced_ns = t.cell_ns;
      probe_mapping(cell, tracer, lc);
    } catch (const std::exception& e) {
      r.error = std::string("traced replica threw: ") + e.what();
    }
    records.push_back(record_json(r, ",\"traced_ns\":" + num(traced_ns)));
  }
  tracer.write_chrome(args.trace_out);

  std::printf(
      "{\"workload\":%s,\"seed\":%s,\"mode\":\"traced\",\"pass_cells\":%zu,\"configs\":%u,"
      "\"trace_file\":%s,\n\"layers\":{\"source_symbols\":%s,\"source_events\":%s,"
      "\"inverse_calls\":%s,\"encode_calls\":%s,\"decode_calls\":%s,\"words\":%s,"
      "\"word_failures\":%s,\"corrected_symbols\":%s,\"dram_bursts\":%s,\"dram_picks\":%s,"
      "\"dram_activates\":%s,\"dram_refreshes\":%s,\"dram_phase_ns\":%s,\"row_hits\":%s,"
      "\"row_accesses\":%s,\"write_busy_ps\":%s,\"write_elapsed_ps\":%s,"
      "\"read_busy_ps\":%s,\"read_elapsed_ps\":%s,\"mixed_busy_ps\":%s,"
      "\"mixed_elapsed_ps\":%s,\"mapped_addresses\":%s,\"map_ns\":%s,"
      "\"map_checksum\":%s},\n\"cells\":%s}\n",
      quoted(args.workload).c_str(), quoted(std::to_string(args.seed)).c_str(),
      setup.cells.size(), setup.configs, quoted(args.trace_out).c_str(),
      num(lc.source_symbols).c_str(), num(lc.source_events).c_str(), num(lc.inverse_calls).c_str(),
      num(lc.encode_calls).c_str(), num(lc.decode_calls).c_str(), num(lc.words).c_str(),
      num(lc.word_failures).c_str(), num(lc.corrected_symbols).c_str(),
      num(lc.dram_bursts).c_str(), num(lc.dram_picks).c_str(), num(lc.dram_activates).c_str(),
      num(lc.dram_refreshes).c_str(), num(lc.dram_phase_ns).c_str(), num(lc.row_hits).c_str(),
      num(lc.row_accesses).c_str(), num(lc.write_busy_ps).c_str(),
      num(lc.write_elapsed_ps).c_str(), num(lc.read_busy_ps).c_str(),
      num(lc.read_elapsed_ps).c_str(), num(lc.mixed_busy_ps).c_str(),
      num(lc.mixed_elapsed_ps).c_str(), num(lc.mapped_addresses).c_str(), num(lc.map_ns).c_str(),
      quoted(std::to_string(lc.map_checksum)).c_str(), join(records).c_str());
}

void run_golden(const Args& args) {
  const Setup setup = build_setup(args.workload, args.seed);
  std::vector<std::string> records;
  for (const Cell& cell : setup.cells) {
    records.push_back(record_json(run_checked(cell), ",\"label\":" + quoted(cell.label)));
  }
  std::printf("{\"workload\":%s,\"seed\":%s,\"mode\":\"golden\",\"pass_cells\":%zu,"
              "\"configs\":%u,\n\"cells\":%s}\n",
              quoted(args.workload).c_str(), quoted(std::to_string(args.seed)).c_str(),
              setup.cells.size(), setup.configs, join(records).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.mode == "timed") {
      run_timed(args);
    } else if (args.mode == "traced") {
      run_traced(args);
    } else {
      run_golden(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

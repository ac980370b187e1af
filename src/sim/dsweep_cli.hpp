/// \file dsweep_cli.hpp
/// The dsweep fleet flags shared by the sweep front ends (bench_fer,
/// experiment_runner): worker re-invocation dispatch plus `--workers`,
/// `--resume`, `--listen`, `--connect`, `--worker-timeout-ms` and
/// `--shard`, declared and read in one place.
#pragma once

#include <optional>
#include <string>

#include "common/cli.hpp"
#include "sim/dsweep.hpp"

namespace tbi::sim {

/// How one front end words its fleet flags.
struct FleetCliNames {
  /// Option naming the result file; the manifest is `<file>.manifest`.
  std::string sink;
  std::string items;       ///< what --resume skips ("cells", "runs")
  std::string sink_place;  ///< where the manifest lives ("the JSON sink")
  std::string shard_out;   ///< what a shard writes ("output", "result")
};

/// When argv is a worker re-invocation (`--worker-fd`) or a remote
/// worker (`--connect`), serve the protocol and return the process exit
/// code; otherwise nullopt. Call this FIRST in main(), before any CLI
/// parsing.
std::optional<int> run_fleet_worker(int argc, const char* const* argv);

/// Declare the fleet flags on \p cli.
void add_fleet_options(CliParser& cli, const FleetCliNames& names);

/// Read the parsed fleet flags into \p dist: workers, resume,
/// manifest_path, listen, heartbeat_timeout_ms and the shard. Throws
/// std::invalid_argument naming the first invalid flag or combination.
void read_fleet_options(const CliParser& cli, const FleetCliNames& names,
                        DsweepOptions& dist);

}  // namespace tbi::sim

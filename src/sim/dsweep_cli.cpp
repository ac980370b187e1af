#include "sim/dsweep_cli.hpp"

#include <stdexcept>

#include "sim/manifest.hpp"

namespace tbi::sim {

std::optional<int> run_fleet_worker(int argc, const char* const* argv) {
  const int worker_fd = dsweep_worker_fd(argc, argv);
  if (worker_fd >= 0) return dsweep_worker_main(worker_fd);
  const std::string connect_spec = dsweep_worker_connect_arg(argc, argv);
  if (!connect_spec.empty()) return dsweep_worker_connect(connect_spec);
  return std::nullopt;
}

void add_fleet_options(CliParser& cli, const FleetCliNames& names) {
  cli.add_option("workers", "N", "worker processes (default 1 = in-process)");
  cli.add_option("resume", "",
                 "skip " + names.items + " recorded in the --" + names.sink + " manifest");
  cli.add_option("listen", "h:p", "adopt remote TCP workers (fleet driver mode)");
  cli.add_option("connect", "h:p", "serve a --listen driver as a remote worker");
  cli.add_option("worker-timeout-ms", "ms",
                 "declare a silent worker dead/partitioned after this long (default 5000)");
  cli.add_option("shard", "i/n", "compute only shard i of n (needs --" + names.sink + ")");
}

void read_fleet_options(const CliParser& cli, const FleetCliNames& names,
                        DsweepOptions& dist) {
  const bool has_sink = cli.has(names.sink);
  if (cli.has("resume") && !has_sink) {
    throw std::invalid_argument("--resume needs --" + names.sink +
                                " (the manifest lives next to " + names.sink_place + ")");
  }
  dist.workers = static_cast<unsigned>(cli.get_int("workers", 1));
  dist.resume = cli.has("resume");
  if (has_sink) dist.manifest_path = cli.get(names.sink, "") + ".manifest";
  dist.listen = cli.get("listen", "");
  const std::int64_t worker_timeout = cli.get_int("worker-timeout-ms", 5000);
  if (worker_timeout <= 0) {
    throw std::invalid_argument("--worker-timeout-ms must be positive");
  }
  dist.heartbeat_timeout_ms = static_cast<unsigned>(worker_timeout);
  if (cli.has("shard")) {
    parse_shard_spec(cli.get("shard", ""), &dist.shard_index, &dist.shard_count);
    if (!has_sink) {
      throw std::invalid_argument("--shard needs --" + names.sink + " (the shard's " +
                                  names.shard_out + " is its manifest)");
    }
  }
}

}  // namespace tbi::sim

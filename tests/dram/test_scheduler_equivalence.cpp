/// \file test_scheduler_equivalence.cpp
/// The incremental FR-FCFS pick (per-bank candidate table, global
/// data-slot floors) must be observationally identical to the brute-force
/// replan-everything reference (Policy::FrFcfsOracle): same command
/// stream, command for command, and same PhaseStats — on every standard
/// device, across queue depths 1 to 128, under every refresh mode the
/// device sustains, on random request mixes and on the interleaver's own
/// write, read and streaming phases through row-major and optimized
/// mappings.
#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dram/standards.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "mapping/offset.hpp"
#include "sim/runner.hpp"

namespace tbi::dram {
namespace {

class CommandRecorder final : public CommandObserver {
 public:
  void on_command(const Command& cmd) override { commands.push_back(cmd); }
  std::vector<Command> commands;
};

bool same_command(const Command& a, const Command& b) {
  return a.kind == b.kind && a.issue == b.issue && a.bank == b.bank &&
         a.row == b.row && a.column == b.column && a.data_start == b.data_start &&
         a.data_end == b.data_end;
}

void expect_same_stats(const PhaseStats& a, const PhaseStats& b) {
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.activates, b.activates);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.busy, b.busy);
}

/// Random mix with enough structure to hit every scheduling regime:
/// clustered rows (row hits and conflicts), all banks, both directions.
std::vector<Request> random_requests(const DeviceConfig& dev, Rng& rng,
                                     unsigned count, unsigned row_pool,
                                     double write_fraction) {
  std::vector<Request> v;
  v.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    Request r;
    r.addr.bank = static_cast<std::uint32_t>(rng.uniform(dev.banks));
    r.addr.row = static_cast<std::uint32_t>(rng.uniform(row_pool));
    r.addr.column = static_cast<std::uint32_t>(rng.uniform(dev.columns_per_page));
    r.is_write = rng.uniform_double() < write_fraction;
    v.push_back(r);
  }
  return v;
}

/// Phases in run order; each is drained through one RequestStream.
using PhaseList = std::vector<std::vector<Request>>;

struct PolicyRun {
  std::vector<PhaseStats> stats;
  std::vector<Command> commands;
};

ControllerConfig controller_config(ControllerConfig::Policy policy,
                                   unsigned queue_depth,
                                   std::optional<RefreshMode> refresh) {
  ControllerConfig cfg;
  cfg.policy = policy;
  cfg.queue_depth = queue_depth;
  if (refresh) {
    cfg.use_device_default_refresh = false;
    cfg.refresh_mode = *refresh;
  }
  return cfg;
}

PolicyRun run_policy(const DeviceConfig& dev, ControllerConfig::Policy policy,
                     unsigned queue_depth, std::optional<RefreshMode> refresh,
                     const PhaseList& phases) {
  Controller ctl(dev, controller_config(policy, queue_depth, refresh));
  CommandRecorder recorder;
  ctl.set_observer(&recorder);
  PolicyRun run;
  for (const auto& reqs : phases) {
    VectorStream stream(reqs);
    run.stats.push_back(ctl.run_phase(stream, "phase"));
  }
  run.commands = std::move(recorder.commands);
  return run;
}

/// Runs \p phases under FrFcfs and FrFcfsOracle and asserts that both
/// produce the same statistics and the same command stream. Returns the
/// number of refreshes issued.
std::uint64_t expect_equivalent(const DeviceConfig& dev, unsigned queue_depth,
                       std::optional<RefreshMode> refresh, const PhaseList& phases,
                       const std::string& label) {
  SCOPED_TRACE(dev.name + " q" + std::to_string(queue_depth) + " refresh " +
               (refresh ? std::string(to_string(*refresh)) : "default") + " " + label);
  const PolicyRun fast =
      run_policy(dev, ControllerConfig::Policy::FrFcfs, queue_depth, refresh, phases);
  const PolicyRun oracle = run_policy(dev, ControllerConfig::Policy::FrFcfsOracle,
                                      queue_depth, refresh, phases);
  EXPECT_EQ(fast.stats.size(), oracle.stats.size());
  std::uint64_t refreshes = 0;
  for (std::size_t p = 0; p < std::min(fast.stats.size(), oracle.stats.size()); ++p) {
    expect_same_stats(fast.stats[p], oracle.stats[p]);
    refreshes += fast.stats[p].refreshes;
  }
  EXPECT_EQ(fast.commands.size(), oracle.commands.size());
  for (std::size_t c = 0; c < std::min(fast.commands.size(), oracle.commands.size()); ++c) {
    if (!same_command(fast.commands[c], oracle.commands[c])) {
      ADD_FAILURE() << "first differing command " << c << " ("
                    << to_string(fast.commands[c].kind) << " vs "
                    << to_string(oracle.commands[c].kind) << ")";
      break;
    }
  }
  return refreshes;
}

/// The refresh modes a test forces, beside the device default.
constexpr RefreshMode kForcedRefresh[] = {RefreshMode::AllBank, RefreshMode::PerBank,
                                          RefreshMode::SameBank};

/// True when the controller accepts \p mode on \p dev. Where it does not,
/// both policies must reject it.
bool refresh_supported(const DeviceConfig& dev, RefreshMode mode) {
  try {
    Controller ctl(dev, controller_config(ControllerConfig::Policy::FrFcfs, 16, mode));
  } catch (const std::invalid_argument&) {
    EXPECT_THROW(Controller(dev, controller_config(ControllerConfig::Policy::FrFcfsOracle,
                                                   16, mode)),
                 std::invalid_argument);
    return false;
  }
  return true;
}

/// Drains \p stream into a request vector, so both policies replay the
/// same requests.
std::vector<Request> collect(RequestStream& stream) {
  std::vector<Request> v;
  Request r;
  while (stream.next(r)) v.push_back(r);
  return v;
}

/// Every standard_configs() device, in its order.
constexpr const char* kDevices[] = {"DDR3-800",    "DDR3-1600",   "DDR4-1600",
                                    "DDR4-3200",   "DDR5-3200",   "DDR5-6400",
                                    "LPDDR4-2133", "LPDDR4-4266", "LPDDR5-4267",
                                    "LPDDR5-8533"};

class SchedulerEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulerEquivalence, IncrementalMatchesOracleOnRandomStreams) {
  const DeviceConfig& dev = *find_config(GetParam());
  Rng rng(0xE9u ^ std::hash<std::string>{}(dev.name));
  for (const unsigned queue_depth : {1u, 3u, 16u, 64u, 128u}) {
    for (const unsigned row_pool : {2u, 8u, 64u}) {
      for (const double write_fraction : {0.0, 0.5, 1.0}) {
        // Two chained phases so bank/bus/refresh state carries across.
        const PhaseList phases = {
            random_requests(dev, rng, 1500, row_pool, write_fraction),
            random_requests(dev, rng, 500, row_pool, 1.0 - write_fraction)};
        expect_equivalent(dev, queue_depth, std::nullopt, phases,
                          "rows " + std::to_string(row_pool) + " wf " +
                              std::to_string(write_fraction));
      }
    }
  }
}

TEST_P(SchedulerEquivalence, IncrementalMatchesOracleUnderEveryRefreshMode) {
  const DeviceConfig& dev = *find_config(GetParam());
  Rng rng(0x5EFu ^ std::hash<std::string>{}(dev.name));
  for (const RefreshMode mode : kForcedRefresh) {
    if (!refresh_supported(dev, mode)) continue;
    std::uint64_t refreshes = 0;
    for (const unsigned queue_depth : {1u, 16u, 128u}) {
      for (const unsigned row_pool : {2u, 64u}) {
        const PhaseList phases = {random_requests(dev, rng, 2500, row_pool, 0.5),
                                  random_requests(dev, rng, 1000, row_pool, 0.0)};
        refreshes += expect_equivalent(dev, queue_depth, mode, phases,
                                       "rows " + std::to_string(row_pool));
      }
    }
    EXPECT_GT(refreshes, 0u) << to_string(mode) << " never refreshed";
  }
}

TEST_P(SchedulerEquivalence, IncrementalMatchesOracleOnInterleaverStreams) {
  // The interleaver's own access shapes at paper side, truncated: the
  // row-wise write walk, the column-wise read walk and the mixed
  // double-buffered stream, through the row-major baseline and the
  // optimized mapping.
  const DeviceConfig& dev = *find_config(GetParam());
  constexpr std::uint64_t kBursts = 3000;
  const std::uint64_t side = sim::paper_side_for(dev);
  for (const char* spec : {"row-major", "optimized"}) {
    auto write_map = mapping::make_mapping(spec, dev, side);
    const mapping::RowOffsetMapping read_map(mapping::make_mapping(spec, dev, side),
                                             dev.rows_per_bank / 2, dev.rows_per_bank);
    interleaver::WritePhaseStream write(*write_map, kBursts);
    interleaver::ReadPhaseStream read(*write_map, kBursts);
    interleaver::StreamingPhaseStream mixed(*write_map, read_map, kBursts);
    const PhaseList split = {collect(write), collect(read)};
    const PhaseList streaming = {collect(mixed)};
    for (const unsigned queue_depth : {1u, 16u, 64u, 128u}) {
      expect_equivalent(dev, queue_depth, std::nullopt, split,
                        std::string(spec) + " write+read");
      expect_equivalent(dev, queue_depth, std::nullopt, streaming,
                        std::string(spec) + " streaming");
    }
  }
}

// The "AllFamilies" prefix predates the full device list; it is kept so
// test names stay stable.
INSTANTIATE_TEST_SUITE_P(AllFamilies, SchedulerEquivalence, ::testing::ValuesIn(kDevices),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

TEST(SchedulerEquivalenceDevices, ParameterListIsEveryStandardDevice) {
  std::vector<std::string> standard;
  for (const auto& c : standard_configs()) standard.push_back(c.name);
  EXPECT_EQ(std::vector<std::string>(std::begin(kDevices), std::end(kDevices)), standard);
}

TEST(SchedulerEquivalenceDevices, UnsustainableRefreshModeIsRejected) {
  // tREFI / 32 banks is shorter than tRFCpb: DDR5 defines only same-bank
  // refresh, and the constructor refuses per-bank refresh up front.
  EXPECT_FALSE(refresh_supported(*find_config("DDR5-6400"), RefreshMode::PerBank));
  EXPECT_TRUE(refresh_supported(*find_config("DDR5-6400"), RefreshMode::SameBank));
}

}  // namespace
}  // namespace tbi::dram

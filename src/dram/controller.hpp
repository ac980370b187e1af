/// \file controller.hpp
/// Command-level DRAM memory controller / timing model.
///
/// The controller consumes burst requests from a RequestStream through a
/// fixed-depth scheduling queue, chooses the next request with FR-FCFS
/// (row hits first, then oldest) or plain FCFS, and schedules the ACT /
/// PRE / RD / WR / REF commands needed at their earliest legal issue time
/// under the JEDEC constraints of dram/timing.hpp. Time is continuous
/// integer picoseconds; there is no cycle stepping, which makes the model
/// fast enough (millions of bursts per second) to reproduce all Table I
/// configurations in seconds.
///
/// Incremental FR-FCFS (design note). The earliest-data-slot pick needs
/// the earliest-legal data_start of every queued request, but replanning
/// the whole queue per burst is O(queue_depth) and dominates paper-scale
/// runs. The pick instead folds a per-bank candidate table of at most
/// four entries, built on two facts of the timing model:
///
///  1. Dominance inside one (bank, direction). Each bank keeps one
///     arrival-ordered list per direction. While a bank is open,
///     rdwr_ready == last_act + tRCD, and a conflict needs a PRE no
///     earlier than last_act + tRAS, then tRP and tRCD, plus an ACT that
///     only adds rate floors — so a conflict's data_start is never
///     earlier than a hit's of the same bank and direction, and requests
///     of one (bank, outcome, direction) class share one data_start.
///     Only two requests of a list can win the age-tie-broken minimum:
///     the oldest request of the list, and — only when that oldest
///     request is a conflict — the oldest row hit, which is the head of
///     the (bank, open row, direction) page list. Both are found in O(1).
///  2. Decomposition. data_start = max(bank-local term,
///     floor[bank group][direction][hit | needs ACT]). The bank-local
///     term (rdwr_ready, or the bank's ACT chain plus tRCD, plus CL or
///     CWL) changes only when the bank commits, when its queue changes or
///     when a refresh touches it. Each candidate stores it with its floor
///     index: enqueue updates a bank's entries in place, and a dequeue,
///     commit or refresh marks the bank stale so that the next pick that
///     reads the table rebuilds it. The floors are built from bus,
///     CAS-rate, W->R and ACT-rate state, which changes on every commit,
///     so a pick computes them once (4 per bank group with queued work),
///     folds the table with max() and a lexicographic (data_start, seq)
///     compare, and re-plans only the winner.
///
/// Two O(1) exits come first: the globally oldest request wins outright
/// when it lands on the bus-free time or on E = the smallest floor of any
/// queued (group, direction) class, because nothing can start earlier
/// and it wins every tie. The fold replaces an earlier 8-step age walk
/// plus per-bank bin-scan fallback: counters on that version (one traced
/// perfbench pass, seed 1) showed 36.8 % of dram-table1 picks and 72.2 %
/// of the LPDDR5-8533 fer-fade DRAM-stage picks falling through to the
/// fallback, each visiting 14.7 banks on dram-table1, at 8.5 class
/// evaluations per pick overall. A pick is O(banks with queued work), not
/// O(queue_depth), and the command stream is bit-identical to the
/// brute-force scan (Policy::FrFcfsOracle keeps the replan-everything
/// reference; tests/dram/test_scheduler_equivalence.cpp asserts
/// equivalence on every standard device, refresh mode and interleaver
/// stream shape).
///
/// Fidelity notes (DESIGN.md §5): per-bank row state, bank-group-aware
/// tCCD/tRRD, the four-activate window, rank-level write-to-read
/// turnaround, data-bus serialization, and all-bank / per-bank / same-bank
/// refresh are modeled; command-bus slot contention and PHY effects are
/// not. Every scheduled command can be streamed into a TimingChecker that
/// independently re-validates the protocol.
#pragma once

#include <array>
#include <limits>
#include <vector>

#include "dram/standards.hpp"
#include "dram/stats.hpp"
#include "dram/stream.hpp"
#include "dram/types.hpp"

namespace tbi::dram {

/// Observer for every command the controller schedules (checker, traces).
class CommandObserver {
 public:
  virtual ~CommandObserver() = default;
  virtual void on_command(const Command& cmd) = 0;
};

struct ControllerConfig {
  /// FrFcfs: earliest-data-slot greedy over the whole queue — the request
  /// whose burst can reach the data bus first is served next (ties go to
  /// the oldest). This emulates a cycle-accurate FR-FCFS controller: row
  /// hits naturally overtake conflicting requests while a conflict whose
  /// PRE/ACT chain has completed costs nothing extra and regains priority
  /// through its age. Implemented incrementally (see the design note in
  /// the file header); FrFcfsOracle is the brute-force replan-everything
  /// reference with the same observable behavior, kept for validation.
  /// Fcfs: strict arrival order (baseline for tests/ablation).
  enum class Policy { FrFcfs, Fcfs, FrFcfsOracle };

  unsigned queue_depth = 64;
  Policy policy = Policy::FrFcfs;
  /// When true, the device's default refresh mode is used and
  /// `refresh_mode` is ignored.
  bool use_device_default_refresh = true;
  RefreshMode refresh_mode = RefreshMode::AllBank;
};

class Controller {
 public:
  Controller(DeviceConfig device, ControllerConfig config);

  /// Drain \p stream completely and return the phase statistics.
  /// Controller state (open rows, clock, refresh phase) carries over to
  /// the next call, so write phase and read phase chain realistically.
  PhaseStats run_phase(RequestStream& stream, std::string label);

  /// Attach an observer receiving every scheduled command (or nullptr).
  void set_observer(CommandObserver* observer) { observer_ = observer; }

  const DeviceConfig& device() const { return device_; }
  RefreshMode refresh_mode() const { return refresh_mode_; }

  /// Current simulated time (end of last scheduled data burst).
  Ps now() const { return now_; }

 private:
  static constexpr Ps kNegInf = std::numeric_limits<Ps>::min() / 4;
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  struct Bank {
    bool open = false;
    std::uint32_t row = 0;
    Ps last_act = kNegInf;      ///< issue time of last ACT
    Ps act_ready = 0;           ///< earliest next ACT (tRP / tRC / refresh)
    Ps rdwr_ready = 0;          ///< earliest CAS after ACT (tRCD)
    Ps pre_ready = 0;           ///< earliest PRE (tRAS / tRTP / tWR)
    Ps ref_ready = 0;           ///< earliest REF touching this bank (tRP after PRE)
  };

  /// Fully computed earliest-legal schedule for one request.
  struct Plan {
    RowBufferResult kind = RowBufferResult::Hit;
    Ps pre_t = 0;   ///< valid when kind == Conflict
    Ps act_t = 0;   ///< valid when kind != Hit
    Ps cas_t = 0;
    Ps data_start = 0;
    Ps data_end = 0;
  };

  /// One arrival-ordered list of queued slots: a (bank, direction) bin
  /// or a (bank, row, direction) page.
  struct List {
    std::uint32_t head = kNoSlot;  ///< oldest member
    std::uint32_t tail = kNoSlot;
  };

  /// Open-addressing page table keyed by (bank, row, direction): the
  /// arrival-ordered list of queued requests targeting that exact page,
  /// so the oldest row hit of an open bank is one lookup. Entries exist
  /// only while their list is non-empty. Linear probing with
  /// backward-shift deletion; sized at 4x queue depth so probe chains
  /// stay short.
  struct Page {
    std::uint64_t key = kEmptyKey;
    List list;
  };
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// One entry of the FR-FCFS candidate table (see the header design
  /// note): data_start = max(local, floors_[floor]). Each bank owns
  /// kCandidatesPerBank entry ids, bank * 4 + dir * 2 + k: k = 0 is the
  /// oldest request of the (bank, dir) bin when it needs an ACT, k = 1
  /// the bin's oldest row hit. Live entries are packed densely so the
  /// pick folds one flat array.
  struct Candidate {
    Ps local = 0;             ///< bank-local term, CAS latency included
    std::uint64_t seq = 0;
    std::uint32_t slot = kNoSlot;
    std::uint32_t floor = 0;  ///< bank group * 4 + direction * 2 + needs ACT
    std::uint32_t id = 0;     ///< owning entry id
  };
  static constexpr unsigned kCandidatesPerBank = 4;

  RowBufferResult classify(const Request& req) const;
  /// Earliest-legal Plan for any (bank, outcome, direction) class; the
  /// single source of scheduling truth shared by all policies.
  Plan plan_class(std::uint32_t bank_id, RowBufferResult kind, bool is_write) const;
  /// data_start of plan_class() alone — the pick's exit test for the
  /// oldest request — without materializing the Plan.
  Ps eval_class(std::uint32_t bank_id, RowBufferResult kind, bool is_write) const;
  Plan plan_request(const Request& req) const;
  /// Applies the plan; the committed request must already be dequeued.
  void commit(const Request& req, const Plan& plan, PhaseStats& stats);
  void refresh_if_due(PhaseStats& stats);
  void do_refresh(PhaseStats& stats);
  Ps close_bank(std::uint32_t bank_id, PhaseStats& stats);
  void note_act_rate(Ps t, unsigned bank_group);
  Ps earliest_act_after(Ps floor, std::uint32_t bank_id) const;
  void emit(const Command& cmd);

  // Queue management (slot arena + arrival FIFO + bins + pages).
  std::uint32_t enqueue(const Request& req);
  void dequeue(std::uint32_t slot_id);
  /// Point candidate entry \p id at \p slot_id, or empty it for kNoSlot.
  void set_candidate(std::uint32_t id, std::uint32_t slot_id, Ps local,
                     std::uint32_t floor);
  /// Flag \p bank_id's candidates for a rebuild before the next table
  /// read: a dequeue, a commit or a refresh changed the bank.
  void mark_stale(std::uint32_t bank_id) {
    stale_[bank_id >> 6] |= std::uint64_t{1} << (bank_id & 63);
  }
  bool is_stale(std::uint32_t bank_id) const {
    return (stale_[bank_id >> 6] >> (bank_id & 63)) & 1;
  }
  /// Bank-local term of a request that needs an ACT, without CAS latency:
  /// its ACT chain plus tRCD.
  Ps act_chain(const Bank& b) const;
  /// Rebuild the candidates of every stale bank from its bins, pages and
  /// bank state.
  void refresh_stale();
  /// Fill floors_ for every bank group with queued work and return E, the
  /// smallest floor of any queued (group, direction) class: no queued
  /// request can start earlier.
  Ps update_floors();
  std::uint32_t pick_fr_fcfs(Plan& plan_out);
  /// The table's (data_start, seq) minimum; floors_ must be current.
  std::uint32_t fold_candidates(Plan& plan_out) const;
  std::uint32_t pick_fr_fcfs_oracle(Plan& plan_out) const;

  // Page table primitives.
  static std::uint64_t page_key(std::uint32_t bank, std::uint32_t row, bool is_write) {
    return (static_cast<std::uint64_t>(bank) << 33) |
           (static_cast<std::uint64_t>(row) << 1) | (is_write ? 1 : 0);
  }
  std::size_t page_slot(std::uint64_t key) const;
  /// Append \p slot_id to the page; true when it is the page's oldest.
  bool page_add(std::uint64_t key, std::uint32_t slot_id);
  void page_remove(std::uint64_t key, std::uint32_t slot_id);
  /// Oldest queued slot of the page, or kNoSlot.
  std::uint32_t page_head(std::uint64_t key) const;

  DeviceConfig device_;
  ControllerConfig config_;
  RefreshMode refresh_mode_;
  CommandObserver* observer_ = nullptr;

  std::vector<Bank> banks_;
  std::vector<Ps> last_act_in_group_;   ///< per bank group, for tRRD_L
  std::vector<Ps> last_cas_in_group_;   ///< per bank group, for tCCD_L
  std::vector<std::uint32_t> group_of_; ///< bank id -> bank group (no div on hot path)
  Ps last_act_any_ = kNegInf;
  Ps last_cas_any_ = kNegInf;
  // Four-activate window as a fixed ring (ACT times are strictly
  // increasing, so the oldest of the last four is faw_[faw_head_]).
  std::array<Ps, 4> faw_{};
  unsigned faw_head_ = 0;
  unsigned faw_len_ = 0;
  Ps bus_free_ = 0;
  Ps last_wr_data_end_ = kNegInf;
  Ps last_rd_data_end_ = kNegInf;
  bool last_burst_was_write_ = false;
  Ps now_ = 0;

  Ps next_refresh_ = 0;
  Ps refresh_interval_ = 0;
  unsigned refresh_groups_ = 1;
  unsigned next_refresh_group_ = 0;
  Ps last_refresh_ = kNegInf;

  // Scheduling queue: a fixed arena of requests threaded onto three
  // intrusive doubly-linked lists — the global arrival FIFO, the owning
  // (bank, direction) bin and the owning page — so enqueue, dequeue and
  // in-order iteration are all O(1) with no element movement at any
  // queue depth.
  std::vector<Request> slots_;               ///< fixed arena of queued requests
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> fifo_next_, fifo_prev_;
  std::vector<std::uint32_t> bin_next_, bin_prev_;
  std::vector<std::uint32_t> page_next_, page_prev_;
  std::uint32_t fifo_head_ = kNoSlot;        ///< oldest queued slot
  std::uint32_t fifo_tail_ = kNoSlot;
  std::vector<List> bins_;                   ///< bank * 2 + direction
  std::vector<Page> pages_;                  ///< (bank, row, dir) -> queued slots
  std::size_t page_mask_ = 0;                ///< pages_.size() - 1 (power of two)
  /// Queued totals per (bank group, direction): update_floors() skips
  /// groups without work and E covers only queued classes.
  std::vector<std::array<std::uint32_t, 2>> queued_per_group_;

  // FR-FCFS candidate table (see the header design note).
  std::vector<Candidate> candidates_;         ///< live entries, densely packed
  std::vector<std::uint32_t> candidate_pos_;  ///< entry id -> index in candidates_
  /// Bitmask of banks whose candidates are out of date (64 banks per
  /// word). The rebuild is deferred to the pick, so picks that take the
  /// bus-free exit — and the other policies — never pay for it.
  std::vector<std::uint64_t> stale_;
  /// Live candidates that hit an open row. A hit is queued exactly when
  /// some bank has one, so when zero every queued request needs an ACT
  /// and E may include the ACT-rate floors — the tight bound in the
  /// ACT-limited (conflict-chain) regimes.
  std::uint32_t hit_candidates_ = 0;
  std::vector<Ps> floors_;                   ///< bank group * 4 + dir * 2 + needs ACT
  std::uint64_t next_seq_ = 0;
};

}  // namespace tbi::dram

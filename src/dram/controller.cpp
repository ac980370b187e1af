#include "dram/controller.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "perf/counters.hpp"

namespace tbi::dram {

namespace {

RefreshMode effective_refresh_mode(const DeviceConfig& dev,
                                   const ControllerConfig& cfg) {
  if (cfg.use_device_default_refresh) return dev.default_refresh;
  return cfg.refresh_mode;
}

}  // namespace

Controller::Controller(DeviceConfig device, ControllerConfig config)
    : device_(std::move(device)),
      config_(config),
      refresh_mode_(effective_refresh_mode(device_, config)) {
  device_.validate();
  if (config_.queue_depth == 0) {
    throw std::invalid_argument("Controller: queue_depth must be > 0");
  }
  banks_.resize(device_.banks);
  last_act_in_group_.assign(device_.bank_groups, kNegInf);
  last_cas_in_group_.assign(device_.bank_groups, kNegInf);
  group_of_.resize(device_.banks);
  for (std::uint32_t b = 0; b < device_.banks; ++b) {
    group_of_[b] = b % device_.bank_groups;
  }
  queued_per_group_.assign(device_.bank_groups, {0, 0});

  slots_.resize(config_.queue_depth);
  free_slots_.reserve(config_.queue_depth);
  for (std::uint32_t id = config_.queue_depth; id-- > 0;) free_slots_.push_back(id);
  fifo_next_.assign(config_.queue_depth, kNoSlot);
  fifo_prev_.assign(config_.queue_depth, kNoSlot);
  bin_next_.assign(config_.queue_depth, kNoSlot);
  bin_prev_.assign(config_.queue_depth, kNoSlot);
  page_next_.assign(config_.queue_depth, kNoSlot);
  page_prev_.assign(config_.queue_depth, kNoSlot);
  bins_.resize(std::size_t{device_.banks} * 2);
  std::size_t table = 64;
  while (table < static_cast<std::size_t>(config_.queue_depth) * 4) table *= 2;
  pages_.assign(table, Page{});
  page_mask_ = table - 1;
  candidates_.reserve(std::size_t{device_.banks} * kCandidatesPerBank);
  candidate_pos_.assign(std::size_t{device_.banks} * kCandidatesPerBank, kNoSlot);
  stale_.assign((device_.banks + 63) / 64, 0);
  floors_.assign(std::size_t{device_.bank_groups} * 4, 0);

  switch (refresh_mode_) {
    case RefreshMode::Disabled:
      refresh_interval_ = 0;
      refresh_groups_ = 1;
      break;
    case RefreshMode::AllBank:
      refresh_interval_ = device_.timing.tREFI;
      refresh_groups_ = 1;
      break;
    case RefreshMode::PerBank:
      refresh_groups_ = device_.banks;
      refresh_interval_ = device_.timing.tREFI / refresh_groups_;
      break;
    case RefreshMode::SameBank:
      refresh_groups_ = device_.banks_per_group();
      refresh_interval_ = device_.timing.tREFI / refresh_groups_;
      break;
  }
  // A refresh cadence whose command interval is not clearly longer than
  // the refresh cycle time can never keep up — the backlog grows without
  // bound (e.g. hypothetical DDR5 per-bank refresh: tREFI/32 < tRFCpb,
  // which is why the standard only defines REFsb). Reject it up front.
  if (refresh_mode_ != RefreshMode::Disabled) {
    const Ps cycle = refresh_mode_ == RefreshMode::AllBank
                         ? device_.timing.tRFC_ab
                         : device_.timing.tRFC_grp;
    if (refresh_interval_ <= cycle) {
      throw std::invalid_argument("Controller: refresh mode " +
                                  std::string(to_string(refresh_mode_)) +
                                  " is unsustainable on " + device_.name);
    }
  }
  next_refresh_ = refresh_interval_;
}

void Controller::emit(const Command& cmd) {
  if (observer_ != nullptr) observer_->on_command(cmd);
}

RowBufferResult Controller::classify(const Request& req) const {
  const Bank& b = banks_[req.addr.bank];
  if (!b.open) return RowBufferResult::Miss;
  return b.row == req.addr.row ? RowBufferResult::Hit : RowBufferResult::Conflict;
}

Ps Controller::earliest_act_after(Ps floor, std::uint32_t bank_id) const {
  const unsigned bg = group_of_[bank_id];
  Ps t = floor;
  t = std::max(t, last_act_any_ + device_.timing.tRRD_S);
  t = std::max(t, last_act_in_group_[bg] + device_.timing.tRRD_L);
  if (faw_len_ == 4) {
    t = std::max(t, faw_[faw_head_] + device_.timing.tFAW);
  }
  return t;
}

Controller::Plan Controller::plan_class(std::uint32_t bank_id, RowBufferResult kind,
                                        bool is_write) const {
  const unsigned bg = group_of_[bank_id];
  const Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;

  Plan plan;
  plan.kind = kind;

  Ps rdwr_ready = b.rdwr_ready;
  switch (kind) {
    case RowBufferResult::Hit:
      break;
    case RowBufferResult::Miss: {
      plan.act_t = earliest_act_after(b.act_ready, bank_id);
      rdwr_ready = plan.act_t + t.tRCD;
      break;
    }
    case RowBufferResult::Conflict: {
      plan.pre_t = std::max(b.pre_ready, b.last_act + t.tRAS);
      const Ps act_floor = std::max(b.act_ready, plan.pre_t + t.tRP);
      plan.act_t = earliest_act_after(act_floor, bank_id);
      rdwr_ready = plan.act_t + t.tRCD;
      break;
    }
  }

  Ps cas_t = rdwr_ready;
  cas_t = std::max(cas_t, last_cas_any_ + t.tCCD_S);
  cas_t = std::max(cas_t, last_cas_in_group_[bg] + t.tCCD_L);
  if (!is_write) {
    cas_t = std::max(cas_t, last_wr_data_end_ + t.tWTR);  // rank-level W->R
  }

  const Ps cas_latency = is_write ? t.CWL : t.CL;
  Ps data_start = cas_t + cas_latency;
  Ps bus_ready = bus_free_;
  if (is_write && !last_burst_was_write_) {
    bus_ready = std::max(bus_ready, last_rd_data_end_ + t.tRTW_bubble);
  }
  if (data_start < bus_ready) {
    cas_t += bus_ready - data_start;
    data_start = bus_ready;
  }

  plan.cas_t = cas_t;
  plan.data_start = data_start;
  plan.data_end = data_start + device_.burst_time;
  return plan;
}

Ps Controller::eval_class(std::uint32_t bank_id, RowBufferResult kind,
                          bool is_write) const {
  // Mirrors plan_class() but folds straight to data_start:
  //   data_start = max(cas_t + latency, bus_ready)
  // with cas_t the max of the bank-chain, CAS-rate and W->R floors.
  const unsigned bg = group_of_[bank_id];
  const Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;

  Ps rdwr_ready = b.rdwr_ready;
  switch (kind) {
    case RowBufferResult::Hit:
      break;
    case RowBufferResult::Miss:
      rdwr_ready = earliest_act_after(b.act_ready, bank_id) + t.tRCD;
      break;
    case RowBufferResult::Conflict: {
      const Ps pre_t = std::max(b.pre_ready, b.last_act + t.tRAS);
      const Ps act_floor = std::max(b.act_ready, pre_t + t.tRP);
      rdwr_ready = earliest_act_after(act_floor, bank_id) + t.tRCD;
      break;
    }
  }

  Ps cas_t = std::max(rdwr_ready, last_cas_any_ + t.tCCD_S);
  cas_t = std::max(cas_t, last_cas_in_group_[bg] + t.tCCD_L);
  Ps bus_ready = bus_free_;
  if (is_write) {
    if (!last_burst_was_write_) {
      bus_ready = std::max(bus_ready, last_rd_data_end_ + t.tRTW_bubble);
    }
    return std::max(cas_t + t.CWL, bus_ready);
  }
  cas_t = std::max(cas_t, last_wr_data_end_ + t.tWTR);  // rank-level W->R
  return std::max(cas_t + t.CL, bus_ready);
}

Controller::Plan Controller::plan_request(const Request& req) const {
  return plan_class(req.addr.bank, classify(req), req.is_write);
}

Ps Controller::close_bank(std::uint32_t bank_id, PhaseStats& stats) {
  Bank& b = banks_[bank_id];
  assert(b.open);
  const Ps pre_t = std::max(b.pre_ready, b.last_act + device_.timing.tRAS);
  b.open = false;
  b.act_ready = std::max(b.act_ready, pre_t + device_.timing.tRP);
  b.ref_ready = std::max(b.ref_ready, pre_t + device_.timing.tRP);
  ++stats.precharges;
  emit(Command{.kind = CommandKind::Pre, .issue = pre_t, .bank = bank_id});
  return pre_t;
}

void Controller::note_act_rate(Ps t, unsigned bank_group) {
  last_act_any_ = t;
  last_act_in_group_[bank_group] = t;
  if (faw_len_ < 4) {
    faw_[(faw_head_ + faw_len_) & 3] = t;
    ++faw_len_;
  } else {
    faw_[faw_head_] = t;
    faw_head_ = (faw_head_ + 1) & 3;
  }
}

void Controller::commit(const Request& req, const Plan& plan, PhaseStats& stats) {
  const std::uint32_t bank_id = req.addr.bank;
  const unsigned bg = group_of_[bank_id];
  Bank& b = banks_[bank_id];
  const TimingParams& t = device_.timing;

  switch (plan.kind) {
    case RowBufferResult::Hit:
      ++stats.row_hits;
      break;
    case RowBufferResult::Conflict: {
      ++stats.row_conflicts;
      b.open = false;
      b.act_ready = std::max(b.act_ready, plan.pre_t + t.tRP);
      b.ref_ready = std::max(b.ref_ready, plan.pre_t + t.tRP);
      ++stats.precharges;
      emit(Command{.kind = CommandKind::Pre, .issue = plan.pre_t, .bank = bank_id});
      [[fallthrough]];
    }
    case RowBufferResult::Miss: {
      if (plan.kind == RowBufferResult::Miss) ++stats.row_misses;
      b.open = true;
      b.row = req.addr.row;
      b.last_act = plan.act_t;
      b.act_ready = plan.act_t + t.tRC;
      b.rdwr_ready = plan.act_t + t.tRCD;
      b.pre_ready = plan.act_t + t.tRAS;
      note_act_rate(plan.act_t, bg);
      ++stats.activates;
      emit(Command{.kind = CommandKind::Act, .issue = plan.act_t, .bank = bank_id,
                   .row = req.addr.row});
      break;
    }
  }

  last_cas_any_ = plan.cas_t;
  last_cas_in_group_[bg] = plan.cas_t;
  bus_free_ = plan.data_end;
  last_burst_was_write_ = req.is_write;
  if (req.is_write) {
    last_wr_data_end_ = plan.data_end;
    b.pre_ready = std::max(b.pre_ready, plan.data_end + t.tWR);
    ++stats.writes;
  } else {
    last_rd_data_end_ = plan.data_end;
    b.pre_ready = std::max(b.pre_ready, plan.cas_t + t.tRTP);
    ++stats.reads;
  }

  ++stats.bursts;
  stats.busy += device_.burst_time;
  if (stats.bursts == 1) stats.start = plan.data_start;
  stats.end = plan.data_end;
  now_ = std::max(now_, plan.data_end);
  mark_stale(bank_id);

  emit(Command{.kind = req.is_write ? CommandKind::Wr : CommandKind::Rd,
               .issue = plan.cas_t,
               .bank = bank_id,
               .row = req.addr.row,
               .column = req.addr.column,
               .data_start = plan.data_start,
               .data_end = plan.data_end});
}

std::size_t Controller::page_slot(std::uint64_t key) const {
  // Fibonacci hashing: one multiply, top bits. The keys are structured
  // (bank | row | dir) and the golden-ratio multiply spreads consecutive
  // rows well enough for short linear-probe chains at 4x slack.
  const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h >> 32) & page_mask_;
}

bool Controller::page_add(std::uint64_t key, std::uint32_t slot_id) {
  std::size_t i = page_slot(key);
  while (pages_[i].key != key && pages_[i].key != kEmptyKey) {
    i = (i + 1) & page_mask_;
  }
  Page& page = pages_[i];
  page.key = key;
  page_prev_[slot_id] = page.list.tail;
  page_next_[slot_id] = kNoSlot;
  (page.list.tail != kNoSlot ? page_next_[page.list.tail] : page.list.head) = slot_id;
  page.list.tail = slot_id;
  return page.list.head == slot_id;
}

void Controller::page_remove(std::uint64_t key, std::uint32_t slot_id) {
  std::size_t i = page_slot(key);
  while (pages_[i].key != key) i = (i + 1) & page_mask_;
  List& list = pages_[i].list;
  const std::uint32_t pn = page_next_[slot_id];
  const std::uint32_t pp = page_prev_[slot_id];
  (pp != kNoSlot ? page_next_[pp] : list.head) = pn;
  (pn != kNoSlot ? page_prev_[pn] : list.tail) = pp;
  if (list.head != kNoSlot) return;
  // Backward-shift deletion keeps probe chains tombstone-free.
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & page_mask_;
    if (pages_[j].key == kEmptyKey) break;
    const std::size_t ideal = page_slot(pages_[j].key);
    if (((j - ideal) & page_mask_) >= ((j - i) & page_mask_)) {
      pages_[i] = pages_[j];
      i = j;
    }
  }
  pages_[i] = Page{};
}

std::uint32_t Controller::page_head(std::uint64_t key) const {
  std::size_t i = page_slot(key);
  while (pages_[i].key != kEmptyKey) {
    if (pages_[i].key == key) return pages_[i].list.head;
    i = (i + 1) & page_mask_;
  }
  return kNoSlot;
}

std::uint32_t Controller::enqueue(const Request& req) {
  assert(!free_slots_.empty());
  const std::uint32_t id = free_slots_.back();
  free_slots_.pop_back();
  slots_[id] = req;

  fifo_prev_[id] = fifo_tail_;
  fifo_next_[id] = kNoSlot;
  (fifo_tail_ != kNoSlot ? fifo_next_[fifo_tail_] : fifo_head_) = id;
  fifo_tail_ = id;

  const std::uint32_t bank_id = req.addr.bank;
  const std::uint32_t dir = req.is_write ? 1 : 0;
  List& bin = bins_[bank_id * 2 + dir];
  const bool bin_head = bin.head == kNoSlot;
  bin_prev_[id] = bin.tail;
  bin_next_[id] = kNoSlot;
  (bin.tail != kNoSlot ? bin_next_[bin.tail] : bin.head) = id;
  bin.tail = id;
  ++queued_per_group_[group_of_[bank_id]][dir];
  const bool page_head = page_add(page_key(bank_id, req.addr.row, req.is_write), id);
  // Bank state is unchanged, so a current bank's candidates are updated
  // in place: a new request is one only as the oldest of its bin, or as
  // the first row hit behind a conflict head (a hit head shares its page).
  const Bank& b = banks_[bank_id];
  const bool hit = b.open && b.row == req.addr.row;
  if (!is_stale(bank_id) && (bin_head || (page_head && hit))) {
    const Ps latency = req.is_write ? device_.timing.CWL : device_.timing.CL;
    set_candidate(bank_id * kCandidatesPerBank + dir * 2 + (hit ? 1 : 0), id,
                  (hit ? b.rdwr_ready : act_chain(b)) + latency,
                  group_of_[bank_id] * 4 + dir * 2 + (hit ? 0 : 1));
  }
  return id;
}

void Controller::dequeue(std::uint32_t slot_id) {
  const std::uint32_t fn = fifo_next_[slot_id];
  const std::uint32_t fp = fifo_prev_[slot_id];
  (fp != kNoSlot ? fifo_next_[fp] : fifo_head_) = fn;
  (fn != kNoSlot ? fifo_prev_[fn] : fifo_tail_) = fp;

  const Request& req = slots_[slot_id];
  List& bin = bins_[req.addr.bank * 2 + (req.is_write ? 1 : 0)];
  const std::uint32_t bn = bin_next_[slot_id];
  const std::uint32_t bp = bin_prev_[slot_id];
  (bp != kNoSlot ? bin_next_[bp] : bin.head) = bn;
  (bn != kNoSlot ? bin_prev_[bn] : bin.tail) = bp;
  --queued_per_group_[group_of_[req.addr.bank]][req.is_write ? 1 : 0];
  page_remove(page_key(req.addr.bank, req.addr.row, req.is_write), slot_id);
  mark_stale(req.addr.bank);

  free_slots_.push_back(slot_id);
}

void Controller::set_candidate(std::uint32_t id, std::uint32_t slot_id, Ps local,
                               std::uint32_t floor) {
  std::uint32_t& pos = candidate_pos_[id];
  if (pos != kNoSlot) {
    if ((candidates_[pos].floor & 1) == 0) --hit_candidates_;
    if (slot_id == kNoSlot) {
      candidates_[pos] = candidates_.back();
      candidate_pos_[candidates_[pos].id] = pos;
      candidates_.pop_back();
      pos = kNoSlot;
      return;
    }
  } else {
    if (slot_id == kNoSlot) return;
    pos = static_cast<std::uint32_t>(candidates_.size());
    candidates_.emplace_back();
  }
  if ((floor & 1) == 0) ++hit_candidates_;
  candidates_[pos] = Candidate{local, slots_[slot_id].seq, slot_id, floor, id};
}

Ps Controller::act_chain(const Bank& b) const {
  // A miss waits for the bank's act_ready; a conflict also for its PRE
  // (tRAS after the open row's ACT) plus tRP. A hit waits only for
  // rdwr_ready = last_act + tRCD, never later than this.
  const TimingParams& t = device_.timing;
  Ps act = b.act_ready;
  if (b.open) act = std::max(act, std::max(b.pre_ready, b.last_act + t.tRAS) + t.tRP);
  return act + t.tRCD;
}

void Controller::refresh_stale() {
  const TimingParams& t = device_.timing;
  for (std::size_t w = 0; w < stale_.size(); ++w) {
    for (std::uint64_t word = stale_[w]; word != 0; word &= word - 1) {
      const auto bank_id = static_cast<std::uint32_t>(w * 64 + std::countr_zero(word));
      const Bank& b = banks_[bank_id];
      const Ps act_local = act_chain(b);
      for (std::uint32_t dir = 0; dir < 2; ++dir) {
        const std::uint32_t head = bins_[bank_id * 2 + dir].head;
        std::uint32_t hit = kNoSlot;
        if (head != kNoSlot && b.open) {
          hit = slots_[head].addr.row == b.row ? head
                                               : page_head(page_key(bank_id, b.row, dir != 0));
        }
        const Ps latency = dir != 0 ? t.CWL : t.CL;
        const std::uint32_t id = bank_id * kCandidatesPerBank + dir * 2;
        const std::uint32_t floor = group_of_[bank_id] * 4 + dir * 2;
        set_candidate(id, hit == head ? kNoSlot : head, act_local + latency, floor + 1);
        set_candidate(id + 1, hit, b.rdwr_ready + latency, floor);
      }
    }
    stale_[w] = 0;
  }
}

Ps Controller::update_floors() {
  // floors_[g * 4 + dir * 2 + needs_act] is the part of plan_class()'s
  // data_start that every request of bank group g and direction dir
  // shares: bus availability, the CAS-rate and W->R floors plus CAS
  // latency, and for a request that needs an ACT the ACT-rate floor
  // (tRRD / four-activate window) plus tRCD. E is the smallest floor of
  // any queued class, using the ACT floors when no queued request hits
  // an open row; each group's own CAS-rate state makes E exact whenever
  // the winner is rate- rather than bank-limited.
  const TimingParams& t = device_.timing;
  const Ps cas_any = last_cas_any_ + t.tCCD_S;
  Ps act_any = last_act_any_ + t.tRRD_S;
  if (faw_len_ == 4) act_any = std::max(act_any, faw_[faw_head_] + t.tFAW);
  const Ps wtr_floor = last_wr_data_end_ + t.tWTR;
  Ps bus_w = bus_free_;
  if (!last_burst_was_write_) {
    bus_w = std::max(bus_w, last_rd_data_end_ + t.tRTW_bubble);
  }
  const unsigned bound_act = hit_candidates_ == 0 ? 1 : 0;

  Ps bound = std::numeric_limits<Ps>::max();
  for (std::size_t g = 0; g < queued_per_group_.size(); ++g) {
    const auto& queued = queued_per_group_[g];
    if (queued[0] == 0 && queued[1] == 0) continue;
    const Ps cas_g = std::max(cas_any, last_cas_in_group_[g] + t.tCCD_L);
    const Ps act_g = std::max(act_any, last_act_in_group_[g] + t.tRRD_L) + t.tRCD;
    Ps* f = &floors_[g * 4];
    f[0] = std::max(bus_free_, std::max(cas_g, wtr_floor) + t.CL);
    f[1] = std::max(f[0], act_g + t.CL);
    f[2] = std::max(bus_w, cas_g + t.CWL);
    f[3] = std::max(f[2], act_g + t.CWL);
    if (queued[0] > 0) bound = std::min(bound, f[bound_act]);
    if (queued[1] > 0) bound = std::min(bound, f[2 + bound_act]);
  }
  return bound;
}

std::uint32_t Controller::pick_fr_fcfs(Plan& plan_out) {
  assert(fifo_head_ != kNoSlot);
  // Two O(1) exits for the oldest request: nothing can start before the
  // current end of the bus schedule — the saturated-bus steady state —
  // or before E, and the oldest request wins every tie by age.
  const Request& head = slots_[fifo_head_];
  const RowBufferResult head_kind = classify(head);
  if (fifo_next_[fifo_head_] != kNoSlot) {
    const Ps head_ds = eval_class(head.addr.bank, head_kind, head.is_write);
    if (head_ds > bus_free_) {
      refresh_stale();
      if (head_ds > update_floors()) return fold_candidates(plan_out);
    }
  }
  plan_out = plan_class(head.addr.bank, head_kind, head.is_write);
  return fifo_head_;
}

std::uint32_t Controller::fold_candidates(Plan& plan_out) const {
  // (data_start, seq) as one 128-bit key: data_start >= bus_free_ >= 0 and
  // seq is unique, so the minimum is tie-free. Branch-free, because which
  // entry wins is data-dependent and unpredictable.
  using Key = unsigned __int128;
  Key best_key = ~Key{0};
  std::uint32_t best = kNoSlot;
  for (const Candidate& c : candidates_) {
    const Ps ds = std::max(c.local, floors_[c.floor]);
    const Key key = (Key{static_cast<std::uint64_t>(ds)} << 64) | c.seq;
    const std::uint32_t take = 0u - static_cast<std::uint32_t>(key < best_key);
    best_key = std::min(best_key, key);
    best ^= (best ^ c.slot) & take;
  }
  assert(best != kNoSlot);  // every non-empty bin has a candidate
  plan_out = plan_request(slots_[best]);
  return best;
}

std::uint32_t Controller::pick_fr_fcfs_oracle(Plan& plan_out) const {
  assert(fifo_head_ != kNoSlot);
  // Brute-force reference: replan every queued request on every pick.
  // data_start can never precede the current bus_free_, so a request
  // landing exactly there is unbeatable and ends the scan early; ties
  // resolve to the oldest request because the FIFO is scanned in arrival
  // order.
  std::uint32_t best = fifo_head_;
  Ps best_slot = std::numeric_limits<Ps>::max();
  for (std::uint32_t id = fifo_head_; id != kNoSlot; id = fifo_next_[id]) {
    const Plan p = plan_request(slots_[id]);
    if (p.data_start < best_slot) {
      best_slot = p.data_start;
      best = id;
      plan_out = p;
      if (best_slot <= bus_free_) break;
    }
  }
  return best;
}

void Controller::do_refresh(PhaseStats& stats) {
  const TimingParams& t = device_.timing;
  Ps ready = next_refresh_;

  if (refresh_mode_ == RefreshMode::AllBank) {
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      if (banks_[i].open) close_bank(i, stats);
      ready = std::max(ready, banks_[i].ref_ready);
    }
    ready = std::max(ready, last_refresh_ + t.tRFC_ab);
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      banks_[i].act_ready = std::max(banks_[i].act_ready, ready + t.tRFC_ab);
      mark_stale(i);
    }
    emit(Command{.kind = CommandKind::RefAb, .issue = ready});
  } else {
    // Per-bank / same-bank rotation group.
    const unsigned group = next_refresh_group_;
    auto is_member = [&](std::uint32_t i) {
      return (refresh_mode_ == RefreshMode::PerBank)
                 ? (i == group)
                 : (i / device_.bank_groups == group);
    };
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      if (!is_member(i)) continue;
      if (banks_[i].open) close_bank(i, stats);
      ready = std::max(ready, banks_[i].ref_ready);
    }
    ready = std::max(ready, last_refresh_ + t.tRFC_grp);
    for (std::uint32_t i = 0; i < device_.banks; ++i) {
      if (is_member(i)) {
        banks_[i].act_ready = std::max(banks_[i].act_ready, ready + t.tRFC_grp);
        mark_stale(i);
      }
    }
    emit(Command{.kind = CommandKind::RefGrp, .issue = ready, .bank = group});
    next_refresh_group_ = (next_refresh_group_ + 1) % refresh_groups_;
  }

  last_refresh_ = ready;
  ++stats.refreshes;
  next_refresh_ += refresh_interval_;
}

void Controller::refresh_if_due(PhaseStats& stats) {
  if (refresh_mode_ == RefreshMode::Disabled) return;
  while (next_refresh_ <= now_) do_refresh(stats);
}

PhaseStats Controller::run_phase(RequestStream& stream, std::string label) {
  PhaseStats stats;
  stats.label = std::move(label);
  const std::uint64_t host_start_ns = perf::now_ns();

  const std::uint32_t banks = device_.banks;
  const std::uint32_t rows = device_.rows_per_bank;
  const std::uint32_t columns = device_.columns_per_page;
  auto refill = [&] {
    Request r;
    while (!free_slots_.empty() && stream.next(r)) {
      r.seq = next_seq_++;
      if (r.addr.bank >= banks || r.addr.row >= rows || r.addr.column >= columns) {
        throw std::out_of_range("Controller: request address outside device");
      }
      enqueue(r);
    }
  };

  refill();
  while (fifo_head_ != kNoSlot) {
    refresh_if_due(stats);
    Plan plan;
    std::uint32_t slot_id;
    switch (config_.policy) {
      case ControllerConfig::Policy::Fcfs:
        slot_id = fifo_head_;
        plan = plan_request(slots_[slot_id]);
        break;
      case ControllerConfig::Policy::FrFcfs:
        slot_id = pick_fr_fcfs(plan);
        break;
      case ControllerConfig::Policy::FrFcfsOracle:
        slot_id = pick_fr_fcfs_oracle(plan);
        break;
      default:
        throw std::logic_error("Controller: unknown policy");
    }
    ++stats.picks;
    const Request req = slots_[slot_id];
    dequeue(slot_id);
    commit(req, plan, stats);
    refill();
  }
  stats.host_ns = perf::now_ns() - host_start_ns;
  return stats;
}

}  // namespace tbi::dram

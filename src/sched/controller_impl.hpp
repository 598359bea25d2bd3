// ControllerT member definitions. Included only by TUs that explicitly
// instantiate the template (controller.cpp for the shipped bank types) —
// user code sees controller.hpp's extern template declarations instead.
// BankT must be complete wherever this header is instantiated and must meet
// the bank contract of nvm/bank.hpp: the row-list scans hoist the
// member-independent column base out of each walk and fold only the
// per-member CD locks inside it, and the candidate cache stores SAG keys
// computed at t = 0, with the bank floors applied on read and the channel's
// refresh_end applied at query time (the selectors return early inside a
// refresh window, next_event maxes it into the bank candidates).
#pragma once

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sched/controller.hpp"

namespace fgnvm::sched {

template <typename BankT>
ControllerT<BankT>::ControllerT(const mem::MemGeometry& geometry,
                                const mem::TimingParams& timing,
                                const ControllerConfig& cfg,
                                const BankT& prototype)
    : geo_(geometry),
      timing_(timing),
      cfg_(cfg),
      banks_(geometry.ranks_per_channel * geometry.banks_per_rank, prototype),
      bus_(cfg.bus_lanes),
      writes_(cfg.write_queue_cap, cfg.wq_high, cfg.wq_low,
              geometry.line_bytes) {
  const std::uint64_t n = banks_.size();
  sag_last_read_.assign(n * geo_.num_sags, 0);

  // Read slot pool: fully sized from the configured queue depth so slots
  // never move or reallocate mid-run (rpool_base_ guards that invariant).
  rpool_.resize(cfg_.read_queue_cap);
  rpool_base_ = rpool_.data();
  rfree_.reserve(cfg_.read_queue_cap);
  for (std::uint64_t i = 0; i < cfg_.read_queue_cap; ++i) {
    rfree_.push_back(static_cast<std::int32_t>(cfg_.read_queue_cap - 1 - i));
  }
  ridx_.init(cfg_.read_queue_cap, n, geo_.num_sags, geo_.num_cds);
  widx_.init(cfg_.write_queue_cap, n, geo_.num_sags, geo_.num_cds);

  bank_cand_.assign(n, BankCand{});
  group_rcand_.assign(n * geo_.num_sags, GroupReadCand{});
  group_wcand_.assign(n * geo_.num_sags, GroupWriteCand{});
  group_dirty_.assign(n * geo_.num_sags, 0);
  bank_dirty_.assign(n, 0);

  inflight_reads_.reserve(cfg_.read_queue_cap);
  completed_.reserve(cfg_.read_queue_cap);
  write_done_times_.reserve(cfg_.bg_write_inflight_max + 1);
  scratch_flags_.reserve(cfg_.read_queue_cap + cfg_.write_queue_cap);
  scratch_ref_flags_.reserve(cfg_.read_queue_cap + cfg_.write_queue_cap);
  scratch_cands_.reserve(cfg_.read_queue_cap + cfg_.write_queue_cap);

  cross_check_ = detail::paranoid_env();
}

template <typename BankT>
std::uint64_t ControllerT<BankT>::sag_group(const mem::DecodedAddr& a) const {
  return (a.rank * geo_.banks_per_rank + a.bank) * geo_.num_sags + a.sag;
}

template <typename BankT>
BankT& ControllerT<BankT>::bank_of(const mem::DecodedAddr& a) {
  return banks_[bank_linear(a)];
}

template <typename BankT>
const BankT& ControllerT<BankT>::bank_of(const mem::DecodedAddr& a) const {
  return banks_[bank_linear(a)];
}

template <typename BankT>
std::int32_t ControllerT<BankT>::alloc_read_slot() {
  assert(!rfree_.empty());
  assert(rpool_.data() == rpool_base_ && "read pool reallocated mid-run");
  const std::int32_t slot = rfree_.back();
  rfree_.pop_back();
  rpool_[static_cast<std::size_t>(slot)].live = true;
  return slot;
}

template <typename BankT>
void ControllerT<BankT>::free_read_slot(std::int32_t slot) {
  rpool_[static_cast<std::size_t>(slot)].live = false;
  rfree_.push_back(slot);
}

template <typename BankT>
bool ControllerT<BankT>::can_accept(OpType op) const {
  if (op == OpType::kRead) return ridx_.size() < cfg_.read_queue_cap;
  return !writes_.full();
}

template <typename BankT>
void ControllerT<BankT>::enqueue(mem::MemRequest req, Cycle now) {
  ne_memo_now_ = kNeverCycle;
  req.arrival = now;
  req.sched_seq = seq_counter_++;
  if (req.is_read()) {
    if (writes_.covers(req.addr.addr)) {
      // Store-to-load forwarding from the write queue: served next cycle.
      req.completion = now + 1;
      completed_.push_back(req);
      bump(h_reads_forwarded_, "reads.forwarded");
      if (!d_read_latency_) {
        d_read_latency_ = &stats_.distribution_ref("read_latency");
      }
      d_read_latency_->add(1.0);
      if (obs_) obs_->on_forwarded();
      return;
    }
    if (ridx_.size() >= cfg_.read_queue_cap) {
      throw std::runtime_error("Controller: read queue overflow");
    }
    if (bank_of(req.addr).segments_sensed(req.addr)) {
      bump(h_reads_row_hit_, "reads.row_hit_arrival");
    }
    const std::int32_t slot = alloc_read_slot();
    rpool_[static_cast<std::size_t>(slot)].req = req;
    const std::uint64_t b = bank_linear(req.addr);
    const std::uint64_t read_mask = ridx_.cd_mask(b);
    ridx_.insert(slot, b, req.addr, req.sched_seq);
    // Both halves: background writes read the group's read count and
    // recency (sag_last_read_).
    mark_group(sag_group(req.addr), kReadHalf | kWriteHalf);
    mark_read_mask_change(b, read_mask);
    last_read_activity_ = now;
    sag_last_read_[sag_group(req.addr)] = now;
    bump(h_reads_accepted_, "reads.accepted");
    if (obs_) obs_->on_enqueue(req, now);
  } else {
    const std::int32_t slot = writes_.add_slot(req);
    if (slot < 0) {
      bump(h_writes_coalesced_, "writes.coalesced");
      if (obs_) obs_->on_coalesced();
    } else {
      widx_.insert(slot, bank_linear(req.addr), req.addr, req.sched_seq);
      mark_group(sag_group(req.addr), kWriteHalf);
      bump(h_writes_accepted_, "writes.accepted");
      if (obs_) obs_->on_enqueue(req, now);
    }
  }
}

template <typename BankT>
void ControllerT<BankT>::maybe_close_row(const mem::DecodedAddr& a, Cycle now) {
  if (cfg_.page_policy != PagePolicy::kClosed) return;
  const std::uint64_t b = bank_linear(a);
  const bool close = ridx_.row_count(b, a.row) == 0 &&
                     widx_.row_count(b, a.row) == 0;
  if (cross_check_) {
    bool ref = true;
    for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
      if (rpool_[static_cast<std::size_t>(s)].req.addr.same_row(a)) {
        ref = false;
        break;
      }
    }
    for (std::int32_t s = writes_.first(); ref && s >= 0; s = writes_.next(s)) {
      if (writes_.at(s).addr.same_row(a)) ref = false;
    }
    if (close != ref) detail::throw_divergence("row-occupancy (maybe_close_row)");
  }
  if (!close) return;  // still wanted
  bank_of(a).close_row(a, now);
  bump(h_cmd_close_row_, "cmd.close_row");
  mark_group(sag_group(a), kReadHalf | kWriteHalf);
}

template <typename BankT>
bool ControllerT<BankT>::write_conflicts_with_reads_reference(
    const mem::DecodedAddr& w) const {
  for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
    const mem::DecodedAddr& a = rpool_[static_cast<std::size_t>(s)].req.addr;
    if (!a.same_bank(w)) continue;
    if (a.sag == w.sag) return true;
    // CD range overlap check.
    const std::uint64_t a_lo = a.cd, a_hi = a.cd + a.cd_count;
    const std::uint64_t w_lo = w.cd, w_hi = w.cd + w.cd_count;
    if (a_lo < w_hi && w_lo < a_hi) return true;
  }
  return false;
}

template <typename BankT>
bool ControllerT<BankT>::write_conflicts_with_reads(
    const mem::DecodedAddr& w) const {
  const std::uint64_t b = bank_linear(w);
  const bool conflict = ridx_.group_count(b * geo_.num_sags + w.sag) > 0 ||
                        ridx_.cd_overlap(b, w.cd, w.cd_count);
  if (cross_check_ && conflict != write_conflicts_with_reads_reference(w)) {
    detail::throw_divergence("SAG/CD conflict test");
  }
  return conflict;
}

// ---------------------------------------------------------------------------
// Read column selection.
//
// Within one selection pass every read candidate probes the bus at the same
// cycle (now + tCAS), so bus availability is uniform across candidates and
// the pre-index arrival-order scan reduces to: bus free -> the oldest
// bank-ready (sensed, column-timing met) read wins; bus busy -> every
// bank-ready read earns the sticky bus_blocked flag and nothing issues.
// Bank-ready reads are exactly the members of the open-row lists of the
// non-empty (bank, SAG) groups (sensed implies open row), so the indexed
// scan touches only eligible rows. With the bus busy a read that already
// carries the flag can neither win nor change state, so the indexed scan
// skips it and reports only the flag transitions (the reference scan's
// list minus already-flagged slots, see try_issue_read_column).
// ---------------------------------------------------------------------------

template <typename BankT>
std::int32_t ControllerT<BankT>::select_read_column_reference(
    Cycle now, std::vector<std::int32_t>& to_flag) const {
  to_flag.clear();
  const Cycle data_start = now + timing_.tCAS;
  for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
    const mem::MemRequest& req = rpool_[static_cast<std::size_t>(s)].req;
    const BankT& bank = bank_of(req.addr);
    if (!bank.segments_sensed(req.addr)) {
      if (cfg_.policy == SchedulerPolicy::kFcfs) return -1;
      continue;
    }
    if (bank.earliest_column(req.addr, OpType::kRead, now) > now) {
      if (cfg_.policy == SchedulerPolicy::kFcfs) return -1;
      continue;
    }
    if (!bus_.available(data_start)) {
      to_flag.push_back(s);
      if (cfg_.policy == SchedulerPolicy::kFcfs) return -1;
      continue;
    }
    return s;
  }
  return -1;
}

template <typename BankT>
std::int32_t ControllerT<BankT>::select_read_column_indexed(
    Cycle now, std::vector<std::int32_t>& to_flag) const {
  to_flag.clear();
  // Inside a refresh window no bank-ready read exists, so nothing issues
  // and nothing is flagged. Outside it refresh_end(now) == now, and every
  // cached gate below stays exact (max(now, x) > now iff x > now).
  if (ridx_.empty() || refresh_end(now) > now) return -1;
  const Cycle data_start = now + timing_.tCAS;
  const bool bus_free = bus_.available(data_start);
  // Column minima that can still act at `now`: a flagged read only matters
  // when it can win, i.e. with the bus free; with the bus busy only an
  // unflagged bank-ready read does anything (it earns the flag).
  const auto col_due = [&](Cycle plain, Cycle flagged) {
    return bus_free ? std::min(plain, flagged) : plain;
  };
  // O(1) out: no bank has a read column candidate due yet, so there is
  // nothing to issue and nothing to flag.
  refresh_global();
  if (col_due(global_cand_.read_col_plain, global_cand_.read_col_flagged) >
      now) {
    return -1;
  }
  if (cfg_.policy == SchedulerPolicy::kFcfs) {
    // FCFS examines the queue head only.
    const std::int32_t s = ridx_.queue_head();
    const BankT& bank = banks_[ridx_.bank_of(s)];
    if (!bank.segments_sensed_key(ridx_.sag(s), ridx_.row_of(s),
                                  ridx_.cds(s))) {
      return -1;
    }
    if (bank.earliest_column_key(ridx_.sag(s), ridx_.cds(s), OpType::kRead,
                                 now) > now) {
      return -1;
    }
    if (!bus_free) {
      if (!ridx_.flagged(s)) to_flag.push_back(s);
      return -1;
    }
    return s;
  }
  const bool bus_ok = bus_free;
  if (bus_ok) {
    // Fast path: the global queue head is min-seq over every candidate, so
    // if it is bank-ready it wins outright (and with the bus free nothing
    // gets flagged). This is the common case for a row-hitting read stream.
    const std::int32_t s = ridx_.queue_head();
    const BankT& bank = banks_[ridx_.bank_of(s)];
    if (bank.segments_sensed_key(ridx_.sag(s), ridx_.row_of(s),
                                 ridx_.cds(s)) &&
        bank.earliest_column_key(ridx_.sag(s), ridx_.cds(s), OpType::kRead,
                                 now) <= now) {
      return s;
    }
  }
  std::int32_t winner = -1;
  std::uint64_t winner_seq = ~0ULL;
  const std::uint64_t nbanks = banks_.size();
  for (std::uint64_t b = 0; b < nbanks; ++b) {
    // If no column minimum of the bank that can act (see col_due) has
    // arrived yet, no member of this bank can issue or be flagged at `now`.
    // refresh_global just made the cached candidates exact.
    if (col_due(bank_cand_[b].read_col_plain,
                bank_cand_[b].read_col_flagged) > now) {
      continue;
    }
    const BankT& bank = banks_[b];
    const Cycle col_floor = bank.column_floor();
    for (const std::uint32_t g : ridx_.active_groups_of_bank(b)) {
      // Same pruning, one group finer, off the group's cached minima with
      // the bank floor applied.
      const GroupReadCand& gc = group_rcand_[g];
      if (std::max(col_floor, col_due(gc.col_plain, gc.col_flagged)) > now) {
        continue;
      }
      // With the bus free nothing gets flagged, and every member of the
      // group is younger than its head — a head already younger than the
      // winner rules out the whole group before any bank probing.
      if (bus_ok && ridx_.seq(ridx_.group_head(g)) >= winner_seq) continue;
      const std::uint64_t sag = g % geo_.num_sags;
      const std::uint64_t row = bank.open_row_of(sag);
      if (row == kInvalidAddr) continue;
      // The group gate passed, so some member's column is due: the
      // member-independent base (floor, SAG lock, sense latch) is <= now,
      // and a member's earliest column is its CD-lock fold over `now`.
      for (std::int32_t s = ridx_.row_head(b, row); s >= 0;
           s = ridx_.row_next(s)) {
        ridx_.prefetch(ridx_.row_next(s));
        // With the bus free nothing gets flagged, so younger-than-winner
        // members can skip the timing probes outright; with it busy nothing
        // wins, so already-flagged members have nothing left to do. Probes
        // are keyed by the index's SoA image; a SAG is a contiguous row
        // range, so every (bank, row) list member shares the group's SAG.
        if (bus_ok ? ridx_.seq(s) >= winner_seq : ridx_.flagged(s)) continue;
        if (!bank.segments_sensed_key(sag, row, ridx_.cds(s))) continue;
        if (bank.column_fold_key(ridx_.cds(s), OpType::kRead, now) > now) {
          continue;
        }
        if (bus_ok) {
          winner_seq = ridx_.seq(s);
          winner = s;
        } else {
          to_flag.push_back(s);
        }
      }
    }
  }
  return winner;
}

template <typename BankT>
void ControllerT<BankT>::verify_pick(const char* what, bool same_pick,
                                     std::vector<std::int32_t>& flags,
                                     std::vector<std::int32_t>& ref_flags) const {
  std::sort(flags.begin(), flags.end());
  std::sort(ref_flags.begin(), ref_flags.end());
  if (!same_pick || flags != ref_flags) detail::throw_divergence(what);
}

template <typename BankT>
void ControllerT<BankT>::apply_read_flags(
    const std::vector<std::int32_t>& slots) {
  for (const std::int32_t s : slots) {
    mem::MemRequest& req = rpool_[static_cast<std::size_t>(s)].req;
    assert(!req.bus_blocked && "selection reports flag transitions only");
    req.bus_blocked = true;
    ridx_.set_flag(s, true);
    mark_group(sag_group(req.addr), kReadHalf);
  }
}

template <typename BankT>
void ControllerT<BankT>::apply_write_flags(
    const std::vector<std::int32_t>& slots) {
  for (const std::int32_t s : slots) {
    mem::MemRequest& w = writes_.at_mut(s);
    assert(!w.bus_blocked && "selection reports flag transitions only");
    w.bus_blocked = true;
    widx_.set_flag(s, true);
    mark_group(sag_group(w.addr), kWriteHalf);
  }
}

template <typename BankT>
bool ControllerT<BankT>::try_issue_read_column(Cycle now) {
  const std::int32_t slot = select_read_column_indexed(now, scratch_flags_);
  if (cross_check_) {
    const std::int32_t ref =
        select_read_column_reference(now, scratch_ref_flags_);
    // The indexed scan reports flag transitions only; re-flagging an
    // already-flagged read is a no-op on state, so drop those slots from
    // the reference list before comparing.
    std::erase_if(scratch_ref_flags_, [&](std::int32_t s) {
      return rpool_[static_cast<std::size_t>(s)].req.bus_blocked;
    });
    verify_pick("read-column selection", slot == ref, scratch_flags_,
                scratch_ref_flags_);
  }
  // Sticky flags, counted once at issue: "bursts delayed by bus contention".
  // next_event folds bus availability into the candidate of a flagged read,
  // so the event loop need not revisit busy cycles.
  apply_read_flags(scratch_flags_);
  if (slot < 0) return false;
  commit_read_column(slot, now);
  return true;
}

template <typename BankT>
void ControllerT<BankT>::commit_read_column(std::int32_t slot, Cycle now) {
  const mem::MemRequest req = rpool_[static_cast<std::size_t>(slot)].req;
  BankT& bank = bank_of(req.addr);
  const Cycle data_start = now + timing_.tCAS;
  if (req.bus_blocked) bump(h_bus_col_conflicts_, "bus.column_conflicts");
  const Cycle burst_start = bank.issue_column(req.addr, OpType::kRead, now);
  assert(burst_start == data_start);
  (void)burst_start;
  bus_.reserve(data_start, timing_.tBURST);
  if (obs_) obs_->on_read_burst(req.id, now, data_start);
  assert(inflight_reads_.empty() ||
         inflight_reads_.back().done <= data_start + timing_.tBURST);
  inflight_reads_.push_back(InFlight{req, data_start + timing_.tBURST});
  sag_last_read_[sag_group(req.addr)] = now;
  const std::uint64_t b = bank_linear(req.addr);
  const std::uint64_t read_mask = ridx_.cd_mask(b);
  ridx_.remove(slot, b);
  free_read_slot(slot);
  // A read column raises only the tCCD window (a floor) and its own SAG's
  // state; the other groups see just the read CD mask.
  mark_group(sag_group(req.addr), kReadHalf | kWriteHalf);
  mark_read_mask_change(b, read_mask);
  bump(h_cmd_read_, "cmd.read");
  maybe_close_row(req.addr, now);
}

// ---------------------------------------------------------------------------
// Read activate selection. Per (bank, sag), only the *oldest* queued read
// may trigger an ACT; this both mirrors the per-SAG row-latch (one pending
// row per SAG) and guarantees the oldest request in a SAG always makes
// progress (no livelock from row-buffer thrashing). The oldest per group is
// the group-list head, so the indexed scan walks the heads of the non-empty
// groups in arrival order instead of the whole queue, and demand
// aggregation reads the (bank, row) list instead of re-scanning the queue
// per head.
// ---------------------------------------------------------------------------

template <typename BankT>
auto ControllerT<BankT>::select_read_activate_reference(Cycle now) const
    -> ActPick {
  for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
    if (!ridx_.is_group_head(s)) continue;  // not oldest in its (bank, SAG)
    const mem::DecodedAddr& a = rpool_[static_cast<std::size_t>(s)].req.addr;
    const BankT& bank = bank_of(a);
    if (bank.segments_sensed(a)) continue;  // waiting on column, not ACT
    std::uint64_t extra_cds = 0;
    if (cfg_.policy == SchedulerPolicy::kFrfcfsAugmented) {
      // Demand-aggregated partial activation: one ACT senses every CD that
      // queued reads to this same row already want (the per-CD CSLs are
      // one-hot, so several can be enabled in a single activation).
      for (std::int32_t o = ridx_.queue_head(); o >= 0;
           o = ridx_.queue_next(o)) {
        const mem::DecodedAddr& oa =
            rpool_[static_cast<std::size_t>(o)].req.addr;
        if (oa.same_row(a)) {
          for (std::uint64_t i = 0; i < oa.cd_count; ++i) {
            extra_cds |= 1ULL << (oa.cd + i);
          }
        }
      }
    }
    if (bank.earliest_activate(a, nvm::ActPurpose::kRead, now, extra_cds) <=
        now) {
      return {s, extra_cds};
    }
    if (cfg_.policy == SchedulerPolicy::kFcfs) return {-1, 0};
  }
  return {-1, 0};
}

template <typename BankT>
auto ControllerT<BankT>::select_read_activate_indexed(Cycle now) const
    -> ActPick {
  if (cfg_.policy == SchedulerPolicy::kFcfs) {
    // FCFS bails out at the first group head that cannot activate —
    // inherently an arrival-order walk, so it runs on the queue list.
    return select_read_activate_reference(now);
  }
  // Selection is side-effect-free, so "first in arrival order that passes"
  // is "min sched_seq among all heads that pass" — no need to sort the
  // heads, just track the running minimum and prune heads that are already
  // younger than the best passing candidate. The global queue head (min-seq
  // over everything, and always its group's head) gets a first look: if it
  // passes, the group scan is skipped entirely.
  // Nothing activates inside a refresh window.
  if (ridx_.empty() || refresh_end(now) > now) return {-1, 0};
  // O(1) out: no group head anywhere can activate yet.
  refresh_global();
  if (global_cand_.read_act > now) return {-1, 0};
  ActPick pick{-1, 0};
  std::uint64_t winner_seq = ~0ULL;
  const bool aug = cfg_.policy == SchedulerPolicy::kFrfcfsAugmented;
  {
    const std::int32_t s = ridx_.queue_head();
    const std::uint64_t b = ridx_.bank_of(s);
    const std::uint64_t sag = ridx_.sag(s);
    const std::uint64_t row = ridx_.row_of(s);
    const BankT& bank = banks_[b];
    if (!bank.segments_sensed_key(sag, row, ridx_.cds(s))) {
      // Demand-aggregated partial activation: the maintained (bank, row)
      // CD mask is exactly the OR the former list walk computed.
      const std::uint64_t extra_cds = aug ? ridx_.row_cds(b, row) : 0;
      if (bank.earliest_activate_key(sag, row, ridx_.cds(s), extra_cds,
                                     nvm::ActPurpose::kRead, now) <= now) {
        return {s, extra_cds};
      }
    }
  }
  const std::uint64_t nbanks = banks_.size();
  for (std::uint64_t b = 0; b < nbanks; ++b) {
    // Banks with no ACT candidate due yet cannot win.
    if (bank_cand_[b].read_act > now) continue;
    const BankT& bank = banks_[b];
    const Cycle act_floor = bank.activate_floor();
    for (const std::uint32_t g : ridx_.active_groups_of_bank(b)) {
      const std::int32_t s = ridx_.group_head(g);
      if (ridx_.seq(s) >= winner_seq) continue;
      // The exact cached ACT candidate is the head's sensed/activate probe,
      // floor applied.
      if (std::max(act_floor, group_rcand_[g].act) > now) continue;
      winner_seq = ridx_.seq(s);
      pick.slot = s;
    }
  }
  // Only the winner needs its demand-aggregated CD mask.
  if (pick.slot >= 0 && aug) {
    pick.extra_cds =
        ridx_.row_cds(ridx_.bank_of(pick.slot), ridx_.row_of(pick.slot));
  }
  return pick;
}

template <typename BankT>
bool ControllerT<BankT>::try_issue_read_activate(Cycle now) {
  const ActPick pick = select_read_activate_indexed(now);
  if (cross_check_ && cfg_.policy != SchedulerPolicy::kFcfs) {
    const ActPick ref = select_read_activate_reference(now);
    if (pick.slot != ref.slot || pick.extra_cds != ref.extra_cds) {
      detail::throw_divergence("read-activate selection");
    }
  }
  if (pick.slot < 0) return false;

  const mem::DecodedAddr& a =
      rpool_[static_cast<std::size_t>(pick.slot)].req.addr;
  BankT& bank = bank_of(a);
  // An underfetch re-sense is an ACT on the already-open row (some CDs
  // the queue wants were not sensed by the earlier activation).
  const bool underfetch = bank.row_open(a);
  const std::uint64_t sensed =
      bank.activate_cds(a.sag, a.row, ridx_.cds(pick.slot), pick.extra_cds);
  bank.issue_activate(a, nvm::ActPurpose::kRead, now, pick.extra_cds);
  const std::uint64_t b = bank_linear(a);
  const std::uint64_t g = sag_group(a);
  mark_group(g, kReadHalf | kWriteHalf);
  mark_cd_locks(b, g, sensed, /*write=*/false);
  bump(h_cmd_act_read_, "cmd.act_read");
  if (obs_) {
    // Stamp the ACT on every queued read this activation now covers —
    // exactly the same-row requests, i.e. the (bank, row) list.
    for (std::int32_t o = ridx_.row_head(b, a.row); o >= 0;
         o = ridx_.row_next(o)) {
      const mem::MemRequest& other = rpool_[static_cast<std::size_t>(o)].req;
      if (bank.segments_sensed(other.addr)) {
        obs_->on_activate(other.id, now, underfetch);
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Write selection. As with reads, only the oldest write per (bank, SAG) may
// change that SAG's open row — otherwise queued writes to different rows of
// one SAG thrash the row latch and re-activate forever. In the pre-index
// arrival walk a write can only act (and only has side effects) when it is
// its group's head (ACT path) or targets its SAG's open row (column path);
// every other write is skipped with no effect. The indexed selection
// therefore gathers exactly those candidates — group heads plus open-row
// list members — and evaluates them in arrival (sched_seq) order with the
// unchanged per-write rules.
// ---------------------------------------------------------------------------

template <typename BankT>
auto ControllerT<BankT>::select_write_reference(
    Cycle now, bool background_only, std::vector<std::int32_t>& to_flag) const
    -> WritePick {
  to_flag.clear();
  const Cycle data_start = now + timing_.tCWD;
  for (std::int32_t s = writes_.first(); s >= 0; s = writes_.next(s)) {
    const mem::MemRequest& w = writes_.at(s);
    const bool oldest_in_group = widx_.is_group_head(s);
    if (background_only) {
      // A backgrounded write must not collide with queued reads (Section-4
      // SAG/CD constraint) nor park itself in a SAG the read stream is
      // actively using — a 150 ns program pulse there stalls the next burst.
      if (write_conflicts_with_reads_reference(w.addr)) continue;
      if (now < sag_last_read_[sag_group(w.addr)] + cfg_.bg_write_guard)
        continue;
    }
    const BankT& bank = bank_of(w.addr);
    if (!bank.row_open(w.addr)) {
      if (oldest_in_group &&
          bank.earliest_activate(w.addr, nvm::ActPurpose::kWrite, now) <= now) {
        return {s, /*activate=*/true};
      }
      continue;
    }
    if (bank.earliest_column(w.addr, OpType::kWrite, now) > now) continue;
    if (!bus_.available(data_start)) {
      to_flag.push_back(s);
      continue;
    }
    return {s, /*activate=*/false};
  }
  return {-1, false};
}

template <typename BankT>
auto ControllerT<BankT>::select_write_indexed(
    Cycle now, bool background_only, std::vector<std::int32_t>& to_flag) const
    -> WritePick {
  to_flag.clear();
  // Nothing activates or issues a column inside a refresh window.
  if (widx_.empty() || refresh_end(now) > now) return {-1, false};
  const Cycle data_start = now + timing_.tCWD;
  const bool bus_ok = bus_.available(data_start);
  // Write minima that can still act at `now` under this drain mode's
  // filters. ACT candidates live in the plain minima; a flagged column
  // write only matters when it can win, i.e. with the bus free.
  const auto write_due_col = [&](Cycle plain, Cycle flagged) {
    return bus_ok ? std::min(plain, flagged) : plain;
  };
  const auto write_due = [&](Cycle plain, Cycle flagged, Cycle bg_plain,
                             Cycle bg_flagged) {
    return background_only ? write_due_col(bg_plain, bg_flagged)
                           : write_due_col(plain, flagged);
  };
  // O(1) out: no write that can act is due yet on any bank — nothing to
  // pick, nothing to flag.
  refresh_global();
  if (write_due(global_cand_.write_plain, global_cand_.write_flagged,
                global_cand_.write_bg_plain, global_cand_.write_bg_flagged) >
      now) {
    return {-1, false};
  }
  // As in read selection, the pass is side-effect-free and bus availability
  // is uniform across candidates, so the arrival-order winner is the min
  // sched_seq passing candidate and no gather/sort is needed. The
  // background-write SAG-conflict and read-recency-guard tests depend only
  // on the (bank, SAG) group, so they filter whole groups before any
  // per-write work; only the CD-overlap test is per-write.
  {
    // Fast path: the write-queue head is min-seq over every candidate and
    // always its group's head, so if it passes it wins outright — and no
    // flag can precede the arrival-order winner, so to_flag stays empty.
    const std::int32_t h = widx_.queue_head();
    const std::uint64_t b = widx_.bank_of(h);
    const std::uint64_t sag = widx_.sag(h);
    const std::uint64_t row = widx_.row_of(h);
    const std::uint64_t g = b * geo_.num_sags + sag;
    const bool bg_ok =
        !background_only ||
        (ridx_.group_count(g) == 0 &&
         now >= sag_last_read_[g] + cfg_.bg_write_guard &&
         !ridx_.cd_overlap_mask(b, widx_.cds(h)));
    if (bg_ok) {
      const BankT& bank = banks_[b];
      if (bank.open_row_of(sag) != row) {
        if (bank.earliest_activate_key(sag, row, 0, 0,
                                       nvm::ActPurpose::kWrite, now) <= now) {
          return {h, /*activate=*/true};
        }
      } else if (bus_ok && bank.earliest_column_key(sag, widx_.cds(h),
                                                    OpType::kWrite, now) <=
                               now) {
        return {h, /*activate=*/false};
      }
    }
  }
  WritePick pick{-1, false};
  std::uint64_t winner_seq = ~0ULL;
  const std::uint64_t nbanks = banks_.size();
  for (std::uint64_t b = 0; b < nbanks; ++b) {
    // Banks whose cached write minima (guard folded for the background
    // path) have not arrived yet cannot contribute a winner or a flag.
    const BankCand& c = bank_cand_[b];
    if (write_due(c.write_plain, c.write_flagged, c.write_bg_plain,
                  c.write_bg_flagged) > now) {
      continue;
    }
    const BankT& bank = banks_[b];
    const Cycle act_floor = bank.activate_floor();
    const Cycle col_floor = bank.column_floor();
    for (const std::uint32_t g : widx_.active_groups_of_bank(b)) {
      // Same pruning, one group finer and per half: the head's ACT and the
      // open-row columns sit behind different floors, so a half that is
      // not due yet skips its probes (the row-hash probe and member walk
      // for the columns), and a group with neither half due costs a few
      // loads.
      const GroupWriteCand& gc = group_wcand_[g];
      const bool act_due =
          std::max(act_floor, background_only ? gc.bg_act : gc.act) <= now;
      const bool col_due =
          std::max(col_floor,
                   background_only
                       ? write_due_col(gc.bg_col_plain, gc.bg_col_flagged)
                       : write_due_col(gc.col_plain, gc.col_flagged)) <= now;
      if (!act_due && !col_due) continue;
      if (background_only) {
        // ridx_ and widx_ share the group-id space (bank * num_sags + sag),
        // and sag_group(w.addr) == g for every member of g.
        if (ridx_.group_count(g) > 0) continue;
        if (now < sag_last_read_[g] + cfg_.bg_write_guard) continue;
      }
      const std::int32_t head = widx_.group_head(g);
      // With the bus free nothing gets flagged, and the head is the group's
      // min seq — both the ACT candidate (the head itself) and every column
      // member need seq < winner_seq, so a late head rules out the group.
      if (bus_ok && widx_.seq(head) >= winner_seq) continue;
      // row_open(a) is open_row_of(a.sag) == a.row for every bank kind, and
      // all group members share the SAG — one probe covers the group.
      const std::uint64_t sag = g % geo_.num_sags;
      const std::uint64_t row = bank.open_row_of(sag);
      if (act_due && widx_.row_of(head) != row) {
        // Only the group head may activate; a head on the open row never
        // activates. (Younger group members on the open row are still
        // column candidates below.)
        if (widx_.seq(head) < winner_seq &&
            !(background_only &&
              ridx_.cd_overlap_mask(b, widx_.cds(head))) &&
            bank.earliest_activate_key(sag, widx_.row_of(head), 0, 0,
                                       nvm::ActPurpose::kWrite, now) <= now) {
          winner_seq = widx_.seq(head);
          pick = {head, /*activate=*/true};
        }
      }
      if (!col_due || row == kInvalidAddr) continue;
      // As in read selection, the passed gate puts the column base at or
      // before `now`, so only the members' CD locks remain to check.
      for (std::int32_t s = widx_.row_head(b, row); s >= 0;
           s = widx_.row_next(s)) {
        widx_.prefetch(widx_.row_next(s));
        // With the bus free nothing gets flagged, so younger-than-winner
        // members can skip the timing probes outright; with it busy a column
        // cannot win, so already-flagged members have nothing left to do. A
        // SAG is a contiguous row range, so every (bank, row) list member
        // shares the group's SAG.
        if (bus_ok ? widx_.seq(s) >= winner_seq : widx_.flagged(s)) continue;
        if (background_only && ridx_.cd_overlap_mask(b, widx_.cds(s))) {
          continue;
        }
        if (bank.column_fold_key(widx_.cds(s), OpType::kWrite, now) > now) {
          continue;
        }
        if (!bus_ok) {
          to_flag.push_back(s);
        } else {
          winner_seq = widx_.seq(s);
          pick = {s, /*activate=*/false};
        }
      }
    }
  }
  // The reference arrival walk stops flagging at the winner (which, with
  // the bus busy, can only be an ACT), so drop flags younger than it. An
  // equal seq is impossible: a flagged write never wins.
  if (pick.slot >= 0 && !to_flag.empty()) {
    std::erase_if(to_flag, [&](std::int32_t s) {
      return widx_.seq(s) > winner_seq;
    });
  }
  return pick;
}

template <typename BankT>
bool ControllerT<BankT>::try_issue_write(Cycle now, bool background_only) {
  const WritePick pick =
      select_write_indexed(now, background_only, scratch_flags_);
  if (cross_check_) {
    const WritePick ref =
        select_write_reference(now, background_only, scratch_ref_flags_);
    // Compare flag transitions only, as in try_issue_read_column.
    std::erase_if(scratch_ref_flags_, [&](std::int32_t s) {
      return writes_.at(s).bus_blocked;
    });
    verify_pick("write selection",
                pick.slot == ref.slot && pick.activate == ref.activate,
                scratch_flags_, scratch_ref_flags_);
  }
  apply_write_flags(scratch_flags_);
  if (pick.slot < 0) return false;

  if (pick.activate) {
    const mem::MemRequest& w = writes_.at(pick.slot);
    BankT& bank = bank_of(w.addr);
    bank.issue_activate(w.addr, nvm::ActPurpose::kWrite, now);
    // The bank-wide ACT lock (Multi-Activation off) is a floor.
    mark_group(sag_group(w.addr), kReadHalf | kWriteHalf);
    bump(h_cmd_act_write_, "cmd.act_write");
    if (obs_) obs_->on_activate(w.id, now, /*underfetch=*/false);
    return true;
  }

  commit_write_column(pick.slot, now, background_only);
  return true;
}

template <typename BankT>
void ControllerT<BankT>::commit_write_column(std::int32_t slot, Cycle now,
                                             bool background_only) {
  const mem::MemRequest w = writes_.at(slot);
  BankT& bank = bank_of(w.addr);
  const Cycle data_start = now + timing_.tCWD;
  if (w.bus_blocked) bump(h_bus_col_conflicts_, "bus.column_conflicts");
  const Cycle done = bank.issue_column(w.addr, OpType::kWrite, now);
  assert(write_done_times_.empty() || write_done_times_.back() <= done);
  write_done_times_.push_back(done);
  bus_.reserve(data_start, timing_.tBURST);
  if (obs_) obs_->on_write_issue(w.id, now, done);
  const std::uint64_t b = bank_linear(w.addr);
  const std::uint64_t g = sag_group(w.addr);
  const std::uint64_t cds = widx_.cds(slot);
  widx_.remove(slot, b);
  writes_.remove_slot(slot);
  // The non-background bank lock and tCCD are floors; the write's CD locks
  // reach the other groups that wait on those CDs.
  mark_group(g, kReadHalf | kWriteHalf);
  mark_cd_locks(b, g, cds, /*write=*/true);
  bump(background_only ? h_cmd_write_bg_ : h_cmd_write_drain_,
       background_only ? "cmd.write_background" : "cmd.write_drain");
  bump(h_cmd_write_, "cmd.write");
  // Closed-page: the write's row closes once the program completes.
  if (cfg_.page_policy == PagePolicy::kClosed) maybe_close_row(w.addr, done);
}

template <typename BankT>
bool ControllerT<BankT>::try_issue(Cycle now, bool& write_done) {
  const bool draining = writes_.draining();
  const bool idle_reads = ridx_.empty();

  const auto issue_write = [&](bool background_only) {
    if (write_done) return false;
    if (try_issue_write(now, background_only)) {
      write_done = true;
      return true;
    }
    return false;
  };

  if (draining) {
    if (issue_write(/*background_only=*/false)) return true;
    if (try_issue_read_column(now)) return true;
    return try_issue_read_activate(now);
  }
  if (try_issue_read_column(now)) return true;
  if (try_issue_read_activate(now)) return true;
  if (cfg_.policy == SchedulerPolicy::kFrfcfsAugmented &&
      writes_.size() >= cfg_.bg_write_min &&
      live_writes(now) < cfg_.bg_write_inflight_max) {
    // Backgrounded Writes: slip writes under pending reads whenever the
    // target (bank, SAG, CD) is disjoint from every queued read. The
    // occupancy floor preserves the coalescing window — draining writes the
    // moment they arrive forfeits merges with imminent rewrites.
    if (issue_write(/*background_only=*/true)) return true;
  }
  if (idle_reads && inflight_reads_.empty() && !writes_.empty()) {
    // Conventional opportunistic drain while the read stream is idle — but
    // only once enough writes accumulated or the stream has been quiet for
    // a while; dribbling single writes out eagerly trashes open rows the
    // read stream is about to revisit.
    const bool quiet =
        now >= last_read_activity_ + cfg_.drain_idle_timeout;
    if (writes_.size() >= cfg_.wq_low || quiet) {
      return issue_write(/*background_only=*/false);
    }
  }
  return false;
}

template <typename BankT>
void ControllerT<BankT>::retire_reads(Cycle now) {
  // Retire finished read bursts in issue order (so the Welford latency
  // accumulation stays bit-identical across drivers): the in-flight FIFO's
  // done times rise in issue order, so the finished bursts are a prefix.
  auto it = inflight_reads_.begin();
  for (; it != inflight_reads_.end() && it->done <= now; ++it) {
    it->req.completion = it->done;
    const double latency = static_cast<double>(it->done - it->req.arrival);
    if (!d_read_latency_) {
      d_read_latency_ = &stats_.distribution_ref("read_latency");
    }
    d_read_latency_->add(latency);
    if (!h_read_latency_hist_) {
      h_read_latency_hist_ = &stats_.histogram_ref("read_latency_hist");
    }
    h_read_latency_hist_->add(latency);
    if (obs_) obs_->on_read_complete(it->req.id, it->done);
    completed_.push_back(it->req);
  }
  inflight_reads_.erase(inflight_reads_.begin(), it);
}

template <typename BankT>
void ControllerT<BankT>::tick(Cycle now) {
  // Charge the span since the previous tick to each traced request's pending
  // cause before any state changes this cycle.
  if (obs_) obs_->close_spans(now);
  ne_memo_now_ = kNeverCycle;

  retire_reads(now);
  write_done_times_.erase(write_done_times_.begin(), live_writes_begin(now));

  writes_.update_drain();
  bool write_done = false;
  for (std::uint64_t slot = 0; slot < cfg_.issue_width; ++slot) {
    if (!try_issue(now, write_done)) break;
  }

  if (obs_) observe_blocking(now);
}

template <typename BankT>
Cycle ControllerT<BankT>::advance_to(Cycle due, Cycle horizon) {
  // Exactly the serial lazy schedule restricted to this channel: in that
  // schedule the channel ticks at cycle w iff its cached due equals w, and
  // each tick re-arms due from next_event — i.e. the channel walks its own
  // event chain. Pending completions only short-circuit next_event to
  // "wake the caller", never enable an earlier command issue, so the chain
  // is computed with next_event_internal and the buffered completions are
  // delivered by the caller at the horizon (in channel order). Ticks the
  // serial schedule would run at completion-delivery cycles inside the
  // window are no-op ticks by the next_event contract and are skipped.
  while (due < horizon) {
    tick(due);
    due = next_event_internal(due);
  }
  return due;
}

template <typename BankT>
Cycle ControllerT<BankT>::advance_until_accept(Cycle due, OpType op,
                                               Cycle horizon) {
  // Same chain walk as advance_to, but the stopping condition is "capacity
  // for `op` freed up": the driver submits at (freeing tick) + 1, exactly
  // where the serial schedule would re-test can_accept before ticking.
  while (due < horizon && !can_accept(op)) {
    tick(due);
    if (can_accept(op)) return due + 1;
    due = next_event_internal(due);
  }
  return due;
}

template <typename BankT>
Cycle ControllerT<BankT>::completion_bound(Cycle now) const {
  if (!completed_.empty()) return now + 1;
  // The tick at a burst's `done` retires the read; the caller drains it
  // one cycle later.
  Cycle bound = inflight_reads_.empty() ? kNeverCycle
                                        : inflight_reads_.front().done + 1;
  if (!ridx_.empty()) {
    // A queued read's burst cannot start before the channel's next state
    // change (its column issue is a state change), so it retires at least
    // next_event + tCAS + tBURST. No enqueues happen while the caller
    // waits, so store-to-load forwarding cannot create an earlier one.
    const Cycle ne = next_event_internal(now);
    if (ne != kNeverCycle) {
      bound = std::min(bound, ne + timing_.tCAS + timing_.tBURST + 1);
    }
  }
  if (bound == kNeverCycle) return kNeverCycle;
  return std::max(bound, now + 1);
}

template <typename BankT>
void ControllerT<BankT>::observe_blocking(Cycle now) {
  using obs::BlockCause;
  // Post-issue classification: everything still queued here failed to issue
  // this tick; the bank state now reflects whatever did issue, so the cause
  // read off the bank is the one that will hold until the next event.
  bool head = true;
  for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
    const mem::MemRequest& r = rpool_[static_cast<std::size_t>(s)].req;
    const mem::DecodedAddr& a = r.addr;
    const bool oldest = ridx_.is_group_head(s);
    if (cfg_.policy == SchedulerPolicy::kFcfs && !head) {
      // FCFS serves strictly in order: everything behind the head waits on
      // the queue discipline, whatever the banks look like.
      obs_->set_cause(r.id, BlockCause::kQueuePolicy, now);
      continue;
    }
    head = false;
    const BankT& bank = bank_of(a);
    BlockCause cause;
    if (bank.segments_sensed(a)) {
      cause = bank.column_block_cause(a, OpType::kRead, now);
      if (cause == BlockCause::kNone) {
        cause = bus_.available(now + timing_.tCAS) ? BlockCause::kQueuePolicy
                                                   : BlockCause::kBusConflict;
      }
    } else if (!oldest) {
      cause = BlockCause::kQueuePolicy;  // an older read owns this SAG's ACT
    } else {
      cause = bank.activate_block_cause(a, nvm::ActPurpose::kRead, now);
      if (cause == BlockCause::kNone) cause = BlockCause::kQueuePolicy;
    }
    obs_->set_cause(r.id, cause, now);
  }

  if (writes_.empty()) return;
  const bool draining = writes_.draining();
  const bool idle_path = !draining && ridx_.empty() &&
                         inflight_reads_.empty() &&
                         (writes_.size() >= cfg_.wq_low ||
                          now >= last_read_activity_ + cfg_.drain_idle_timeout);
  const bool bg_path = !draining &&
                       cfg_.policy == SchedulerPolicy::kFrfcfsAugmented &&
                       writes_.size() >= cfg_.bg_write_min &&
                       live_writes(now) < cfg_.bg_write_inflight_max;
  for (std::int32_t s = writes_.first(); s >= 0; s = writes_.next(s)) {
    const mem::MemRequest& w = writes_.at(s);
    const bool oldest = widx_.is_group_head(s);
    bool eligible = draining || idle_path;
    if (!eligible && bg_path && !write_conflicts_with_reads(w.addr) &&
        now >= sag_last_read_[sag_group(w.addr)] + cfg_.bg_write_guard) {
      eligible = true;
    }
    BlockCause cause = BlockCause::kQueuePolicy;
    if (eligible) {
      const BankT& bank = bank_of(w.addr);
      if (bank.row_open(w.addr)) {
        cause = bank.column_block_cause(w.addr, OpType::kWrite, now);
        if (cause == BlockCause::kNone) {
          cause = bus_.available(now + timing_.tCWD)
                      ? BlockCause::kQueuePolicy
                      : BlockCause::kBusConflict;
        }
      } else if (oldest) {
        cause = bank.activate_block_cause(w.addr, nvm::ActPurpose::kWrite, now);
        if (cause == BlockCause::kNone) cause = BlockCause::kQueuePolicy;
      }
    }
    obs_->set_cause(w.id, cause, now);
  }
}

template <typename BankT>
void ControllerT<BankT>::sample_obs(Cycle now, obs::ChannelSample& s) const {
  s.read_q += ridx_.size();
  s.write_q += writes_.size();
  s.inflight += inflight_reads_.size();
  const std::uint64_t nbanks = banks_.size();
  s.banks += nbanks;
  for (std::uint64_t b = 0; b < nbanks; ++b) {
    s.max_bank_q = std::max(s.max_bank_q, ridx_.bank_count(b));
  }
  for (const BankT& bank : banks_) {
    s.open_acts += bank.active_sags(now);
    s.busy_tiles += bank.active_cds(now);
  }
  // A CD serves one (SAG, CD) tile group at a time, so the number of tile
  // groups usable concurrently — the utilization denominator — is the CD
  // count, not SAGs x CDs.
  s.tile_groups += nbanks * geo_.num_cds;
}

template <typename BankT>
nvm::BankStats ControllerT<BankT>::bank_totals() const {
  nvm::BankStats total;
  for (const BankT& bank : banks_) total += bank.stats();
  return total;
}

template <typename BankT>
nvm::EnergyBreakdown ControllerT<BankT>::energy(const nvm::EnergyModel& model,
                                                Cycle elapsed) const {
  nvm::EnergyBreakdown sum;
  for (const BankT& bank : banks_) {
    sum += model.bank_energy(bank.stats(), elapsed);
  }
  return sum;
}

template <typename BankT>
void ControllerT<BankT>::drain_completed(std::vector<mem::MemRequest>& out) {
  out.insert(out.end(), completed_.begin(), completed_.end());
  completed_.clear();
}

template <typename BankT>
bool ControllerT<BankT>::idle() const {
  return ridx_.empty() && writes_.empty() && inflight_reads_.empty() &&
         completed_.empty();
}

// ---------------------------------------------------------------------------
// next_event. The contract (see DESIGN.md §6): the returned cycle must never
// overshoot the first cycle > now at which tick() would change any state or
// stat. It may undershoot (an early wake-up is a harmless no-op tick).
//
// The indexed implementation serves candidate minima from a per-(bank, SAG)
// group cache (recomputed only for the group halves a mutation touched,
// DESIGN.md §8), folds them per bank under the bank floors and over all
// banks, and applies the query-time globals — t0 clamp, bus readiness for
// flagged candidates, drain/idle/background gates — on top. That is exact
// because every global or floor G combines as
// min_i max(c_i, G) == max(min_i c_i, G). FCFS read scans stop at the queue
// head, which does not decompose per bank, so FCFS uses the reference walk.
// ---------------------------------------------------------------------------

template <typename BankT>
void ControllerT<BankT>::mark_read_mask_change(std::uint64_t b,
                                               std::uint64_t mask_before) const {
  // Only FRFCFS_AUG fills the background-write entries that filter on it.
  if (cfg_.policy != SchedulerPolicy::kFrfcfsAugmented ||
      ridx_.cd_mask(b) == mask_before) {
    return;
  }
  for (const std::uint32_t g : widx_.active_groups_of_bank(b)) {
    mark_group(g, kWriteHalf);
  }
}

template <typename BankT>
void ControllerT<BankT>::mark_cd_locks(std::uint64_t b, std::uint64_t g,
                                       std::uint64_t cds, bool write) const {
  // A clean entry is exact, so its cached CD sets say whether the new
  // locks reach it; a dirty one is recomputed anyway. Read ACTs wait on
  // both kinds of lock of the CDs they sense, write columns on both kinds
  // of their line's CDs, read columns only on CD write locks.
  for (const std::uint32_t o : ridx_.active_groups_of_bank(b)) {
    const GroupReadCand& c = group_rcand_[o];
    const std::uint64_t waits = c.act_cds | (write ? c.col_cds : 0);
    if (o != g && (waits & cds) != 0) mark_group(o, kReadHalf);
  }
  for (const std::uint32_t o : widx_.active_groups_of_bank(b)) {
    if (o != g && (group_wcand_[o].col_cds & cds) != 0) {
      mark_group(o, kWriteHalf);
    }
  }
}

template <typename BankT>
auto ControllerT<BankT>::compute_read_group(std::uint64_t b,
                                            std::uint32_t g) const
    -> GroupReadCand {
  GroupReadCand gc;
  const BankT& bank = banks_[b];
  const std::int32_t head = ridx_.group_head(g);
  const std::uint64_t sag = g % geo_.num_sags;
  const std::uint64_t hrow = ridx_.row_of(head);
  if (!bank.segments_sensed_key(sag, hrow, ridx_.cds(head))) {
    // The maintained (bank, row) CD mask replaces the per-head row-list
    // walk the demand aggregation used to do.
    const std::uint64_t extra_cds =
        cfg_.policy == SchedulerPolicy::kFrfcfsAugmented
            ? ridx_.row_cds(b, hrow)
            : 0;
    gc.act = bank.activate_sag_key(sag, hrow, ridx_.cds(head), extra_cds,
                                   nvm::ActPurpose::kRead, 0);
    gc.act_cds = bank.activate_cds(sag, hrow, ridx_.cds(head), extra_cds);
  }
  const std::uint64_t row = bank.open_row_of(sag);
  if (row == kInvalidAddr) return gc;
  // Candidates are minima at t = 0, so no early-out — but the member-
  // independent base still hoists out of the walk.
  const Cycle col_base = bank.column_sag_key(sag, OpType::kRead, 0);
  for (std::int32_t s = ridx_.row_head(b, row); s >= 0; s = ridx_.row_next(s)) {
    ridx_.prefetch(ridx_.row_next(s));
    if (!bank.segments_sensed_key(sag, row, ridx_.cds(s))) continue;
    gc.col_cds |= ridx_.cds(s);
    const Cycle e = bank.column_fold_key(ridx_.cds(s), OpType::kRead, col_base);
    Cycle& tgt = ridx_.flagged(s) ? gc.col_flagged : gc.col_plain;
    tgt = std::min(tgt, e);
  }
  return gc;
}

template <typename BankT>
auto ControllerT<BankT>::compute_write_group(std::uint64_t b,
                                             std::uint32_t g) const
    -> GroupWriteCand {
  GroupWriteCand gc;
  const BankT& bank = banks_[b];
  const std::int32_t head = widx_.group_head(g);
  // The background SAG-conflict half of write_conflicts_with_reads is
  // uniform across the group (shared group-id space with ridx_); only the
  // CD-overlap half is per-write.
  const bool bg_group = cfg_.policy == SchedulerPolicy::kFrfcfsAugmented &&
                        ridx_.group_count(g) == 0;
  const Cycle guard = sag_last_read_[g] + cfg_.bg_write_guard;
  // row_open(a) is open_row_of(a.sag) == a.row for every bank kind — one
  // probe covers the whole group.
  const std::uint64_t sag = g % geo_.num_sags;
  const std::uint64_t row = bank.open_row_of(sag);
  if (widx_.row_of(head) != row) {
    gc.act = bank.activate_sag_key(sag, widx_.row_of(head), 0, 0,
                                   nvm::ActPurpose::kWrite, 0);
    if (bg_group && !ridx_.cd_overlap_mask(b, widx_.cds(head))) {
      gc.bg_act = std::max(gc.act, guard);
    }
  }
  if (row == kInvalidAddr) return gc;
  const Cycle col_base = bank.column_sag_key(sag, OpType::kWrite, 0);
  for (std::int32_t s = widx_.row_head(b, row); s >= 0; s = widx_.row_next(s)) {
    widx_.prefetch(widx_.row_next(s));
    const bool flg = widx_.flagged(s);
    gc.col_cds |= widx_.cds(s);
    const Cycle e =
        bank.column_fold_key(widx_.cds(s), OpType::kWrite, col_base);
    Cycle& tgt = flg ? gc.col_flagged : gc.col_plain;
    tgt = std::min(tgt, e);
    if (bg_group && !ridx_.cd_overlap_mask(b, widx_.cds(s))) {
      Cycle& bg = flg ? gc.bg_col_flagged : gc.bg_col_plain;
      bg = std::min(bg, std::max(e, guard));
    }
  }
  return gc;
}

template <typename BankT>
void ControllerT<BankT>::refresh_bank(std::uint64_t b) const {
  // One pass per half recomputes the dirty entries and folds every active
  // group's floor-free minima; the bank floors go on top. Exact, since
  // max(floor, min_g x_g) == min_g max(floor, x_g).
  GroupReadCand r;
  for (const std::uint32_t g : ridx_.active_groups_of_bank(b)) {
    GroupReadCand& c = group_rcand_[g];
    if ((group_dirty_[g] & kReadHalf) != 0) {
      c = compute_read_group(b, g);
      group_dirty_[g] &= static_cast<std::uint8_t>(~kReadHalf);
    }
    r.col_plain = std::min(r.col_plain, c.col_plain);
    r.col_flagged = std::min(r.col_flagged, c.col_flagged);
    r.act = std::min(r.act, c.act);
  }
  GroupWriteCand w;
  for (const std::uint32_t g : widx_.active_groups_of_bank(b)) {
    GroupWriteCand& c = group_wcand_[g];
    if ((group_dirty_[g] & kWriteHalf) != 0) {
      c = compute_write_group(b, g);
      group_dirty_[g] &= static_cast<std::uint8_t>(~kWriteHalf);
    }
    w.act = std::min(w.act, c.act);
    w.bg_act = std::min(w.bg_act, c.bg_act);
    w.col_plain = std::min(w.col_plain, c.col_plain);
    w.col_flagged = std::min(w.col_flagged, c.col_flagged);
    w.bg_col_plain = std::min(w.bg_col_plain, c.bg_col_plain);
    w.bg_col_flagged = std::min(w.bg_col_flagged, c.bg_col_flagged);
  }
  const BankT& bank = banks_[b];
  const Cycle cf = bank.column_floor();
  const Cycle af = bank.activate_floor();
  // Write ACTs and write columns join the plain minima once floored.
  bank_cand_[b] = {
      std::max(r.col_plain, cf),
      std::max(r.col_flagged, cf),
      std::max(r.act, af),
      std::min(std::max(w.act, af), std::max(w.col_plain, cf)),
      std::max(w.col_flagged, cf),
      std::min(std::max(w.bg_act, af), std::max(w.bg_col_plain, cf)),
      std::max(w.bg_col_flagged, cf)};
  bank_dirty_[b] = 0;
}

template <typename BankT>
void ControllerT<BankT>::fold_min(BankCand& acc, const BankCand& c) {
  acc.read_col_plain = std::min(acc.read_col_plain, c.read_col_plain);
  acc.read_col_flagged = std::min(acc.read_col_flagged, c.read_col_flagged);
  acc.read_act = std::min(acc.read_act, c.read_act);
  acc.write_plain = std::min(acc.write_plain, c.write_plain);
  acc.write_flagged = std::min(acc.write_flagged, c.write_flagged);
  acc.write_bg_plain = std::min(acc.write_bg_plain, c.write_bg_plain);
  acc.write_bg_flagged = std::min(acc.write_bg_flagged, c.write_bg_flagged);
}

template <typename BankT>
void ControllerT<BankT>::refresh_global() const {
  // Candidates computed at t = 0 stay valid at any later query (the
  // pure-timing clamp identity), so dirty groups can be refreshed mid-tick,
  // right after an issue, and the fold below bounds every selector until
  // the next mark.
  if (global_valid_) return;
  const std::uint64_t nbanks = banks_.size();
  BankCand f;
  for (std::uint64_t b = 0; b < nbanks; ++b) {
    if (bank_dirty_[b]) refresh_bank(b);
    fold_min(f, bank_cand_[b]);
  }
  global_cand_ = f;
  global_valid_ = true;
  if (cross_check_) audit_cand_cache();
}

template <typename BankT>
void ControllerT<BankT>::audit_cand_cache() const {
  // The pick and next_event oracles catch a stale entry only once it
  // changes a decision; this catches it the moment it is served.
  const auto check = [](std::uint64_t b, std::uint64_t g, const char* field,
                        std::uint64_t cached, std::uint64_t fresh) {
    if (cached == fresh) return;
    detail::throw_divergence("candidate cache entry (bank " +
                             std::to_string(b) + ", group " +
                             std::to_string(g) + ", " + field + ")");
  };
  const std::uint64_t nbanks = banks_.size();
  for (std::uint64_t b = 0; b < nbanks; ++b) {
    for (const std::uint32_t g : ridx_.active_groups_of_bank(b)) {
      const GroupReadCand& c = group_rcand_[g];
      const GroupReadCand f = compute_read_group(b, g);
      check(b, g, "read col_plain", c.col_plain, f.col_plain);
      check(b, g, "read col_flagged", c.col_flagged, f.col_flagged);
      check(b, g, "read act", c.act, f.act);
      check(b, g, "read act_cds", c.act_cds, f.act_cds);
      check(b, g, "read col_cds", c.col_cds, f.col_cds);
    }
    for (const std::uint32_t g : widx_.active_groups_of_bank(b)) {
      const GroupWriteCand& c = group_wcand_[g];
      const GroupWriteCand f = compute_write_group(b, g);
      check(b, g, "write act", c.act, f.act);
      check(b, g, "write bg_act", c.bg_act, f.bg_act);
      check(b, g, "write col_plain", c.col_plain, f.col_plain);
      check(b, g, "write col_flagged", c.col_flagged, f.col_flagged);
      check(b, g, "write bg_col_plain", c.bg_col_plain, f.bg_col_plain);
      check(b, g, "write bg_col_flagged", c.bg_col_flagged, f.bg_col_flagged);
      check(b, g, "write col_cds", c.col_cds, f.col_cds);
    }
    // Every group is clean here, so this is a pure refold.
    const BankCand cached = bank_cand_[b];
    refresh_bank(b);
    if (!(bank_cand_[b] == cached)) {
      detail::throw_divergence("candidate cache bank fold (bank " +
                               std::to_string(b) + ")");
    }
  }
}

template <typename BankT>
Cycle ControllerT<BankT>::next_event_indexed(Cycle now) const {
  const Cycle t0 = now + 1;
  // A pending drain-latch flip is applied by the next tick's update_drain;
  // the flip itself is the event (see WriteQueue::drain_update_pending).
  if (writes_.drain_update_pending()) return t0;
  Cycle next = kNeverCycle;
  const auto consider = [&](Cycle cand) {
    next = std::min(next, std::max(cand, t0));
  };

  // The in-flight FIFO's front is its earliest burst end.
  if (!inflight_reads_.empty()) {
    consider(inflight_reads_.front().done);
    if (next == t0) return t0;  // no earlier actionable cycle exists
  }

  // Every gate below is a query-time global, uniform across banks, so it
  // applies to refresh_global's fold of the bank candidates. The channel's
  // refresh window is one of them; it gates bank commands only, not the
  // in-flight completions above or the drain flip.
  refresh_global();
  const BankCand& c = global_cand_;
  const Cycle r = refresh_end(t0);
  const auto consider_bank = [&](Cycle cand) {
    next = std::min(next, std::max(cand, r));
  };

  // The first time a bank-ready read meets a busy bus, tick() sets its
  // sticky bus_blocked flag — a state change, so the candidate of an
  // unflagged read must NOT fold in bus availability (the wake at
  // bank-ready is where the flag gets set). Once flagged, nothing changes
  // until a lane frees up, so the candidate is the conjunction of bank and
  // bus readiness.
  const Cycle bus_read_ready =
      bus_.earliest_start(t0 + timing_.tCAS) - timing_.tCAS;
  consider_bank(c.read_col_plain);
  consider_bank(std::max(c.read_col_flagged, bus_read_ready));
  consider_bank(c.read_act);
  if (next == t0 || writes_.empty()) return next;

  const bool draining = writes_.draining();
  const bool idle_path = !draining && ridx_.empty() && inflight_reads_.empty();
  // Low-occupancy idle drains additionally wait for the read stream to
  // have been quiet for drain_idle_timeout.
  Cycle idle_gate = 0;
  if (idle_path && writes_.size() < cfg_.wq_low) {
    idle_gate = last_read_activity_ + cfg_.drain_idle_timeout;
  }
  const bool bg_path = !draining &&
                       cfg_.policy == SchedulerPolicy::kFrfcfsAugmented &&
                       writes_.size() >= cfg_.bg_write_min;
  // Backgrounded writes stall at the in-flight cap until the earliest
  // program pulse finishes: the front of the live FIFO suffix.
  Cycle bg_gate = 0;
  if (bg_path && live_writes(now) >= cfg_.bg_write_inflight_max) {
    bg_gate = *live_writes_begin(now);
  }
  const Cycle bus_write_ready =
      bus_.earliest_start(t0 + timing_.tCWD) - timing_.tCWD;
  if (draining || idle_path) {
    consider_bank(std::max(c.write_plain, idle_gate));
    consider_bank(std::max({c.write_flagged, bus_write_ready, idle_gate}));
  }
  if (bg_path) {
    consider_bank(std::max(c.write_bg_plain, bg_gate));
    consider_bank(std::max({c.write_bg_flagged, bus_write_ready, bg_gate}));
  }
  return next;
}

template <typename BankT>
Cycle ControllerT<BankT>::next_event_reference(Cycle now) const {
  // The pre-index scan, preserved verbatim over the global FIFO lists.
  // Every clause mirrors one enabling condition of tick()/try_issue(); a
  // condition that can only flip through an enqueue or through another
  // event (e.g. a read leaving the queue clears a write conflict) needs no
  // clause of its own, because the driver re-evaluates after every enqueue
  // and every wake. The one exception is the write-queue drain latch: its
  // hysteresis makes the flip cycle itself scheduling-relevant state, so a
  // pending flip forces a wake at t0 (matching next_event_indexed).
  Cycle next = kNeverCycle;
  const Cycle t0 = now + 1;
  if (writes_.drain_update_pending()) return t0;
  const auto consider = [&](Cycle c) {
    next = std::min(next, std::max(c, t0));
  };

  for (const InFlight& fl : inflight_reads_) {
    consider(fl.done);
    if (next == t0) return t0;  // no earlier actionable cycle exists
  }

  // Queued reads, column path (same sticky bus_blocked rule as above).
  const Cycle bus_read_ready =
      bus_.earliest_start(t0 + timing_.tCAS) - timing_.tCAS;
  for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
    const mem::MemRequest& r = rpool_[static_cast<std::size_t>(s)].req;
    const BankT& bank = bank_of(r.addr);
    if (bank.segments_sensed(r.addr)) {
      Cycle c = bank.earliest_column(r.addr, OpType::kRead, t0);
      if (r.bus_blocked) c = std::max(c, bus_read_ready);
      consider(c);
      if (next == t0) return t0;
    }
    if (cfg_.policy == SchedulerPolicy::kFcfs) break;  // head-of-queue only
  }

  // Queued reads, activate path: same oldest-per-(bank,SAG) walk and
  // demand-aggregation as the read-activate selection.
  for (std::int32_t s = ridx_.queue_head(); s >= 0; s = ridx_.queue_next(s)) {
    if (!ridx_.is_group_head(s)) continue;
    const mem::DecodedAddr& a = rpool_[static_cast<std::size_t>(s)].req.addr;
    const BankT& bank = bank_of(a);
    if (bank.segments_sensed(a)) continue;
    std::uint64_t extra_cds = 0;
    if (cfg_.policy == SchedulerPolicy::kFrfcfsAugmented) {
      for (std::int32_t o = ridx_.queue_head(); o >= 0;
           o = ridx_.queue_next(o)) {
        const mem::DecodedAddr& oa =
            rpool_[static_cast<std::size_t>(o)].req.addr;
        if (oa.same_row(a)) {
          for (std::uint64_t i = 0; i < oa.cd_count; ++i) {
            extra_cds |= 1ULL << (oa.cd + i);
          }
        }
      }
    }
    consider(bank.earliest_activate(a, nvm::ActPurpose::kRead, t0, extra_cds));
    if (next == t0) return t0;
    if (cfg_.policy == SchedulerPolicy::kFcfs) break;  // blocks the queue
  }

  if (!writes_.empty()) {
    const bool draining = writes_.draining();
    const bool idle_path =
        !draining && ridx_.empty() && inflight_reads_.empty();
    Cycle idle_gate = 0;
    if (idle_path && writes_.size() < cfg_.wq_low) {
      idle_gate = last_read_activity_ + cfg_.drain_idle_timeout;
    }
    const bool bg_path = !draining &&
                         cfg_.policy == SchedulerPolicy::kFrfcfsAugmented &&
                         writes_.size() >= cfg_.bg_write_min;
    Cycle bg_gate = 0;
    if (bg_path) {
      std::uint64_t live = 0;
      Cycle earliest_done = kNeverCycle;
      for (Cycle d : write_done_times_) {
        if (d > now) {
          ++live;
          earliest_done = std::min(earliest_done, d);
        }
      }
      if (live >= cfg_.bg_write_inflight_max) bg_gate = earliest_done;
    }
    if (draining || idle_path || bg_path) {
      const Cycle bus_write_ready =
          bus_.earliest_start(t0 + timing_.tCWD) - timing_.tCWD;
      for (std::int32_t s = writes_.first(); s >= 0; s = writes_.next(s)) {
        const mem::MemRequest& w = writes_.at(s);
        const bool oldest_in_group = widx_.is_group_head(s);
        const BankT& bank = bank_of(w.addr);
        Cycle c;
        if (bank.row_open(w.addr)) {
          c = bank.earliest_column(w.addr, OpType::kWrite, t0);
          // Same sticky-flag rule as the read column path.
          if (w.bus_blocked) c = std::max(c, bus_write_ready);
        } else if (oldest_in_group) {
          c = bank.earliest_activate(w.addr, nvm::ActPurpose::kWrite, t0);
        } else {
          continue;  // only the oldest write per SAG may re-activate
        }
        if (draining || idle_path) consider(std::max(c, idle_gate));
        if (bg_path && !write_conflicts_with_reads_reference(w.addr)) {
          const Cycle guard =
              sag_last_read_[sag_group(w.addr)] + cfg_.bg_write_guard;
          consider(std::max({c, bg_gate, guard}));
        }
        if (next == t0) return t0;
      }
    }
  }
  return next;
}

template <typename BankT>
Cycle ControllerT<BankT>::next_event_internal(Cycle now) const {
  if (ne_memo_now_ == now) return ne_memo_;
  Cycle next;
  if (cfg_.policy == SchedulerPolicy::kFcfs) {
    // FCFS read scans break at the queue head — not decomposable into
    // per-bank minima; the reference walk is already O(small) there.
    next = next_event_reference(now);
  } else {
    next = next_event_indexed(now);
    if (cross_check_ && next != next_event_reference(now)) {
      detail::throw_divergence("next_event");
    }
  }
  ne_memo_now_ = now;
  ne_memo_ = next;
  return next;
}

template <typename BankT>
Cycle ControllerT<BankT>::next_event(Cycle now) const {
  if (!completed_.empty()) return now + 1;
  return next_event_internal(now);
}

}  // namespace fgnvm::sched

// Indexed wake calendar for the full-system runner loop (DESIGN.md §16).
//
// Tracks one pending wake cycle per core so the run loop can answer "which
// cores are due at cycle t?" and "what is the earliest pending wake?"
// without rescanning every core. The structure is a calendar-queue hybrid:
//
//  * a time wheel of kSlots one-cycle buckets covering the near window
//    [base, base + kSlots), with a two-level bitmap (one summary word over
//    kSlots/64 occupancy words) so the earliest occupied slot is found with
//    two count-trailing-zero instructions instead of a scan;
//  * an overflow binary min-heap for wakes beyond the window, migrated into
//    the wheel lazily as the base advances (each entry migrates at most
//    once, so migration is O(log n) amortized per scheduled wake);
//  * lazy invalidation: cancel() and reschedule bump a per-core generation
//    counter in O(1) — completions pull wakes *earlier*, and this is the
//    path that makes the pull O(1) — and stale entries are discarded when
//    their slot is next visited (amortized against their insertion).
//
// Invariants the runner relies on:
//  * every armed due is >= base (the loop advances base to the cycle it is
//    about to execute, and never schedules into the past);
//  * min_due() never overshoots: it returns exactly the minimum armed due;
//  * collect_due(t) returns exactly the armed cores with due <= t (order
//    unspecified — the caller sorts, core ids are dense).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace fgnvm::sim {

class WakeCalendar {
 public:
  /// Clears all state and sizes the per-core tables for `cores` ids.
  /// Retains heap/slot capacity across calls so repeated runs don't churn.
  void reset(std::size_t cores, Cycle base = 0) {
    if (slots_.empty()) slots_.resize(kSlots);
    // Only touched slots can be dirty; clear via the bitmap instead of
    // walking all kSlots buckets.
    for (std::size_t w = 0; w < kWords; ++w) {
      std::uint64_t bitsw = l1_[w];
      while (bitsw != 0) {
        const unsigned b = static_cast<unsigned>(std::countr_zero(bitsw));
        bitsw &= bitsw - 1;
        slots_[w * 64 + b].clear();
      }
      l1_[w] = 0;
    }
    l0_ = 0;
    far_.clear();
    base_ = base;
    armed_due_.assign(cores, kNeverCycle);
    gen_.assign(cores, 0);
    wheel_count_ = 0;
  }

  std::size_t cores() const { return armed_due_.size(); }
  bool armed(std::uint32_t core) const {
    return armed_due_[core] != kNeverCycle;
  }

  /// Arms (or re-arms) `core` to wake at `due`. Requires due >= base and
  /// due != kNeverCycle. O(1) into the wheel window, O(log n) beyond it.
  void schedule(std::uint32_t core, Cycle due) {
    assert(due != kNeverCycle);
    assert(due >= base_);
    if (armed_due_[core] == due) return;  // already armed here; entry live
    ++gen_[core];                         // invalidates any previous entry
    armed_due_[core] = due;
    if (due < base_ + kSlots) {
      push_wheel(core, due);
    } else {
      far_.emplace_back(due, pack(core));
      std::push_heap(far_.begin(), far_.end(), FarGreater{});
    }
  }

  /// Disarms `core` in O(1); its entry goes stale and is discarded when the
  /// containing slot (or the heap top) is next visited. This is the
  /// completion-delivery path: a read return wakes the core *now*, earlier
  /// than its scheduled due.
  void cancel(std::uint32_t core) {
    if (armed_due_[core] == kNeverCycle) return;
    ++gen_[core];
    armed_due_[core] = kNeverCycle;
    // wheel_count_/heap sizes intentionally keep counting the stale entry;
    // they are upper bounds, corrected on visit.
  }

  /// Earliest armed due, or kNeverCycle when nothing is armed. Amortized
  /// O(1): each stale entry and each emptied slot is paid for once.
  Cycle min_due() {
    const Cycle wheel = wheel_min();
    const Cycle far = far_min();
    return std::min(wheel, far);
  }

  /// Appends every armed core with due <= t to `out` (unsorted) and disarms
  /// it — due cores are about to be woken and re-armed by the caller.
  /// Requires t < base + kSlots (the caller advances base to its current
  /// cycle first, and never executes a cycle beyond the window because
  /// min_due bounds the jump).
  void collect_due(Cycle t, std::vector<std::uint32_t>& out) {
    assert(t < base_ + kSlots);
    // Heap entries are migrated below base_ + kSlots by advance_to, so any
    // due <= t lives in the wheel.
    for (Cycle c = base_; c <= t; ++c) {
      const std::size_t s = slot_index(c);
      if (!(l1_[s >> 6] & (1ULL << (s & 63)))) continue;
      std::vector<Entry>& v = slots_[s];
      for (const Entry& e : v) {
        if (live(e, c)) {
          const std::uint32_t core = e.core;
          ++gen_[core];
          armed_due_[core] = kNeverCycle;
          out.push_back(core);
        }
      }
      wheel_count_ -= v.size();
      v.clear();
      clear_bit(s);
    }
  }

  /// Moves the window start to `t` (the cycle the loop is about to run) and
  /// migrates overflow wakes that fell inside the new window. Requires
  /// t >= base and t <= min_due() (the loop never jumps past a wake).
  void advance_to(Cycle t) {
    assert(t >= base_);
    base_ = t;
    while (!far_.empty() && far_.front().first < base_ + kSlots) {
      std::pop_heap(far_.begin(), far_.end(), FarGreater{});
      const auto [due, packed] = far_.back();
      far_.pop_back();
      const std::uint32_t core = unpack_core(packed);
      if (armed_due_[core] == due && gen_[core] == unpack_gen(packed)) {
        push_wheel(core, due);
      }
    }
  }

 private:
  static constexpr std::size_t kSlots = 4096;  // power of two
  static constexpr std::size_t kWords = kSlots / 64;  // == 64: one summary

  struct Entry {
    std::uint32_t core;
    std::uint32_t gen;
  };
  struct FarGreater {
    bool operator()(const std::pair<Cycle, std::uint64_t>& a,
                    const std::pair<Cycle, std::uint64_t>& b) const {
      return a.first > b.first;
    }
  };

  static std::size_t slot_index(Cycle c) {
    return static_cast<std::size_t>(c & (kSlots - 1));
  }
  bool live(const Entry& e, Cycle due) const {
    return armed_due_[e.core] == due && gen_[e.core] == e.gen;
  }
  std::uint64_t pack(std::uint32_t core) const {
    return (static_cast<std::uint64_t>(gen_[core]) << 32) | core;
  }
  static std::uint32_t unpack_core(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed);
  }
  static std::uint32_t unpack_gen(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed >> 32);
  }

  void push_wheel(std::uint32_t core, Cycle due) {
    const std::size_t s = slot_index(due);
    slots_[s].push_back(Entry{core, gen_[core]});
    l1_[s >> 6] |= 1ULL << (s & 63);
    l0_ |= 1ULL << (s >> 6);
    ++wheel_count_;
  }
  void clear_bit(std::size_t s) {
    l1_[s >> 6] &= ~(1ULL << (s & 63));
    if (l1_[s >> 6] == 0) l0_ &= ~(1ULL << (s >> 6));
  }

  /// First occupied slot in circular order from base_, compacting stale
  /// entries as it goes. Returns the due cycle or kNeverCycle.
  Cycle wheel_min() {
    while (wheel_count_ > 0) {
      const std::size_t s = first_set_slot();
      if (s == kSlots) return kNeverCycle;  // only stale bits remained
      // The slot covers exactly one cycle of the active window.
      const Cycle due = cycle_of_slot(s);
      std::vector<Entry>& v = slots_[s];
      std::size_t keep = 0;
      for (const Entry& e : v) {
        if (live(e, due)) v[keep++] = e;
      }
      wheel_count_ -= v.size() - keep;
      v.resize(keep);
      if (keep > 0) return due;
      clear_bit(s);
    }
    return kNeverCycle;
  }

  Cycle far_min() {
    while (!far_.empty()) {
      const auto [due, packed] = far_.front();
      const std::uint32_t core = unpack_core(packed);
      if (armed_due_[core] == due && gen_[core] == unpack_gen(packed)) {
        return due;
      }
      std::pop_heap(far_.begin(), far_.end(), FarGreater{});
      far_.pop_back();
    }
    return kNeverCycle;
  }

  /// Index of the first slot with its occupancy bit set, in circular order
  /// starting at slot_index(base_); kSlots when the bitmap is empty.
  std::size_t first_set_slot() const {
    if (l0_ == 0) return kSlots;
    const std::size_t b0 = slot_index(base_);
    // Pass 1: [b0, kSlots). Pass 2: [0, b0) — occupied slots there hold
    // cycles in the upper half of the window (base wrapped).
    const std::size_t w0 = b0 >> 6;
    std::uint64_t w = l1_[w0] & (~0ULL << (b0 & 63));
    if (w != 0) return (w0 << 6) + std::countr_zero(w);
    std::uint64_t top = l0_ & (w0 + 1 >= kWords ? 0 : ~0ULL << (w0 + 1));
    if (top != 0) {
      const std::size_t wi = std::countr_zero(top);
      return (wi << 6) + std::countr_zero(l1_[wi]);
    }
    std::uint64_t low = l0_ & ((1ULL << w0) - 1);
    if (low != 0) {
      const std::size_t wi = std::countr_zero(low);
      return (wi << 6) + std::countr_zero(l1_[wi]);
    }
    w = l1_[w0] & ((b0 & 63) == 0 ? 0 : (1ULL << (b0 & 63)) - 1);
    if (w != 0) return (w0 << 6) + std::countr_zero(w);
    return kSlots;
  }

  /// The cycle a wheel slot represents under the current base: the unique
  /// c in [base_, base_ + kSlots) with c % kSlots == s.
  Cycle cycle_of_slot(std::size_t s) const {
    const std::size_t b0 = slot_index(base_);
    const Cycle delta = s >= b0 ? s - b0 : kSlots - b0 + s;
    return base_ + delta;
  }

  std::vector<std::vector<Entry>> slots_;
  std::uint64_t l1_[kWords] = {};
  std::uint64_t l0_ = 0;
  Cycle base_ = 0;
  std::vector<std::pair<Cycle, std::uint64_t>> far_;  // min-heap by .first
  std::vector<Cycle> armed_due_;
  std::vector<std::uint32_t> gen_;
  std::size_t wheel_count_ = 0;
};

}  // namespace fgnvm::sim

// Indexed wake calendar for the full-system runner loop (DESIGN.md §16).
//
// Tracks one pending wake cycle per core so the run loop can answer "which
// cores are due at cycle t?" and "what is the earliest pending wake?"
// without rescanning every core. The structure is a binary min-heap of
// {due, core, generation} entries with lazy invalidation: cancel() and
// reschedule bump a per-core generation counter in O(1) — completions pull
// wakes *earlier*, and this is the path that makes the pull O(1) — and a
// stale entry is dropped when it reaches the top of the heap or when time
// passes its due (amortized against its insertion).
//
// Invariants the runner relies on:
//  * min_due() never overshoots: it returns exactly the minimum armed due;
//  * collect_due(t) returns exactly the armed cores with due <= t, each
//    once (order unspecified — the caller sorts, core ids are dense).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace fgnvm::sim {

class WakeCalendar {
 public:
  /// Clears all state and sizes the per-core tables for `cores` ids.
  void reset(std::size_t cores) {
    heap_.clear();
    armed_due_.assign(cores, kNeverCycle);
    gen_.assign(cores, 0);
  }

  std::size_t cores() const { return armed_due_.size(); }
  bool armed(std::uint32_t core) const {
    return armed_due_[core] != kNeverCycle;
  }

  /// Arms (or re-arms) `core` to wake at `due` in O(log n). Requires
  /// due != kNeverCycle.
  void schedule(std::uint32_t core, Cycle due) {
    assert(due != kNeverCycle);
    if (armed_due_[core] == due) return;  // already armed here; entry live
    ++gen_[core];                         // invalidates any previous entry
    armed_due_[core] = due;
    heap_.push_back(Entry{due, core, gen_[core]});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Disarms `core` in O(1); its entry goes stale and is dropped when it
  /// reaches the top of the heap. This is the completion-delivery path: a
  /// read return wakes the core *now*, earlier than its scheduled due.
  void cancel(std::uint32_t core) {
    if (armed_due_[core] == kNeverCycle) return;
    ++gen_[core];
    armed_due_[core] = kNeverCycle;
  }

  /// Earliest armed due, or kNeverCycle when nothing is armed. Amortized
  /// O(log n): each stale entry is popped once.
  Cycle min_due() {
    while (!heap_.empty() && !live(heap_.front())) pop();
    return heap_.empty() ? kNeverCycle : heap_.front().due;
  }

  /// Appends every armed core with due <= t to `out` (unsorted) and disarms
  /// it — due cores are about to be woken and re-armed by the caller.
  void collect_due(Cycle t, std::vector<std::uint32_t>& out) {
    while (!heap_.empty() && heap_.front().due <= t) {
      const Entry e = heap_.front();
      pop();
      if (live(e)) {
        ++gen_[e.core];
        armed_due_[e.core] = kNeverCycle;
        out.push_back(e.core);
      }
    }
  }

 private:
  struct Entry {
    Cycle due;
    std::uint32_t core;
    std::uint32_t gen;
  };
  struct Later {  // std heaps are max-heaps: order by later due first
    bool operator()(const Entry& a, const Entry& b) const {
      return a.due > b.due;
    }
  };

  bool live(const Entry& e) const {
    return armed_due_[e.core] == e.due && gen_[e.core] == e.gen;
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

  std::vector<Entry> heap_;
  std::vector<Cycle> armed_due_;
  std::vector<std::uint32_t> gen_;
};

}  // namespace fgnvm::sim

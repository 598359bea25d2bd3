// Intrusive slot-based request indexing for the scheduler hot paths.
//
// The controller keeps queued requests in stable slots (read pool /
// write-queue slots) and this index threads three doubly-linked lists
// through them, all in arrival (FIFO) order:
//
//  * a global queue list — the pre-index `reads_` vector walk;
//  * a per-(bank, SAG) group list — so "oldest per group" is the group
//    head, with no epoch-stamped scan machinery;
//  * a per-(bank, row) list (hash-indexed) — so demand-aggregated partial
//    activation and obs ACT-stamping visit only same-row requests.
//
// On top of the lists it maintains the aggregate occupancy the scheduler
// needs in O(1): per-bank request counts, per-(bank, CD) interval counts
// with a derived per-bank CD bitmask (write/read conflict tests), and
// swap-removable vectors of the currently non-empty groups (global and
// per-bank) so issue selection touches only eligible groups.
//
// Storage is struct-of-arrays (DESIGN.md §12): the six link cursors, the
// arrival sequence numbers, the packed address keys (row / sag / cd /
// cd_count), the line-CD bitmasks, and the sticky bus_blocked flags each
// live in their own cache-line-aligned array, sized once at init(). The
// selection and candidate-recompute walks in the controller read only these
// compact arrays — the fat MemRequest records in the slot pools are touched
// only to commit an issue — so a probe scan streams a few bytes per
// candidate instead of pulling a 100+-byte struct per hop. Insert captures
// the key/seq/flag image; set_flag() keeps the flag mirror in sync when the
// controller marks a request bus-blocked.
//
// Invariants (see DESIGN.md §8):
//  * every list preserves arrival order: head == oldest == min sched_seq;
//  * a group is listed in active_groups()/active_groups_of_bank() iff its
//    count > 0; a (bank, row) key is present iff its list is non-empty;
//  * cd_mask(bank) has bit c set iff some member of `bank` covers CD c;
//  * seq/row/sag/cd/cds/flagged mirror the pooled request while it is
//    queued (flagged via set_flag).
//
// All operations are O(1) except the (bank, row) hash probe, which hits a
// flat linear-probing table sized at init() to keep the load factor ≤ 1/4
// (at most one distinct row per occupied slot) — no allocation ever happens
// after init().
#pragma once

#include <cassert>
#include <cstdint>
#include <new>
#include <vector>

#include "common/types.hpp"
#include "mem/geometry.hpp"

namespace fgnvm::sched {

/// Minimal cache-line-aligning allocator for the SoA arrays: the hot scans
/// stride one array at a time, so each array starting on its own line keeps
/// them from sharing (and false-sharing) tails.
template <typename T>
struct CacheAlignedAlloc {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheAlignedAlloc() = default;
  template <typename U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
  template <typename U>
  bool operator==(const CacheAlignedAlloc<U>&) const {
    return true;
  }
};

template <typename T>
using AlignedVec = std::vector<T, CacheAlignedAlloc<T>>;

class RequestIndex {
 public:
  RequestIndex() = default;

  /// `slot_cap` bounds the slot ids ever inserted; `num_banks` is the
  /// rank-major bank count of the channel.
  void init(std::uint64_t slot_cap, std::uint64_t num_banks,
            std::uint64_t num_sags, std::uint64_t num_cds) {
    num_sags_ = num_sags;
    num_cds_ = num_cds;
    qprev_.assign(slot_cap, -1);
    qnext_.assign(slot_cap, -1);
    gprev_.assign(slot_cap, -1);
    gnext_.assign(slot_cap, -1);
    rprev_.assign(slot_cap, -1);
    rnext_.assign(slot_cap, -1);
    seq_.assign(slot_cap, 0);
    row_.assign(slot_cap, 0);
    bank_.assign(slot_cap, 0);
    meta_.assign(slot_cap, 0);
    cds_.assign(slot_cap, 0);
    flag_.assign(slot_cap, 0);
    groups_.assign(num_banks * num_sags, Group{});
    active_all_.clear();
    active_all_.reserve(groups_.size());
    active_bank_.assign(num_banks, {});
    for (auto& v : active_bank_) v.reserve(num_sags);
    bank_count_.assign(num_banks, 0);
    cd_count_.assign(num_banks * num_cds, 0);
    cd_mask_.assign(num_banks, 0);
    std::uint64_t buckets = 4;
    while (buckets < 4 * slot_cap) buckets <<= 1;
    rows_.assign(buckets, RowEntry{});
    row_mask_ = buckets - 1;
    qhead_ = qtail_ = -1;
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::uint64_t size() const { return size_; }

  void insert(std::int32_t slot, std::uint64_t bank, const mem::DecodedAddr& a,
              std::uint64_t seq, bool flagged = false) {
    const auto i = static_cast<std::size_t>(slot);
    seq_[i] = seq;
    row_[i] = static_cast<std::uint32_t>(a.row);
    bank_[i] = static_cast<std::uint32_t>(bank);
    meta_[i] = static_cast<std::uint32_t>(a.sag) << 16 |
               static_cast<std::uint32_t>(a.cd) << 8 |
               static_cast<std::uint32_t>(a.cd_count);
    std::uint64_t cds = 0;
    for (std::uint64_t c = 0; c < a.cd_count; ++c) cds |= 1ULL << (a.cd + c);
    cds_[i] = cds;
    flag_[i] = flagged ? 1 : 0;

    qprev_[i] = qtail_;
    qnext_[i] = -1;
    if (qtail_ >= 0) {
      qnext_[static_cast<std::size_t>(qtail_)] = slot;
    } else {
      qhead_ = slot;
    }
    qtail_ = slot;
    ++size_;

    const std::uint64_t g = bank * num_sags_ + a.sag;
    Group& grp = groups_[g];
    gprev_[i] = grp.tail;
    gnext_[i] = -1;
    if (grp.tail >= 0) {
      gnext_[static_cast<std::size_t>(grp.tail)] = slot;
    } else {
      grp.head = slot;
    }
    grp.tail = slot;
    if (grp.count++ == 0) activate_group(g, bank);

    RowEntry& row = row_find_or_insert(row_key(bank, a.row));
    rprev_[i] = row.tail;
    rnext_[i] = -1;
    if (row.tail >= 0) {
      rnext_[static_cast<std::size_t>(row.tail)] = slot;
    } else {
      row.head = slot;
    }
    row.tail = slot;
    ++row.count;
    row.cds |= cds;

    ++bank_count_[bank];
    for (std::uint64_t c = 0; c < a.cd_count; ++c) {
      const std::uint64_t k = bank * num_cds_ + a.cd + c;
      if (cd_count_[k]++ == 0) cd_mask_[bank] |= 1ULL << (a.cd + c);
    }
  }

  /// Removes `slot` using the key image captured at insert — callers no
  /// longer thread the request's address through.
  void remove(std::int32_t slot, std::uint64_t bank) {
    const auto i = static_cast<std::size_t>(slot);
    if (qprev_[i] >= 0) {
      qnext_[static_cast<std::size_t>(qprev_[i])] = qnext_[i];
    } else {
      qhead_ = qnext_[i];
    }
    if (qnext_[i] >= 0) {
      qprev_[static_cast<std::size_t>(qnext_[i])] = qprev_[i];
    } else {
      qtail_ = qprev_[i];
    }
    --size_;

    const std::uint64_t g = bank * num_sags_ + sag(slot);
    Group& grp = groups_[g];
    if (gprev_[i] >= 0) {
      gnext_[static_cast<std::size_t>(gprev_[i])] = gnext_[i];
    } else {
      grp.head = gnext_[i];
    }
    if (gnext_[i] >= 0) {
      gprev_[static_cast<std::size_t>(gnext_[i])] = gprev_[i];
    } else {
      grp.tail = gprev_[i];
    }
    if (--grp.count == 0) deactivate_group(g, bank);

    const std::uint64_t rk = row_key(bank, row_[i]);
    const std::uint64_t ri = row_find(rk);
    assert(ri != kNoBucket);
    RowEntry& row = rows_[ri];
    if (rprev_[i] >= 0) {
      rnext_[static_cast<std::size_t>(rprev_[i])] = rnext_[i];
    } else {
      row.head = rnext_[i];
    }
    if (rnext_[i] >= 0) {
      rprev_[static_cast<std::size_t>(rnext_[i])] = rprev_[i];
    } else {
      row.tail = rprev_[i];
    }
    if (--row.count == 0) {
      row_erase(ri);
    } else {
      // OR-aggregates are not subtractable: rebuild the mask from the
      // remaining members. Row lists are short (bounded by same-row
      // occupancy, not queue depth), and one rebuild per removal replaces
      // the per-query walks the selectors and candidate recomputes did.
      std::uint64_t m = 0;
      for (std::int32_t s = row.head; s >= 0;
           s = rnext_[static_cast<std::size_t>(s)]) {
        m |= cds_[static_cast<std::size_t>(s)];
      }
      row.cds = m;
    }

    --bank_count_[bank];
    const std::uint64_t cd0 = cd(slot);
    const std::uint64_t cdn = cd_count_of(slot);
    for (std::uint64_t c = 0; c < cdn; ++c) {
      const std::uint64_t k = bank * num_cds_ + cd0 + c;
      if (--cd_count_[k] == 0) cd_mask_[bank] &= ~(1ULL << (cd0 + c));
    }
    qprev_[i] = qnext_[i] = gprev_[i] = gnext_[i] = rprev_[i] = rnext_[i] = -1;
    flag_[i] = 0;
  }

  // ---- per-slot key image (valid while the slot is queued) --------------
  std::uint64_t seq(std::int32_t slot) const {
    return seq_[static_cast<std::size_t>(slot)];
  }
  std::uint64_t row_of(std::int32_t slot) const {
    return row_[static_cast<std::size_t>(slot)];
  }
  /// Linear bank id captured at insert — lets the hot scans reach the
  /// owning bank without touching the pooled request.
  std::uint64_t bank_of(std::int32_t slot) const {
    return bank_[static_cast<std::size_t>(slot)];
  }
  std::uint64_t sag(std::int32_t slot) const {
    return meta_[static_cast<std::size_t>(slot)] >> 16;
  }
  std::uint64_t cd(std::int32_t slot) const {
    return (meta_[static_cast<std::size_t>(slot)] >> 8) & 0xFF;
  }
  std::uint64_t cd_count_of(std::int32_t slot) const {
    return meta_[static_cast<std::size_t>(slot)] & 0xFF;
  }
  /// Line-CD bitmask captured at insert (== the bank's line_cds(addr)).
  std::uint64_t cds(std::int32_t slot) const {
    return cds_[static_cast<std::size_t>(slot)];
  }
  bool flagged(std::int32_t slot) const {
    return flag_[static_cast<std::size_t>(slot)] != 0;
  }
  /// Mirrors MemRequest::bus_blocked for the hot scans.
  void set_flag(std::int32_t slot, bool on) {
    flag_[static_cast<std::size_t>(slot)] = on ? 1 : 0;
  }

  // ---- global FIFO ------------------------------------------------------
  std::int32_t queue_head() const { return qhead_; }
  std::int32_t queue_next(std::int32_t slot) const {
    return qnext_[static_cast<std::size_t>(slot)];
  }

  // ---- per-(bank, SAG) groups ------------------------------------------
  std::int32_t group_head(std::uint64_t group) const {
    return groups_[group].head;
  }
  std::uint64_t group_count(std::uint64_t group) const {
    return groups_[group].count;
  }
  /// True iff `slot` is the oldest member of its (bank, SAG) group —
  /// exactly the requests the pre-index epoch-stamped scan called
  /// "first in group".
  bool is_group_head(std::int32_t slot) const {
    return gprev_[static_cast<std::size_t>(slot)] < 0;
  }
  /// Global group ids (bank * num_sags + sag) with at least one member.
  /// Unordered — callers needing arrival order sort by sched_seq.
  const std::vector<std::uint32_t>& active_groups() const {
    return active_all_;
  }
  const std::vector<std::uint32_t>& active_groups_of_bank(
      std::uint64_t bank) const {
    return active_bank_[bank];
  }

  // ---- per-(bank, row) lists -------------------------------------------
  std::int32_t row_head(std::uint64_t bank, std::uint64_t row) const {
    const std::uint64_t i = row_find(row_key(bank, row));
    return i == kNoBucket ? -1 : rows_[i].head;
  }
  std::int32_t row_next(std::int32_t slot) const {
    return rnext_[static_cast<std::size_t>(slot)];
  }
  std::uint64_t row_count(std::uint64_t bank, std::uint64_t row) const {
    const std::uint64_t i = row_find(row_key(bank, row));
    return i == kNoBucket ? 0 : rows_[i].count;
  }
  /// OR of the line-CD bitmasks of every queued request to (bank, row) —
  /// the demand-aggregated partial-activation mask, maintained on
  /// insert/remove so callers skip the per-query list walk.
  std::uint64_t row_cds(std::uint64_t bank, std::uint64_t row) const {
    const std::uint64_t i = row_find(row_key(bank, row));
    return i == kNoBucket ? 0 : rows_[i].cds;
  }
  /// Hints the next row/group-list hop's probe image (seq, key fields,
  /// line-CD mask) into cache while the current member's bank probe runs.
  void prefetch(std::int32_t slot) const {
    if (slot < 0) return;
    const auto i = static_cast<std::size_t>(slot);
    __builtin_prefetch(&seq_[i]);
    __builtin_prefetch(&row_[i]);
    __builtin_prefetch(&cds_[i]);
  }

  // ---- aggregates -------------------------------------------------------
  std::uint64_t bank_count(std::uint64_t bank) const {
    return bank_count_[bank];
  }
  std::uint64_t cd_mask(std::uint64_t bank) const { return cd_mask_[bank]; }
  /// True iff any member of `bank` covers a CD in [cd, cd + cd_count).
  bool cd_overlap(std::uint64_t bank, std::uint64_t cd,
                  std::uint64_t cd_count) const {
    const std::uint64_t span =
        cd_count >= 64 ? ~0ULL : ((1ULL << cd_count) - 1) << cd;
    return (cd_mask_[bank] & span) != 0;
  }
  /// Mask variant for callers that already hold a line-CD bitmask.
  bool cd_overlap_mask(std::uint64_t bank, std::uint64_t mask) const {
    return (cd_mask_[bank] & mask) != 0;
  }

 private:
  struct Group {
    std::int32_t head = -1, tail = -1;
    std::uint32_t count = 0;
    std::int32_t pos_all = -1, pos_bank = -1;  // active-vector positions
  };
  static constexpr std::uint64_t kEmptyKey = ~0ULL;
  static constexpr std::uint64_t kNoBucket = ~0ULL;
  /// One (bank, row) list in the flat linear-probing table. kEmptyKey marks
  /// a vacant bucket; valid keys never collide with it (bank and row counts
  /// are far below the 2^24 / 2^40 split).
  struct RowEntry {
    std::uint64_t key = kEmptyKey;
    std::int32_t head = -1, tail = -1;
    std::uint32_t count = 0;
    std::uint64_t cds = 0;  // OR of members' line-CD masks (row_cds)
  };

  static std::uint64_t row_key(std::uint64_t bank, std::uint64_t row) {
    return (bank << 40) ^ row;  // rows_per_bank is far below 2^40
  }

  std::uint64_t row_bucket(std::uint64_t key) const {
    // splitmix64 finalizer: cheap, well-mixed for sequential row numbers.
    std::uint64_t x = key;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return (x ^ (x >> 31)) & row_mask_;
  }

  std::uint64_t row_find(std::uint64_t key) const {
    for (std::uint64_t i = row_bucket(key);; i = (i + 1) & row_mask_) {
      if (rows_[i].key == key) return i;
      if (rows_[i].key == kEmptyKey) return kNoBucket;
    }
  }

  RowEntry& row_find_or_insert(std::uint64_t key) {
    assert(key != kEmptyKey);
    for (std::uint64_t i = row_bucket(key);; i = (i + 1) & row_mask_) {
      if (rows_[i].key == key) return rows_[i];
      if (rows_[i].key == kEmptyKey) {
        rows_[i].key = key;
        return rows_[i];
      }
    }
  }

  /// Standard open-addressing deletion: vacate the bucket, then re-place
  /// any cluster member that probing can no longer reach through the hole.
  void row_erase(std::uint64_t i) {
    rows_[i] = RowEntry{};
    for (std::uint64_t j = (i + 1) & row_mask_; rows_[j].key != kEmptyKey;
         j = (j + 1) & row_mask_) {
      const std::uint64_t home = row_bucket(rows_[j].key);
      const bool reachable =
          i <= j ? (home > i && home <= j) : (home > i || home <= j);
      if (!reachable) {
        rows_[i] = rows_[j];
        rows_[j] = RowEntry{};
        i = j;
      }
    }
  }

  void activate_group(std::uint64_t g, std::uint64_t bank) {
    Group& grp = groups_[g];
    grp.pos_all = static_cast<std::int32_t>(active_all_.size());
    active_all_.push_back(static_cast<std::uint32_t>(g));
    auto& per_bank = active_bank_[bank];
    grp.pos_bank = static_cast<std::int32_t>(per_bank.size());
    per_bank.push_back(static_cast<std::uint32_t>(g));
  }

  void deactivate_group(std::uint64_t g, std::uint64_t bank) {
    Group& grp = groups_[g];
    const std::uint32_t last_all = active_all_.back();
    active_all_[static_cast<std::size_t>(grp.pos_all)] = last_all;
    groups_[last_all].pos_all = grp.pos_all;
    active_all_.pop_back();
    auto& per_bank = active_bank_[bank];
    const std::uint32_t last_bank = per_bank.back();
    per_bank[static_cast<std::size_t>(grp.pos_bank)] = last_bank;
    groups_[last_bank].pos_bank = grp.pos_bank;
    per_bank.pop_back();
    grp.pos_all = grp.pos_bank = -1;
  }

  std::uint64_t num_sags_ = 1;
  std::uint64_t num_cds_ = 1;
  // SoA link cursors and key images (see the header comment): one
  // cache-line-aligned array per field.
  AlignedVec<std::int32_t> qprev_, qnext_;  // global FIFO
  AlignedVec<std::int32_t> gprev_, gnext_;  // (bank, SAG) FIFO
  AlignedVec<std::int32_t> rprev_, rnext_;  // (bank, row) FIFO
  AlignedVec<std::uint64_t> seq_;           // sched_seq mirror
  AlignedVec<std::uint32_t> row_;           // row within bank
  AlignedVec<std::uint32_t> bank_;          // linear bank id
  AlignedVec<std::uint32_t> meta_;          // sag << 16 | cd << 8 | cd_count
  AlignedVec<std::uint64_t> cds_;           // line-CD bitmask
  AlignedVec<std::uint8_t> flag_;           // bus_blocked mirror
  std::vector<Group> groups_;
  std::vector<std::uint32_t> active_all_;
  std::vector<std::vector<std::uint32_t>> active_bank_;
  std::vector<RowEntry> rows_;
  std::uint64_t row_mask_ = 0;
  std::vector<std::uint64_t> bank_count_;
  std::vector<std::uint32_t> cd_count_;  // bank * num_cds + cd
  std::vector<std::uint64_t> cd_mask_;   // per bank
  std::int32_t qhead_ = -1, qtail_ = -1;
  std::uint64_t size_ = 0;
};

}  // namespace fgnvm::sched

// FgNVM bank: two-dimensional (SAG x CD) subdivision with tile-level
// parallelism. Implements the Section-4 semantics:
//
//  * Partial-Activation — an ACT senses only the CD segment(s) a request
//    needs; per-SAG bookkeeping remembers which CDs of the open row are
//    sensed, so a later access to an unsensed CD pays another ACT
//    ("underfetch").
//  * Multi-Activation — ACTs in different SAGs may overlap, but never two in
//    the same SAG (one wordline per SAG) nor two sensing the same CD (shared
//    local bitline path). Disabling the mode serializes all sensing
//    bank-wide.
//  * Backgrounded Writes — a write occupies its SAG (wordline + drivers) and
//    its CD(s) (I/O path) until the program pulse finishes; all other
//    (SAG, CD) pairs remain readable. Disabling the mode locks the whole
//    bank for the duration, which is the baseline PCM behaviour.
//
// The baseline prototype bank is exactly this model with a 1x1 geometry and
// all modes off: one row buffer, full-row sensing, serialized writes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "nvm/bank.hpp"

namespace fgnvm::nvm {

class FgNvmBank final {
 public:
  FgNvmBank(const mem::MemGeometry& geometry, const mem::TimingParams& timing,
            AccessModes modes);

  // The scheduler's hot candidate probes are defined inline below the class
  // so the statically-dispatched controller (sched::ControllerT<FgNvmBank>)
  // can inline them into its selection loops across the library boundary.
  bool segments_sensed(const mem::DecodedAddr& a) const;
  bool row_open(const mem::DecodedAddr& a) const;
  /// Open row of a SAG, or kInvalidAddr if none.
  std::uint64_t open_row_of(std::uint64_t sag) const {
    return sags_[sag].open_row;
  }
  /// NVM needs no refresh: no cycle is ever inside a refresh window.
  Cycle refresh_end(Cycle t) const { return t; }
  Cycle earliest_activate(const mem::DecodedAddr& a, ActPurpose p, Cycle now,
                          std::uint64_t extra_cds = 0) const;
  Cycle earliest_column(const mem::DecodedAddr& a, OpType op,
                        Cycle now) const;

  // Keyed probe variants (DESIGN.md §12): same answers as the DecodedAddr
  // overloads, but keyed by the (sag, row, line-CD mask) image the request
  // index caches per slot — the selection and candidate-recompute scans call
  // these so a probe never rebuilds an address or a CD mask.
  bool segments_sensed_key(std::uint64_t sag, std::uint64_t row,
                           std::uint64_t line_mask) const;
  Cycle earliest_column_key(std::uint64_t sag, std::uint64_t line_mask,
                            OpType op, Cycle now) const;
  Cycle earliest_activate_key(std::uint64_t sag, std::uint64_t row,
                              std::uint64_t line_mask, std::uint64_t extra_cds,
                              ActPurpose p, Cycle now) const {
    return std::max(activate_floor(),
                    activate_sag_key(sag, row, line_mask, extra_cds, p, now));
  }

  // Every keyed probe is max(bank floor, SAG-local key) (DESIGN.md §8). The
  // floors hold the bank-wide terms, which never decrease: the column floor
  // is the non-background write lock and the tCCD window, the ACT floor the
  // same write lock plus the bank-wide sensing lock when Multi-Activation is
  // off. The SAG-local keys hold the rest: the SAG's own locks and the locks
  // of the CDs the command touches. The scheduler caches SAG keys per
  // (bank, SAG) group and applies the floors when it reads them, so a
  // command that moves only a floor leaves the other groups' entries valid.
  Cycle column_floor() const {
    return any_col_issued_ ? std::max(bank_lock_, last_col_ + timing_.tCCD)
                           : bank_lock_;
  }
  Cycle activate_floor() const {
    return modes_.multi_activation ? bank_lock_
                                   : std::max(bank_lock_, global_act_lock_);
  }
  Cycle activate_sag_key(std::uint64_t sag, std::uint64_t row,
                         std::uint64_t line_mask, std::uint64_t extra_cds,
                         ActPurpose p, Cycle now) const;
  /// CDs a read ACT of `row` in `sag` newly senses (and sense-locks): the
  /// needed CDs, minus those already sensed when the row is open.
  std::uint64_t activate_cds(std::uint64_t sag, std::uint64_t row,
                             std::uint64_t line_mask,
                             std::uint64_t extra_cds) const {
    const SagState& s = sags_[sag];
    std::uint64_t cds = modes_.partial_activation
                            ? (line_mask | extra_cds) & all_cds_mask_
                            : all_cds_mask_;
    if (s.open_row == row) cds &= ~s.sensed;
    return cds;
  }

  // Decomposed column probe for batched same-SAG scans: the floor and
  // column_sag_key (SAG lock, sense latch) are shared by every member of a
  // (bank, SAG) group; column_fold_key folds one member's CD locks on top.
  // For any member,
  //   earliest_column_key(sag, m, op, now) == column_fold_key(m, op,
  //       max(column_floor(), column_sag_key(sag, op, now))).
  Cycle column_sag_key(std::uint64_t sag, OpType op, Cycle now) const {
    const SagState& s = sags_[sag];
    Cycle t = std::max(now, s.lock_until);
    if (op == OpType::kRead) t = std::max(t, s.sense_ready);
    return t;
  }
  Cycle column_fold_key(std::uint64_t line_mask, OpType op, Cycle base) const {
    std::uint64_t cds = line_mask;
    if (op == OpType::kRead) {
      while (cds != 0) {
        const int cd = std::countr_zero(cds);
        cds &= cds - 1;
        base = std::max(base, cd_write_lock_[static_cast<std::size_t>(cd)]);
      }
    } else {
      while (cds != 0) {
        const int cd = std::countr_zero(cds);
        cds &= cds - 1;
        base = std::max(base, cd_sense_lock_[static_cast<std::size_t>(cd)]);
        base = std::max(base, cd_write_lock_[static_cast<std::size_t>(cd)]);
      }
    }
    return base;
  }
  void issue_activate(const mem::DecodedAddr& a, ActPurpose p, Cycle at,
                      std::uint64_t extra_cds = 0);
  Cycle issue_column(const mem::DecodedAddr& a, OpType op, Cycle at);
  void close_row(const mem::DecodedAddr& a, Cycle at);

  obs::BlockCause activate_block_cause(const mem::DecodedAddr& a, ActPurpose p,
                                       Cycle now,
                                       std::uint64_t extra_cds = 0) const;
  obs::BlockCause column_block_cause(const mem::DecodedAddr& a, OpType op,
                                     Cycle now) const;
  std::uint64_t active_sags(Cycle now) const;
  std::uint64_t active_cds(Cycle now) const;

  const BankStats& stats() const { return stats_; }

  /// Sensed-CD bitmask of a SAG's open row. Exposed for tests.
  std::uint64_t sensed_mask(std::uint64_t sag) const {
    return sags_[sag].sensed;
  }

 private:
  /// Bitmask of CDs an activation serving `a` would sense/occupy, including
  /// scheduler-requested extra CDs under partial activation.
  std::uint64_t needed_cds(const mem::DecodedAddr& a,
                           std::uint64_t extra_cds) const;
  /// Bitmask of the CDs holding the cache line of `a` (independent of the
  /// partial-activation mode).
  std::uint64_t line_cds(const mem::DecodedAddr& a) const;

  struct SagState {
    std::uint64_t open_row = kInvalidAddr;
    std::uint64_t sensed = 0;      // CD bitmask sensed for open_row
    Cycle sense_ready = 0;         // last ACT completes
    Cycle lock_until = 0;          // ACT in progress or write in progress
    Cycle write_until = 0;         // write in progress (attribution only:
                                   // splits lock_until into ACT vs write)
  };

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  AccessModes modes_;

  std::vector<SagState> sags_;
  std::vector<Cycle> cd_sense_lock_;  // bitlines busy sensing
  std::vector<Cycle> cd_write_lock_;  // write drivers on the CD I/O path
  Cycle global_act_lock_ = 0;         // used when multi_activation is off
  Cycle bank_lock_ = 0;               // used when background_writes is off
  Cycle last_col_ = 0;                // tCCD reference; 0 == "none yet"
  bool any_col_issued_ = false;
  std::uint64_t all_cds_mask_ = 0;

  BankStats stats_;
};

inline std::uint64_t FgNvmBank::line_cds(const mem::DecodedAddr& a) const {
  std::uint64_t mask = 0;
  for (std::uint64_t i = 0; i < a.cd_count; ++i) mask |= 1ULL << (a.cd + i);
  return mask;
}

inline std::uint64_t FgNvmBank::needed_cds(const mem::DecodedAddr& a,
                                           std::uint64_t extra_cds) const {
  if (!modes_.partial_activation) return all_cds_mask_;
  return (line_cds(a) | extra_cds) & all_cds_mask_;
}

inline bool FgNvmBank::segments_sensed_key(std::uint64_t sag,
                                           std::uint64_t row,
                                           std::uint64_t line_mask) const {
  const SagState& s = sags_[sag];
  return s.open_row == row && (s.sensed & line_mask) == line_mask;
}

inline bool FgNvmBank::segments_sensed(const mem::DecodedAddr& a) const {
  return segments_sensed_key(a.sag, a.row, line_cds(a));
}

inline bool FgNvmBank::row_open(const mem::DecodedAddr& a) const {
  return sags_[a.sag].open_row == a.row;
}

inline Cycle FgNvmBank::activate_sag_key(std::uint64_t sag, std::uint64_t row,
                                         std::uint64_t line_mask,
                                         std::uint64_t extra_cds, ActPurpose p,
                                         Cycle now) const {
  Cycle t = std::max(now, sags_[sag].lock_until);
  if (p == ActPurpose::kRead) {
    // Sensing occupies the local bitline path of each newly sensed CD; it
    // cannot overlap other sensing or write driving in the same CD.
    std::uint64_t cds = activate_cds(sag, row, line_mask, extra_cds);
    while (cds != 0) {
      const int cd = std::countr_zero(cds);
      cds &= cds - 1;
      t = std::max(t, cd_sense_lock_[static_cast<std::size_t>(cd)]);
      t = std::max(t, cd_write_lock_[static_cast<std::size_t>(cd)]);
    }
  }
  return t;
}

inline Cycle FgNvmBank::earliest_activate(const mem::DecodedAddr& a,
                                          ActPurpose p, Cycle now,
                                          std::uint64_t extra_cds) const {
  return earliest_activate_key(
      a.sag, a.row, p == ActPurpose::kRead ? line_cds(a) : 0, extra_cds, p,
      now);
}

inline Cycle FgNvmBank::earliest_column_key(std::uint64_t sag,
                                            std::uint64_t line_mask, OpType op,
                                            Cycle now) const {
  // Reads: data must be latched (sense_ready) and the SAG not mid-ACT or
  // mid-write, and the CD's I/O path not driven by a write. Writes: the
  // wordline (SAG) plus exclusive use of the CD bitline/IO path — a write
  // cannot overlap sensing *or* another write there. Both split into the
  // member-independent base and the per-CD fold.
  return column_fold_key(
      line_mask, op, std::max(column_floor(), column_sag_key(sag, op, now)));
}

inline Cycle FgNvmBank::earliest_column(const mem::DecodedAddr& a, OpType op,
                                        Cycle now) const {
  return earliest_column_key(a.sag, line_cds(a), op, now);
}

}  // namespace fgnvm::nvm

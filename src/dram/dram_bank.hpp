// DRAM bank model with optional subarray-level parallelism (SALP).
//
// The comparison point the paper positions FgNVM against (Section 2):
// DRAM reads are destructive, so every activation senses and must restore
// the full row (tRAS before precharge), a precharge (tRP) separates row
// switches, and periodic refresh (tREFI/tRFC) blocks the bank. SALP [Kim
// et al., ISCA'12] gives each subarray its own row latch so activations in
// different subarrays overlap — one-dimensional subdivision only; DRAM's
// destructive sensing and charge-sharing make the CD dimension (partial
// activation of a row) impractical, which is exactly the design space FgNVM
// opens for NVM.
//
// Meets the same bank contract as nvm::FgNvmBank (nvm/bank.hpp), so the
// controller and runner work unchanged. Refresh is modeled as
// self-contained auto-refresh: every tREFI the bank blocks for tRFC, and
// deadlines that land inside a running refresh stack behind it. The
// refresh schedule is a closed form of time (refresh_end), so the bank's
// probes are pure timing like FgNVM's and the scheduler caches them the
// same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nvm/bank.hpp"

namespace fgnvm::dram {

/// DDR3-1600-like timing expressed at the simulator's controller clock.
mem::TimingParams ddr3_timing(double clock_mhz = 400.0);

class DramBank final {
 public:
  /// `geometry.num_sags` is the subarray count (1 == conventional DRAM
  /// bank); `geometry.num_cds` must be 1 (no column subdivision in DRAM).
  DramBank(const mem::MemGeometry& geometry, const mem::TimingParams& timing);

  bool segments_sensed(const mem::DecodedAddr& a) const {
    return subs_[a.sag].open_row == a.row;
  }
  bool row_open(const mem::DecodedAddr& a) const { return segments_sensed(a); }
  std::uint64_t open_row_of(std::uint64_t sag) const {
    return subs_[sag].open_row;
  }

  /// First cycle >= t outside a refresh window. Deadlines fall at k*tREFI
  /// (k >= 1) and each refresh starts at max(deadline, previous end), so
  /// the k-th refresh ends at max(k*tREFI + tRFC, tREFI + k*tRFC): the
  /// later of "on time" and "every refresh since the first back to back".
  Cycle refresh_end(Cycle t) const {
    if (timing_.tREFI == 0 || t < timing_.tREFI) return t;
    const Cycle k = t / timing_.tREFI;
    return std::max({t, k * timing_.tREFI + timing_.tRFC,
                     timing_.tREFI + k * timing_.tRFC});
  }

  // The address-level probes include refresh; the keyed probes below leave
  // it to the caller, which applies it once per channel (DESIGN.md §8).
  Cycle earliest_activate(const mem::DecodedAddr& a, nvm::ActPurpose p,
                          Cycle now, std::uint64_t extra_cds = 0) const {
    return earliest_activate_key(a.sag, a.row, 0, extra_cds, p,
                                 refresh_end(now));
  }
  Cycle earliest_column(const mem::DecodedAddr& a, OpType op,
                        Cycle now) const {
    return earliest_column_key(a.sag, 0, op, refresh_end(now));
  }

  // Keyed probe variants with the same signatures the statically-dispatched
  // controller uses for FgNvmBank (DESIGN.md §12): keyed by the request
  // index's cached (sag, row, line-CD mask) image. DRAM has no CD dimension,
  // so the masks are ignored.
  bool segments_sensed_key(std::uint64_t sag, std::uint64_t row,
                           std::uint64_t /*line_mask*/) const {
    return subs_[sag].open_row == row;
  }
  Cycle earliest_column_key(std::uint64_t sag, std::uint64_t /*line_mask*/,
                            OpType op, Cycle now) const {
    return std::max(column_floor(), column_sag_key(sag, op, now));
  }
  Cycle earliest_activate_key(std::uint64_t sag, std::uint64_t row,
                              std::uint64_t line_mask, std::uint64_t extra_cds,
                              nvm::ActPurpose p, Cycle now) const {
    return activate_sag_key(sag, row, line_mask, extra_cds, p, now);
  }
  // Floor / SAG-key split of the keyed probes (see FgNvmBank). The column
  // floor is the bank-wide tCCD window; DRAM has no bank-wide ACT lock.
  Cycle column_floor() const {
    return any_col_issued_ ? last_col_ + timing_.tCCD : 0;
  }
  Cycle activate_floor() const { return 0; }
  Cycle column_sag_key(std::uint64_t sag, OpType /*op*/, Cycle now) const {
    return std::max(now, subs_[sag].act_done);
  }
  /// A row switch precharges implicitly (ACT with auto-precharge-style
  /// sequencing): the command can issue once restore (tRAS) and write
  /// recovery (tWR) are done; the tRP delay lands inside issue_activate.
  /// Re-activating the same subarray mid-sense is not possible, and an
  /// explicit (closed-page) precharge must have settled.
  Cycle activate_sag_key(std::uint64_t sag, std::uint64_t row,
                         std::uint64_t /*line_mask*/,
                         std::uint64_t /*extra_cds*/, nvm::ActPurpose /*p*/,
                         Cycle now) const {
    const Subarray& s = subs_[sag];
    Cycle t = now;
    if (s.open_row != kInvalidAddr && s.open_row != row) {
      t = std::max({t, s.ras_until, s.wr_until});
    }
    return std::max({t, s.act_done, s.pre_done});
  }
  /// An ACT senses the whole row, i.e. the one CD, unless the row is open.
  std::uint64_t activate_cds(std::uint64_t sag, std::uint64_t row,
                             std::uint64_t /*line_mask*/,
                             std::uint64_t /*extra_cds*/) const {
    return subs_[sag].open_row == row ? 0 : 1;
  }
  // DRAM column timing has no per-member (CD) component.
  Cycle column_fold_key(std::uint64_t /*line_mask*/, OpType /*op*/,
                        Cycle base) const {
    return base;
  }
  void issue_activate(const mem::DecodedAddr& a, nvm::ActPurpose p, Cycle at,
                      std::uint64_t extra_cds = 0);
  Cycle issue_column(const mem::DecodedAddr& a, OpType op, Cycle at);
  void close_row(const mem::DecodedAddr& a, Cycle at);
  const nvm::BankStats& stats() const { return stats_; }

  // ---- observability (fgnvm::obs): a coarse attribution, since DRAM has
  // no 2-D structure to report on.
  obs::BlockCause activate_block_cause(const mem::DecodedAddr& a,
                                       nvm::ActPurpose p, Cycle now,
                                       std::uint64_t extra_cds = 0) const {
    return earliest_activate(a, p, now, extra_cds) > now
               ? obs::BlockCause::kSagBusy
               : obs::BlockCause::kNone;
  }
  obs::BlockCause column_block_cause(const mem::DecodedAddr& a, OpType op,
                                     Cycle now) const {
    return earliest_column(a, op, now) > now ? obs::BlockCause::kCdBusy
                                             : obs::BlockCause::kNone;
  }
  std::uint64_t active_sags(Cycle /*now*/) const { return 0; }
  std::uint64_t active_cds(Cycle /*now*/) const { return 0; }

 private:
  struct Subarray {
    std::uint64_t open_row = kInvalidAddr;
    Cycle act_done = 0;    // sensing complete (tRCD after ACT)
    Cycle ras_until = 0;   // earliest precharge (restore complete)
    Cycle wr_until = 0;    // write recovery before precharge
    Cycle pre_done = 0;    // explicit (closed-page) precharge completes
  };

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  std::vector<Subarray> subs_;
  Cycle last_col_ = 0;
  bool any_col_issued_ = false;

  nvm::BankStats stats_;
};

}  // namespace fgnvm::dram

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
// Implements the same fgnvm::nvm::Bank interface so the controller and
// runner work unchanged. Refresh is modeled as self-contained auto-refresh:
// every tREFI the bank blocks for tRFC (pipelined catch-up when idle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nvm/bank.hpp"

namespace fgnvm::dram {

/// DDR3-1600-like timing expressed at the simulator's controller clock.
mem::TimingParams ddr3_timing(double clock_mhz = 400.0);

class DramBank final : public nvm::Bank {
 public:
  /// `geometry.num_sags` is the subarray count (1 == conventional DRAM
  /// bank); `geometry.num_cds` must be 1 (no column subdivision in DRAM).
  DramBank(const mem::MemGeometry& geometry, const mem::TimingParams& timing);

  bool segments_sensed(const mem::DecodedAddr& a) const override;
  bool row_open(const mem::DecodedAddr& a) const override;
  std::uint64_t open_row_of(std::uint64_t sag) const override {
    return subs_[sag].open_row;
  }
  // pure_timing() stays false: refresh_clear() advances mutable refresh
  // bookkeeping as queries cross tREFI deadlines, so earliest_* results do
  // not time-shift — the scheduler recomputes this bank's candidates at the
  // querying cycle instead of caching them.
  Cycle earliest_activate(const mem::DecodedAddr& a, nvm::ActPurpose p,
                          Cycle now, std::uint64_t extra_cds = 0) const override;
  Cycle earliest_column(const mem::DecodedAddr& a, OpType op,
                        Cycle now) const override;

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
    return column_base_key(sag, op, now);
  }
  Cycle earliest_activate_key(std::uint64_t sag, std::uint64_t row,
                              std::uint64_t line_mask, std::uint64_t extra_cds,
                              nvm::ActPurpose p, Cycle now) const {
    return activate_sag_key(sag, row, line_mask, extra_cds, p, now);
  }
  // Floor / SAG-key split of the keyed probes (see FgNvmBank). This bank's
  // candidates are recomputed at every query (pure_timing() is false), so
  // nothing caches SAG keys and every term, tCCD and refresh included,
  // lives in the SAG key: the floors are 0.
  Cycle column_floor() const { return 0; }
  Cycle activate_floor() const { return 0; }
  Cycle column_sag_key(std::uint64_t sag, OpType /*op*/, Cycle now) const {
    const Subarray& s = subs_[sag];
    Cycle t = refresh_clear(now);
    t = std::max(t, s.act_done);
    if (any_col_issued_) t = std::max(t, last_col_ + timing_.tCCD);
    return t;
  }
  Cycle activate_sag_key(std::uint64_t sag, std::uint64_t row,
                         std::uint64_t /*line_mask*/,
                         std::uint64_t /*extra_cds*/, nvm::ActPurpose /*p*/,
                         Cycle now) const {
    const Subarray& s = subs_[sag];
    Cycle t = refresh_clear(now);
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
  // DRAM column timing has no per-member (CD) component, so the decomposed
  // probe is the base alone.
  Cycle column_base_key(std::uint64_t sag, OpType op, Cycle now) const {
    return column_sag_key(sag, op, now);
  }
  Cycle column_fold_key(std::uint64_t /*line_mask*/, OpType /*op*/,
                        Cycle base) const {
    return base;
  }
  void issue_activate(const mem::DecodedAddr& a, nvm::ActPurpose p, Cycle at,
                      std::uint64_t extra_cds = 0) override;
  Cycle issue_column(const mem::DecodedAddr& a, OpType op, Cycle at) override;
  void close_row(const mem::DecodedAddr& a, Cycle at) override;
  Cycle busy_until() const override;
  const nvm::BankStats& stats() const override { return stats_; }

  std::uint64_t refreshes_performed() const { return refreshes_; }

 private:
  struct Subarray {
    std::uint64_t open_row = kInvalidAddr;
    Cycle act_done = 0;    // sensing complete (tRCD after ACT)
    Cycle ras_until = 0;   // earliest precharge (restore complete)
    Cycle wr_until = 0;    // write recovery before precharge
    Cycle pre_done = 0;    // explicit (closed-page) precharge completes
  };

  /// Earliest cycle >= t not inside a refresh window; advances the refresh
  /// schedule bookkeeping (mutable because queries may cross deadlines).
  Cycle refresh_clear(Cycle t) const;

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  std::vector<Subarray> subs_;
  Cycle last_col_ = 0;
  bool any_col_issued_ = false;

  mutable Cycle next_refresh_ = 0;
  mutable Cycle refresh_busy_until_ = 0;
  mutable std::uint64_t refreshes_ = 0;

  nvm::BankStats stats_;
};

}  // namespace fgnvm::dram

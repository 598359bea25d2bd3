// The bank contract and the FgNVM access-mode switches.
//
// A bank is the unit behind one set of global I/O lines. The controller asks
// a bank *when* a command could issue (earliest_*) and then commits to it
// (issue_*). Banks track row-buffer / tile-group state and accumulate the raw
// counts (BankStats) the energy model consumes.
//
// There is no bank base class: the two bank kinds (nvm::FgNvmBank,
// dram::DramBank) are value types with the same members, and
// sched::ControllerT<BankT> owns a channel's banks by value. The members are
// the address-level probes and commands (segments_sensed, row_open,
// open_row_of, earliest_*, issue_*, close_row, stats), the keyed probes the
// scheduler's scans call (*_key, column_fold_key — DESIGN.md §12) with their
// bank-floor / SAG-key split (column_floor, activate_floor, activate_cds —
// DESIGN.md §8), the obs queries (*_block_cause, active_sags, active_cds),
// and refresh_end(t): the first cycle >= t outside a refresh window, the
// same pure function of t for every bank of a channel. The keyed probes
// leave refresh out; the address-level earliest_* include it.
//
// Pure timing: with no issue_* / close_row in between, every probe obeys
// earliest(x, t') == max(earliest(x, t), t') for t' >= t. The scheduler
// caches SAG keys computed at t = 0 on that identity and applies the
// floors, refresh_end and the query time when it reads them.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "obs/block_cause.hpp"

namespace fgnvm::nvm {

/// The three access modes of Section 4, individually switchable for
/// ablation. All-off on a 1x1 geometry is exactly the baseline PCM bank.
struct AccessModes {
  bool partial_activation = true;  ///< sense only the needed CD segment(s)
  bool multi_activation = true;    ///< concurrent sensing in distinct SAG+CD
  bool background_writes = true;   ///< write locks only its SAG + CD

  static AccessModes all_on() { return {true, true, true}; }
  static AccessModes all_off() { return {false, false, false}; }
};

/// Raw activity counts; the EnergyModel converts these to pJ.
struct BankStats {
  std::uint64_t acts_for_read = 0;   // activations that sense data
  std::uint64_t acts_for_write = 0;  // wordline selections for writes
  std::uint64_t underfetch_acts = 0; // re-ACT of an open row for more CDs
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bits_sensed = 0;
  std::uint64_t bits_written = 0;

  std::uint64_t activations() const { return acts_for_read + acts_for_write; }

  BankStats& operator+=(const BankStats& o) {
    acts_for_read += o.acts_for_read;
    acts_for_write += o.acts_for_write;
    underfetch_acts += o.underfetch_acts;
    reads += o.reads;
    writes += o.writes;
    bits_sensed += o.bits_sensed;
    bits_written += o.bits_written;
    return *this;
  }
};

/// Purpose of an activation: read activations sense (and pay sensing
/// energy); write activations only select the wordline for the drivers.
enum class ActPurpose : std::uint8_t { kRead, kWrite };

}  // namespace fgnvm::nvm

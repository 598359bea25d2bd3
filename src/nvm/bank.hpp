// Abstract bank model and the FgNVM access-mode switches.
//
// A bank is the unit behind one set of global I/O lines. The controller asks
// a bank *when* a command could issue (earliest_*) and then commits to it
// (issue_*). Banks track row-buffer / tile-group state and accumulate the raw
// counts the energy model consumes.
//
// The interface is virtual for ownership and the cold per-bank queries
// (stats, energy, obs sampling). The scheduler's hot scans instead call the
// keyed probes (segments_sensed_key, earliest_column_key,
// earliest_activate_key, column_base_key, column_fold_key — DESIGN.md §12,
// and their bank-floor / SAG-key split — DESIGN.md §8) that each concrete
// final bank defines inline, through sched::ControllerT<ConcreteBank>.
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
};

/// Purpose of an activation: read activations sense (and pay sensing
/// energy); write activations only select the wordline for the drivers.
enum class ActPurpose : std::uint8_t { kRead, kWrite };

class Bank {
 public:
  virtual ~Bank() = default;

  /// True iff every CD segment the request touches is currently sensed for
  /// the request's row (ignoring timing — see earliest_column for that).
  virtual bool segments_sensed(const mem::DecodedAddr& a) const = 0;

  /// True iff the request's row is the open row in its SAG (wordline
  /// selected), regardless of which segments are sensed.
  virtual bool row_open(const mem::DecodedAddr& a) const = 0;

  /// Open row index of `sag` (kInvalidAddr if none). Lets the scheduler's
  /// per-(bank, row) index enumerate column-ready candidates without
  /// scanning the whole queue. Must agree with row_open: row_open(a) iff
  /// open_row_of(a.sag) == a.row.
  virtual std::uint64_t open_row_of(std::uint64_t sag) const = 0;

  /// True when the earliest_* queries are pure functions of the committed
  /// command history: earliest(a, t') == max(earliest(a, t), t') for any
  /// t' >= t with no issue_*/close_row in between. The scheduler caches
  /// next-event candidates of such banks and invalidates them only when a
  /// command commits. Banks with hidden time-driven state (DRAM refresh
  /// schedules stack deadlines as queries advance) must return false and
  /// are recomputed at the querying cycle instead.
  virtual bool pure_timing() const { return false; }

  /// Earliest cycle >= now at which an activation serving `a` can begin.
  /// `extra_cds` is a CD bitmask the scheduler wants sensed in the same
  /// activation (demand aggregation across queued requests to the same
  /// row); ignored unless partial activation is in effect.
  virtual Cycle earliest_activate(const mem::DecodedAddr& a, ActPurpose p,
                                  Cycle now,
                                  std::uint64_t extra_cds = 0) const = 0;

  /// Earliest cycle >= now at which the column access can issue. For reads
  /// this requires segments_sensed(a); behaviour is undefined otherwise
  /// (the controller must activate first).
  virtual Cycle earliest_column(const mem::DecodedAddr& a, OpType op,
                                Cycle now) const = 0;

  /// Commits an activation starting at `at` (must be >= earliest_activate).
  virtual void issue_activate(const mem::DecodedAddr& a, ActPurpose p,
                              Cycle at, std::uint64_t extra_cds = 0) = 0;

  /// Commits a column access at `at` (must be >= earliest_column).
  /// Reads: returns the cycle the data burst may start on the bus (at+tCAS).
  /// Writes: returns the cycle the write completes at the drivers.
  virtual Cycle issue_column(const mem::DecodedAddr& a, OpType op,
                             Cycle at) = 0;

  /// Closed-page support: relinquish `a`'s row (no-op if not open). NVM
  /// simply drops the sensed state (tRP = 0); DRAM schedules the precharge
  /// so a later row miss skips it.
  virtual void close_row(const mem::DecodedAddr& a, Cycle at) = 0;

  /// Cycle at which the bank last becomes idle (for utilization stats).
  virtual Cycle busy_until() const = 0;

  virtual const BankStats& stats() const = 0;

  // ---- observability (fgnvm::obs) ----------------------------------------
  // Passive queries; the defaults give a coarse generic attribution so bank
  // models without 2-D structure (e.g. DRAM) need no override.

  /// Why an activation serving `a` cannot begin at `now` (kNone if it can).
  virtual obs::BlockCause activate_block_cause(
      const mem::DecodedAddr& a, ActPurpose p, Cycle now,
      std::uint64_t extra_cds = 0) const {
    return earliest_activate(a, p, now, extra_cds) > now
               ? obs::BlockCause::kSagBusy
               : obs::BlockCause::kNone;
  }

  /// Why the column access for `a` cannot issue at `now` (kNone if it can).
  virtual obs::BlockCause column_block_cause(const mem::DecodedAddr& a,
                                             OpType op, Cycle now) const {
    return earliest_column(a, op, now) > now ? obs::BlockCause::kCdBusy
                                             : obs::BlockCause::kNone;
  }

  /// Time-series sampling: SAGs holding an in-progress ACT or write at `now`.
  virtual std::uint64_t active_sags(Cycle now) const {
    (void)now;
    return 0;
  }

  /// Time-series sampling: (SAG, CD) tile groups actively sensing or
  /// programming at `now` (each busy CD serves exactly one tile group).
  virtual std::uint64_t active_cds(Cycle now) const {
    (void)now;
    return 0;
  }
};

}  // namespace fgnvm::nvm

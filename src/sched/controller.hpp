// Per-channel memory controller.
//
// Implements the paper's scheduling setups:
//  * FCFS        — strictly in-order read service (reference point).
//  * FRFCFS      — first-ready (already-sensed segments issue first), then
//                  first-come-first-serve; writes buffered and drained in
//                  bursts between watermarks (Rixner et al.).
//  * FRFCFS_AUG  — the paper's "augmented FRFCFS": additionally SAG/CD-aware;
//                  issues writes opportunistically as Backgrounded Writes
//                  whenever the target (bank, SAG, CD) does not conflict with
//                  any queued read, instead of waiting for a drain burst.
//
// Multi-Issue (Figure 4) is modeled by `issue_width` commands per cycle and
// `bus_lanes` parallel data-bus lanes.
//
// Scheduling is index-driven (DESIGN.md §8): requests live in stable slots
// threaded with per-(bank, SAG) and per-(bank, row) intrusive lists
// (RequestIndex), issue selection walks only eligible group heads /
// open-row lists, and next_event() serves cached per-(bank, SAG)-group
// candidates that are recomputed only for groups a command, enqueue or bus
// flag touched since the last query.
// The pre-index full-queue scans are kept as a reference oracle: with
// cross-checking on (FGNVM_PARANOID, or set_cross_check), every issue
// decision and next_event value is recomputed both ways and compared.
//
// Bank dispatch is static (DESIGN.md §9): the controller is a class template
// over the concrete bank type and owns its banks by value, so the hot
// candidate probes (earliest_*, segments_sensed, open_row_of) resolve at
// compile time and the header-inline ones inline into the selection loops.
// ControllerBase is the thin type-erased facade sys::MemorySystem drives
// (one virtual call per due-channel tick, none per candidate). The two
// instantiations (nvm::FgNvmBank, dram::DramBank) are explicit — see
// controller.cpp; ControllerT bodies live in controller_impl.hpp and are
// not pulled into user TUs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/bus.hpp"
#include "mem/request.hpp"
#include "mem/timing.hpp"
#include "nvm/bank.hpp"
#include "nvm/energy.hpp"
#include "obs/observer.hpp"
#include "sched/request_index.hpp"
#include "sched/write_queue.hpp"

namespace fgnvm::nvm {
class FgNvmBank;
}
namespace fgnvm::dram {
class DramBank;
}

namespace fgnvm::sched {

enum class SchedulerPolicy : std::uint8_t { kFcfs, kFrfcfs, kFrfcfsAugmented };

SchedulerPolicy scheduler_policy_from_string(const std::string& name);
const char* to_string(SchedulerPolicy policy);

/// Row-buffer management: open-page keeps rows sensed for future hits;
/// closed-page relinquishes a row as soon as no queued request wants it
/// (hides DRAM precharge in idle gaps; for NVM it only drops sensed state,
/// so open-page is the natural NVM default).
enum class PagePolicy : std::uint8_t { kOpen, kClosed };

PagePolicy page_policy_from_string(const std::string& name);
const char* to_string(PagePolicy policy);

struct ControllerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFrfcfs;
  PagePolicy page_policy = PagePolicy::kOpen;
  std::uint64_t read_queue_cap = 32;  // Table 2: 32 queue entries
  std::uint64_t write_queue_cap = 64; // Table 2: 64 write drivers
  std::uint64_t wq_high = 32;
  std::uint64_t wq_low = 8;
  std::uint64_t issue_width = 1;      // commands per cycle (Multi-Issue > 1)
  std::uint64_t bus_lanes = 1;        // parallel data bursts (Multi-Issue > 1)
  Cycle drain_idle_timeout = 200;     // quiet cycles before a low-occupancy
                                      // write drain may start
  Cycle bg_write_guard = 150;         // a backgrounded write avoids SAGs the
                                      // read stream touched this recently
  std::uint64_t bg_write_min = 8;     // write-queue occupancy before
                                      // backgrounded writes start
  std::uint64_t bg_write_inflight_max = 8;  // concurrent backgrounded writes
                                            // (bounds read-tail exposure)

  static ControllerConfig from_config(const Config& cfg);
};

namespace detail {
/// FGNVM_PARANOID set, non-empty and not "0". The one parser of that
/// variable; the runner, the controllers and the tile topology call it.
bool paranoid_env();
[[noreturn]] void throw_divergence(const std::string& what);
}  // namespace detail

/// Type-erased controller facade: everything sys::MemorySystem needs to
/// drive one channel. Costs one virtual call per operation on a channel
/// that actually has work — the per-candidate bank probes underneath are
/// statically dispatched inside the ControllerT instantiation.
class ControllerBase {
 public:
  virtual ~ControllerBase() = default;

  /// True if a new request of this type can be accepted this cycle.
  virtual bool can_accept(OpType op) const = 0;

  /// Accepts a request (precondition: can_accept). Writes are posted —
  /// they are reported complete immediately; reads complete via completed().
  virtual void enqueue(mem::MemRequest req, Cycle now) = 0;

  /// Advances one memory cycle: issues up to issue_width commands and
  /// retires finished reads into the completed() list.
  virtual void tick(Cycle now) = 0;

  /// Appends the reads whose data burst finished at or before the last tick
  /// to `out` and clears the internal list. Allocation-free once `out` has
  /// grown.
  virtual void drain_completed(std::vector<mem::MemRequest>& out) = 0;

  /// Earliest cycle > now at which tick() could change any state or stat,
  /// given no new arrivals; kNeverCycle when fully idle. May undershoot
  /// (waking early is a no-op tick) but never overshoots — the
  /// event-skipping runner loops rely on this to stay bit-identical with
  /// cycle stepping.
  virtual Cycle next_event(Cycle now) const = 0;

  /// Runs this channel's event chain from `due` (its cached next_event
  /// value) up to but excluding `horizon`: ticks at every chain cycle
  /// < horizon and returns the first chain cycle >= horizon (or
  /// kNeverCycle when the channel goes idle). Exactly the ticks the
  /// event-skipping loop would run serially — completions accumulate in the
  /// completed() list and are not consulted mid-chain, so the caller must
  /// guarantee nothing outside the channel needs servicing before horizon
  /// (see completion_bound and DESIGN.md §9).
  virtual Cycle advance_to(Cycle due, Cycle horizon) = 0;

  /// Walks the event chain from `due` while the channel cannot accept `op`.
  /// Returns the cycle at which the driver should resume: the cycle after
  /// the tick that freed capacity, or the first chain cycle >= horizon
  /// (kNeverCycle if the chain dies). The same serial tick schedule as
  /// advance_to — completions buffer in completed() and the caller drains
  /// them at the resume cycle.
  virtual Cycle advance_until_accept(Cycle due, OpType op, Cycle horizon) = 0;

  /// Lower bound on the first cycle > now at which this channel could hand
  /// a completion to the caller: now+1 with completions already pending,
  /// else the cycle after the earliest in-flight burst end (the tick at the
  /// end retires the read, the caller drains it the cycle after), else
  /// (reads queued) the channel's next event plus the minimum read service
  /// time plus one; kNeverCycle when no queued or in-flight read exists.
  /// Never overshoots the first completion delivery, so it is a safe
  /// advance_to horizon for a caller waiting only on completions: the
  /// window ends on the delivery cycle itself.
  virtual Cycle completion_bound(Cycle now) const = 0;

  virtual bool idle() const = 0;

  /// Activity counters summed over this channel's banks.
  virtual nvm::BankStats bank_totals() const = 0;
  /// Section-6 energy of this channel's banks over `elapsed` cycles, summed
  /// in bank order. Callers add channels in channel order, so the
  /// floating-point fold is the same in MemorySystem and tile::Topology.
  virtual nvm::EnergyBreakdown energy(const nvm::EnergyModel& model,
                                      Cycle elapsed) const = 0;
  /// Open row of `sag` in the channel's `bank`-th bank (rank-major), or
  /// kInvalidAddr.
  virtual std::uint64_t open_row_of(std::uint64_t bank,
                                    std::uint64_t sag) const = 0;
  virtual const mem::DataBus& bus() const = 0;
  virtual const WriteQueue& write_queue() const = 0;
  virtual const StatSet& stats() const = 0;
  virtual std::uint64_t pending_reads() const = 0;

  /// Enables the reference-oracle cross-check: every issue decision and
  /// next_event value is recomputed with the pre-index full-queue scans and
  /// compared (throws std::runtime_error on divergence). Also switched on
  /// by the FGNVM_PARANOID environment variable at construction.
  virtual void set_cross_check(bool on) = 0;
  virtual bool cross_check() const = 0;

  /// Attaches a request-trace collector (fgnvm::obs). Null (the default)
  /// disables collection: the hot paths then take one pointer test per hook
  /// and allocate nothing — simulated timing and stats are unchanged either
  /// way, since the collector is purely passive.
  virtual void set_collector(obs::ChannelCollector* collector) = 0;

  /// Accumulates this channel's contribution to an epoch sample.
  virtual void sample_obs(Cycle now, obs::ChannelSample& s) const = 0;
};

/// The controller, generic over the concrete bank type (the bank contract
/// is in nvm/bank.hpp). Every bank of the channel starts as a copy of
/// `prototype`. Both instantiations are explicit (see the extern template
/// declarations below).
template <typename BankT>
class ControllerT final : public ControllerBase {
 public:
  ControllerT(const mem::MemGeometry& geometry, const mem::TimingParams& timing,
              const ControllerConfig& cfg, const BankT& prototype);

  bool can_accept(OpType op) const override;
  void enqueue(mem::MemRequest req, Cycle now) override;
  void tick(Cycle now) override;
  void drain_completed(std::vector<mem::MemRequest>& out) override;
  Cycle next_event(Cycle now) const override;
  Cycle advance_to(Cycle due, Cycle horizon) override;
  Cycle advance_until_accept(Cycle due, OpType op, Cycle horizon) override;
  Cycle completion_bound(Cycle now) const override;
  bool idle() const override;

  nvm::BankStats bank_totals() const override;
  nvm::EnergyBreakdown energy(const nvm::EnergyModel& model,
                              Cycle elapsed) const override;
  std::uint64_t open_row_of(std::uint64_t bank,
                            std::uint64_t sag) const override {
    return banks_[bank].open_row_of(sag);
  }
  /// The channel's banks, rank-major (tests probe their timing directly).
  const std::vector<BankT>& banks() const { return banks_; }
  const mem::DataBus& bus() const override { return bus_; }
  const WriteQueue& write_queue() const override { return writes_; }
  const StatSet& stats() const override { return stats_; }
  std::uint64_t pending_reads() const override { return ridx_.size(); }

  void set_cross_check(bool on) override { cross_check_ = on; }
  bool cross_check() const override { return cross_check_; }

  void set_collector(obs::ChannelCollector* collector) override {
    obs_ = collector;
  }
  void sample_obs(Cycle now, obs::ChannelSample& s) const override;

 private:
  struct ReadSlot {
    mem::MemRequest req;
    bool live = false;
  };
  struct InFlight {
    mem::MemRequest req;
    Cycle done;
  };
  /// Outcome of a read-activate selection: the winning slot (or -1) and the
  /// demand-aggregated CD mask the ACT must sense.
  struct ActPick {
    std::int32_t slot = -1;
    std::uint64_t extra_cds = 0;
  };
  /// Outcome of a write selection: the winning write-queue slot (or -1) and
  /// whether it issues an ACT (vs. the column/data phase).
  struct WritePick {
    std::int32_t slot = -1;
    bool activate = false;
  };
  /// Per-bank next-event candidates (DESIGN.md §8): the fold of the bank's
  /// group entries below with the bank floors applied. Minima are computed
  /// with a query time of 0 (pure timing makes them valid at any later
  /// cycle, clamped at query time). Flagged/plain split the sticky
  /// bus_blocked populations: only flagged candidates fold in bus
  /// availability, which is a query-time global and therefore distributes
  /// over the min; refresh_end is another such global.
  struct BankCand {
    Cycle read_col_plain = kNeverCycle;
    Cycle read_col_flagged = kNeverCycle;
    Cycle read_act = kNeverCycle;
    Cycle write_plain = kNeverCycle;
    Cycle write_flagged = kNeverCycle;
    Cycle write_bg_plain = kNeverCycle;    // guard folded per write
    Cycle write_bg_flagged = kNeverCycle;
    bool operator==(const BankCand&) const = default;
  };
  /// Per-(bank, SAG)-group minima of the bank's SAG-local probe keys, with
  /// no bank floor in them (DESIGN.md §8, §12). A floor only ever rises and
  /// max distributes over min, so max(floor, group min) is the exact group
  /// candidate, and a command that moves only a floor leaves every entry
  /// valid. Each entry also keeps the CDs its candidates wait on, which
  /// decide whether a write or ACT elsewhere in the bank moved it.
  /// The read and write halves are recomputed separately, only when their
  /// dirty bit is set (kReadHalf / kWriteHalf in group_dirty_).
  struct GroupReadCand {
    Cycle col_plain = kNeverCycle;
    Cycle col_flagged = kNeverCycle;
    Cycle act = kNeverCycle;       // the head's ACT, if it is not sensed
    std::uint64_t act_cds = 0;     // CDs that ACT would sense
    std::uint64_t col_cds = 0;     // CDs of the sensed open-row reads
  };
  /// Write ACTs and write columns sit behind different bank floors, so the
  /// two stay apart until the floors are applied.
  struct GroupWriteCand {
    Cycle act = kNeverCycle;       // the head's ACT, if off the open row
    Cycle bg_act = kNeverCycle;    // ... as a background write (guarded)
    Cycle col_plain = kNeverCycle;
    Cycle col_flagged = kNeverCycle;
    Cycle bg_col_plain = kNeverCycle;
    Cycle bg_col_flagged = kNeverCycle;
    std::uint64_t col_cds = 0;     // CDs of the open-row writes
  };
  static constexpr std::uint8_t kReadHalf = 1;
  static constexpr std::uint8_t kWriteHalf = 2;
  /// Lazily resolved stat handle: the counter is created on first bump so
  /// the stat-set shape stays identical to the string-keyed original (a
  /// counter that never fires must stay absent from reports).
  struct CounterHandle {
    std::uint64_t* value = nullptr;
  };

  BankT& bank_of(const mem::DecodedAddr& a);
  const BankT& bank_of(const mem::DecodedAddr& a) const;
  std::uint64_t bank_linear(const mem::DecodedAddr& a) const {
    return a.rank * geo_.banks_per_rank + a.bank;
  }
  std::uint64_t sag_group(const mem::DecodedAddr& a) const;
  void bump(CounterHandle& h, const char* name, std::uint64_t delta = 1) {
    if (!h.value) h.value = &stats_.counter_ref(name);
    *h.value += delta;
  }
  /// Invalidates the given halves of group `g` and refolds its bank.
  void mark_group(std::uint64_t g, std::uint8_t halves) const {
    group_dirty_[g] |= halves;
    bank_dirty_[g / geo_.num_sags] = 1;
    global_valid_ = false;
  }
  /// A change of bank `b`'s read CD mask: every background write entry of
  /// the bank filters on it.
  void mark_read_mask_change(std::uint64_t b, std::uint64_t mask_before) const;
  /// Invalidates the entries of bank `b`'s other groups that read CD locks
  /// a command on group `g` raised on `cds`: read-ACT heads that would
  /// sense one of them, and the column candidates whose CD union meets
  /// them (reads only for a write, whose CD write locks the read columns
  /// wait on).
  void mark_cd_locks(std::uint64_t b, std::uint64_t g, std::uint64_t cds,
                     bool write) const;
  /// Recomputes bank `b`'s dirty group halves and refolds the bank.
  void refresh_bank(std::uint64_t b) const;
  static void fold_min(BankCand& acc, const BankCand& c);
  void refresh_global() const;
  /// Cross-check only: recomputes every active group and bank fold from
  /// scratch and throws on any stale cached entry.
  void audit_cand_cache() const;
  GroupReadCand compute_read_group(std::uint64_t b, std::uint32_t g) const;
  GroupWriteCand compute_write_group(std::uint64_t b, std::uint32_t g) const;
  /// The channel's refresh_end (one timing, one schedule for every bank).
  Cycle refresh_end(Cycle t) const { return banks_.front().refresh_end(t); }

  /// In-flight writes still programming at `now` (done > now): a suffix of
  /// the write_done_times_ FIFO, and after tick(now)'s expiry all of it.
  std::vector<Cycle>::const_iterator live_writes_begin(Cycle now) const {
    return std::upper_bound(write_done_times_.begin(),
                            write_done_times_.end(), now);
  }
  std::uint64_t live_writes(Cycle now) const {
    return static_cast<std::uint64_t>(write_done_times_.end() -
                                      live_writes_begin(now));
  }

  std::int32_t alloc_read_slot();
  void free_read_slot(std::int32_t slot);

  /// One issue slot; returns true if a command was issued. `write_done`
  /// tracks whether a write command already issued this cycle — a 150 ns+
  /// program operation never needs more than one issue slot per cycle, and
  /// letting Multi-Issue inject writes every slot only lengthens read tails.
  bool try_issue(Cycle now, bool& write_done);
  bool try_issue_read_column(Cycle now);
  bool try_issue_read_activate(Cycle now);
  bool try_issue_write(Cycle now, bool background_only);

  // ---- issue-commit sequences: the state/stat mutations of the
  // try_issue_* paths once a pick is made, and the tick's retirement ------
  void commit_read_column(std::int32_t slot, Cycle now);
  void commit_write_column(std::int32_t slot, Cycle now, bool background_only);
  void retire_reads(Cycle now);

  // ---- indexed issue selection (side-effect free; commit happens in the
  // try_issue_* wrappers after the optional oracle comparison). to_flag
  // receives only requests not yet bus_blocked. -------------------------
  std::int32_t select_read_column_indexed(
      Cycle now, std::vector<std::int32_t>& to_flag) const;
  ActPick select_read_activate_indexed(Cycle now) const;
  WritePick select_write_indexed(Cycle now, bool background_only,
                                 std::vector<std::int32_t>& to_flag) const;
  Cycle next_event_indexed(Cycle now) const;
  bool write_conflicts_with_reads(const mem::DecodedAddr& w) const;

  /// next_event minus the completions-pending short-circuit. advance_to
  /// walks the chain with this so buffered completions (drained only at the
  /// horizon) do not degrade the window into per-cycle no-op ticks.
  /// Memoised per query cycle until the next tick or enqueue.
  Cycle next_event_internal(Cycle now) const;

  // ---- reference oracle: the pre-index O(queue) scans, preserved verbatim
  // over the global FIFO lists. FCFS read selection keeps inherently
  // arrival-ordered early-exit semantics, so it runs on these directly. ---
  std::int32_t select_read_column_reference(
      Cycle now, std::vector<std::int32_t>& to_flag) const;
  ActPick select_read_activate_reference(Cycle now) const;
  WritePick select_write_reference(Cycle now, bool background_only,
                                   std::vector<std::int32_t>& to_flag) const;
  Cycle next_event_reference(Cycle now) const;
  bool write_conflicts_with_reads_reference(const mem::DecodedAddr& w) const;
  void verify_pick(const char* what, bool same_pick,
                   std::vector<std::int32_t>& flags,
                   std::vector<std::int32_t>& ref_flags) const;

  /// Applies the sticky bus_blocked flags a selection produced (each slot
  /// is a false -> true transition), invalidating the flagged requests'
  /// group halves.
  void apply_read_flags(const std::vector<std::int32_t>& slots);
  void apply_write_flags(const std::vector<std::int32_t>& slots);

  /// End-of-tick classification of why each still-queued request did not
  /// issue this cycle; feeds the obs collector (obs_ != nullptr only).
  void observe_blocking(Cycle now);
  /// Closed-page hook: closes `a`'s row unless another queued request
  /// still wants it.
  void maybe_close_row(const mem::DecodedAddr& a, Cycle now);

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  ControllerConfig cfg_;

  std::vector<BankT> banks_;  // rank-major
  mem::DataBus bus_;

  // Queued reads: stable slot pool (sized once, never reallocates — slot
  // indices and references stay valid for a request's lifetime) plus the
  // group/row index. Arrival order lives in the index's global FIFO list.
  std::vector<ReadSlot> rpool_;
  std::vector<std::int32_t> rfree_;
  const ReadSlot* rpool_base_ = nullptr;  // reallocation guard (assert only)
  RequestIndex ridx_;

  WriteQueue writes_;
  RequestIndex widx_;  // queued writes, keyed by WriteQueue slot index

  // Column issued, burst pending. A FIFO: every burst ends tCAS + tBURST
  // after its issue, so done times rise in issue order.
  std::vector<InFlight> inflight_reads_;
  std::vector<mem::MemRequest> completed_;
  Cycle last_read_activity_ = 0;  // last read enqueue/issue (drain gating)
  std::vector<Cycle> sag_last_read_;  // per (bank, SAG): last read touch
  // In-flight write completions, a FIFO for the same reason (a write ends a
  // fixed offset after its issue); expired at each tick's start.
  std::vector<Cycle> write_done_times_;
  std::uint64_t seq_counter_ = 0;  // sched_seq stamp (arrival total order)

  // next_event candidate cache (mutable: refreshed inside const queries).
  mutable std::vector<BankCand> bank_cand_;
  mutable std::vector<GroupReadCand> group_rcand_;   // per (bank, SAG) group
  mutable std::vector<GroupWriteCand> group_wcand_;
  mutable std::vector<std::uint8_t> group_dirty_;    // kReadHalf | kWriteHalf
  mutable std::vector<std::uint8_t> bank_dirty_;     // bank_cand_ needs a refold
  // Fold of bank_cand_ over all banks, valid while no group has been marked
  // since the fold. Lets the selectors prove "nothing issuable, nothing to
  // flag" in O(1) without touching a single group.
  mutable BankCand global_cand_;
  mutable bool global_valid_ = false;
  // next_event_internal memo: the value at cycle ne_memo_now_, dropped by
  // every tick and enqueue (the only mutations next_event depends on).
  mutable Cycle ne_memo_now_ = kNeverCycle;
  mutable Cycle ne_memo_ = kNeverCycle;

  bool cross_check_ = false;

  // Scratch vectors for the selection paths (members so the hot paths stay
  // allocation-free after warm-up).
  mutable std::vector<std::int32_t> scratch_flags_;
  mutable std::vector<std::int32_t> scratch_ref_flags_;
  mutable std::vector<std::int32_t> scratch_cands_;

  obs::ChannelCollector* obs_ = nullptr;  // request tracing; null = disabled

  StatSet stats_;

  // Cached hot-path stat handles (see CounterHandle).
  CounterHandle h_reads_accepted_, h_reads_forwarded_, h_reads_row_hit_;
  CounterHandle h_writes_accepted_, h_writes_coalesced_;
  CounterHandle h_cmd_read_, h_cmd_act_read_, h_cmd_act_write_;
  CounterHandle h_cmd_write_, h_cmd_write_bg_, h_cmd_write_drain_;
  CounterHandle h_cmd_close_row_, h_bus_col_conflicts_;
  Distribution* d_read_latency_ = nullptr;
  Histogram* h_read_latency_hist_ = nullptr;
};

/// The instantiations live in controller.cpp; everything else sees only
/// these declarations (ControllerT bodies stay out of user TUs).
extern template class ControllerT<nvm::FgNvmBank>;
extern template class ControllerT<dram::DramBank>;

}  // namespace fgnvm::sched

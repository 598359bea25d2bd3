// Hybrid DRAM + NVM memory system with RBLA placement (DESIGN.md §13).
//
// A small DRAM partition sits in front of the FgNVM backend behind the same
// submit/tick/next_event/energy API as MemorySystem. Placement follows the
// row-buffer-locality-aware policy of Yoon et al. (RBLA): the controller
// counts row-buffer *misses* per NVM row (with periodic decay, so stale
// history ages out) and promotes a row into DRAM once its miss counter
// crosses a threshold — rows with poor row-buffer locality pay the full PCM
// array latency on every access and benefit most from DRAM, while
// high-locality rows are served from the NVM row buffer nearly as fast as
// DRAM and stay put (Meza et al.). DRAM capacity is bounded; when full, the
// least-recently-used resident row is demoted (written back) to NVM first.
//
// Migration traffic is modeled as real read+write requests injected through
// the existing controllers, so timing, the write queue, forwarding and the
// event-skipping loops stay honest. One migration is in flight at a time,
// and mig_wake_ bounds every skip window while it runs: any cycle at which
// the engine injects a request is a loop iteration in every mode.
//
// Determinism: every engine decision keys off submit cycles, completion
// arrival cycles and the per-channel due caches — never off "tick was
// called every cycle" — so the hybrid stays bit-identical across the three
// LoopModes (the equiv/paranoid suites enforce this).
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sys/memory_system.hpp"

namespace fgnvm::sys {

/// RBLA policy knobs. Config keys: hybrid_dram_banks, hybrid_dram_rows,
/// hybrid_dram_subarrays, hybrid_threshold, hybrid_epoch,
/// hybrid_decay_shift.
struct HybridConfig {
  std::uint64_t dram_banks = 8;     ///< banks in the DRAM partition (pow2)
  std::uint64_t dram_rows = 64;     ///< row slots per DRAM bank (pow2)
  std::uint64_t dram_subarrays = 1; ///< SALP subarrays per DRAM bank
  std::uint64_t migration_threshold = 4;  ///< misses before promotion
  Cycle migration_epoch = 50'000;   ///< decay period (memory cycles)
  std::uint64_t decay_shift = 1;    ///< counters >>= shift per epoch (<= 15)

  std::uint64_t dram_slots() const { return dram_banks * dram_rows; }

  /// Throws std::runtime_error on the first invalid value.
  void validate() const;

  static HybridConfig from_config(const Config& cfg);
  /// Writes the hybrid_* keys back into `cfg` (round-trip counterpart of
  /// from_config).
  void to_config(Config& cfg) const;
};

/// Full description of a hybrid system: the FgNVM backend plus the DRAM
/// partition's timing/energy/controller and the RBLA policy.
struct HybridSystemConfig {
  SystemConfig nvm;                 ///< backend; bank_kind must be kFgNvm
  mem::TimingParams dram_timing;    ///< defaults to dram::ddr3_timing()
  nvm::EnergyParams dram_energy;    ///< defaults to DRAM-like constants
  sched::ControllerConfig dram_controller;  ///< defaults to plain FRFCFS
  HybridConfig hybrid;

  HybridSystemConfig();

  /// Reads the SystemConfig keys (for the NVM backend) plus the hybrid_*
  /// keys. Throws if bank_kind is not fgnvm or any hybrid key is invalid.
  static HybridSystemConfig from_config(const Config& cfg);
};

/// The tentpole: MemorySystem with a DRAM partition appended as an extra
/// channel, an RBLA miss-counter table over the NVM rows, a remap table of
/// promoted rows, and a four-phase migration engine (demote read -> demote
/// write -> promote read -> promote write) that injects real requests.
class HybridMemorySystem final : public MemorySystem {
 public:
  /// cpu_tag carried by injected migration requests; never collides with a
  /// core index, and drain_completed() filters these before the CPU model
  /// sees them.
  static constexpr std::uint64_t kMigrationTag =
      std::numeric_limits<std::uint64_t>::max();

  explicit HybridMemorySystem(const HybridSystemConfig& cfg);

  bool can_accept(Addr addr, OpType op) const override;
  RequestId submit(Addr addr, OpType op, Cycle now,
                   std::uint64_t cpu_tag = 0) override;
  void tick(Cycle now) override;
  void drain_completed(std::vector<mem::MemRequest>& out) override;
  Cycle next_event(Cycle now) const override;
  Cycle completion_bound(Cycle now) const override;
  Cycle accept_event(Addr addr) const override;
  Cycle advance_until_accept(Addr addr, OpType op, Cycle limit) override;
  bool idle() const override;
  nvm::EnergyBreakdown energy(Cycle elapsed) const override;
  StatSet controller_stats() const override;
  void finalize_obs(Cycle end) override;

  // -- introspection (tests / ablation) -----------------------------------
  const HybridSystemConfig& hybrid_config() const { return hcfg_; }
  std::uint64_t migrations_completed() const { return migrations_; }
  std::uint64_t demotions_completed() const { return demotions_; }
  std::uint64_t migration_triggers() const { return triggers_; }
  std::uint64_t dram_hits() const { return dram_hits_; }
  std::uint64_t nvm_accesses() const { return nvm_accesses_; }
  std::uint64_t migration_reads() const { return mig_reads_; }
  std::uint64_t migration_writes() const { return mig_writes_; }
  std::uint64_t dram_resident_rows() const { return remap_.size(); }
  bool migration_in_flight() const { return mig_.phase != Phase::kIdle; }
  bool dram_resident(Addr addr) const;
  /// Current RBLA miss counter of the NVM row `addr` maps to.
  std::uint64_t rbl_miss_count(Addr addr) const;
  double dram_hit_rate() const {
    const std::uint64_t total = dram_hits_ + nvm_accesses_;
    return total == 0 ? 0.0
                      : static_cast<double>(dram_hits_) /
                            static_cast<double>(total);
  }

 protected:
  void augment_sample(obs::TimeSeriesSample& s) const override;

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kDemoteRead,   // reading the LRU victim's lines out of DRAM
    kDemoteWrite,  // writing the victim back to its NVM row
    kPromoteRead,  // reading the promoted row's lines out of NVM
    kPromoteWrite  // writing the promoted row into its DRAM slot
  };
  /// One in-flight migration. `submitted`/`returned` track the current
  /// phase's line requests; both reset at each phase transition.
  struct Migration {
    Phase phase = Phase::kIdle;
    std::uint64_t promote_key = 0;  // NVM row being promoted
    std::uint64_t demote_key = 0;   // resident row being evicted (if any)
    std::uint32_t slot = 0;         // DRAM slot involved
    std::uint64_t submitted = 0;
    std::uint64_t returned = 0;
    Cycle last_completion = 0;  // latest completion cycle drained this phase
  };
  struct RowLoc {
    std::uint64_t channel, rank, bank, row;
  };
  static constexpr std::uint64_t kNoRow =
      std::numeric_limits<std::uint64_t>::max();

  static std::vector<ExtraChannel> dram_partition(
      const HybridSystemConfig& cfg);
  static mem::MemGeometry dram_geometry(const HybridSystemConfig& cfg);

  std::uint64_t row_key(const mem::DecodedAddr& d) const;
  RowLoc row_loc(std::uint64_t key) const;
  /// Channel index the (possibly remapped) address is served from.
  std::uint64_t route(const mem::DecodedAddr& d) const;
  /// DecodedAddr of line `col` of DRAM slot `slot`, carrying the original
  /// raw address `raw` so forwarding/coalescing line identity is preserved.
  mem::DecodedAddr dram_line_addr(std::uint32_t slot, std::uint64_t col,
                                  Addr raw) const;
  /// DecodedAddr (and raw address) of line `col` of the NVM row `key`.
  mem::DecodedAddr nvm_line_addr(std::uint64_t key, std::uint64_t col) const;
  mem::DecodedAddr phase_line_addr(std::uint64_t col) const;
  std::uint64_t phase_channel() const;

  void maybe_decay(Cycle now);
  void start_migration(std::uint64_t key, Cycle now);
  /// Runs the migration state machine at `now` (post-channel-tick): pumps
  /// the current phase's requests as far as backpressure allows, performs
  /// phase transitions, and recomputes mig_wake_.
  void engine_step(Cycle now);
  void pump(Cycle now);
  Cycle channel_wake(std::uint64_t ch, Cycle now) const;

  HybridSystemConfig hcfg_;
  mem::MemGeometry dram_geo_;
  nvm::EnergyModel dram_energy_model_;
  std::uint64_t dram_ch_;   // global channel index of the DRAM partition
  std::uint64_t lines_;     // cache lines per NVM row (== per DRAM slot)

  // RBLA bookkeeping: flat misses-per-row table over every NVM row
  // (saturating at 0xFFFF), decayed by decay_shift once per elapsed
  // migration_epoch (applied lazily at the first NVM access of the epoch).
  std::vector<std::uint16_t> rbl_;
  std::uint64_t last_epoch_ = 0;

  // Promotion map: NVM row key -> DRAM slot, plus the inverse and an LRU
  // stamp per slot (ties broken by the lower slot index — deterministic).
  std::unordered_map<std::uint64_t, std::uint32_t> remap_;
  std::vector<std::uint64_t> slot_row_;
  std::vector<Cycle> slot_last_use_;
  std::uint32_t next_free_slot_ = 0;

  Migration mig_;
  /// Next cycle the engine needs a real tick to make progress (submitting
  /// blocked requests, the cycle a fresh trigger armed, or — every line in
  /// flight — the next completion delivery cycle, which completion_bound
  /// returns); kNeverCycle while idle. next_event/completion_bound/
  /// advance_until_accept clamp to it so no loop window skips past an
  /// injection cycle.
  Cycle mig_wake_ = kNeverCycle;

  std::uint64_t migrations_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t triggers_ = 0;
  std::uint64_t dram_hits_ = 0;
  std::uint64_t nvm_accesses_ = 0;
  std::uint64_t mig_reads_ = 0;
  std::uint64_t mig_writes_ = 0;
};

}  // namespace fgnvm::sys

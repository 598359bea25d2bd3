#include "sys/hybrid.hpp"

#include <algorithm>
#include <stdexcept>

#include "dram/dram_bank.hpp"

namespace fgnvm::sys {

namespace {

bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

void HybridConfig::validate() const {
  if (!is_pow2(dram_banks)) {
    throw std::runtime_error("hybrid_dram_banks must be a power of two");
  }
  if (!is_pow2(dram_rows)) {
    throw std::runtime_error("hybrid_dram_rows must be a power of two");
  }
  if (!is_pow2(dram_subarrays) || dram_subarrays > dram_rows) {
    throw std::runtime_error(
        "hybrid_dram_subarrays must be a power of two <= hybrid_dram_rows");
  }
  if (migration_threshold == 0 || migration_threshold > 0xFFFF) {
    // The per-row miss counters saturate at 0xFFFF; a larger threshold
    // could never fire.
    throw std::runtime_error("hybrid_threshold must be in [1, 65535]");
  }
  if (migration_epoch == 0) {
    throw std::runtime_error("hybrid_epoch must be >= 1");
  }
  if (decay_shift > 15) {
    throw std::runtime_error("hybrid_decay_shift must be <= 15");
  }
}

HybridConfig HybridConfig::from_config(const Config& cfg) {
  HybridConfig hc;
  hc.dram_banks = cfg.get_u64("hybrid_dram_banks", hc.dram_banks);
  hc.dram_rows = cfg.get_u64("hybrid_dram_rows", hc.dram_rows);
  hc.dram_subarrays = cfg.get_u64("hybrid_dram_subarrays", hc.dram_subarrays);
  hc.migration_threshold =
      cfg.get_u64("hybrid_threshold", hc.migration_threshold);
  hc.migration_epoch = cfg.get_u64("hybrid_epoch", hc.migration_epoch);
  hc.decay_shift = cfg.get_u64("hybrid_decay_shift", hc.decay_shift);
  hc.validate();
  return hc;
}

void HybridConfig::to_config(Config& cfg) const {
  cfg.set_u64("hybrid_dram_banks", dram_banks);
  cfg.set_u64("hybrid_dram_rows", dram_rows);
  cfg.set_u64("hybrid_dram_subarrays", dram_subarrays);
  cfg.set_u64("hybrid_threshold", migration_threshold);
  cfg.set_u64("hybrid_epoch", migration_epoch);
  cfg.set_u64("hybrid_decay_shift", decay_shift);
}

HybridSystemConfig::HybridSystemConfig() {
  dram_timing = dram::ddr3_timing();
  // DRAM energy constants: symmetric ~1 pJ/bit access (no PCM write
  // asymmetry, every written bit toggles the cell), higher background
  // (refresh + peripheral) than the non-volatile array.
  dram_energy.read_pj_per_bit = 1.0;
  dram_energy.write_pj_per_bit = 1.0;
  dram_energy.background_pj_per_bank_cycle = 30.0;
  dram_energy.write_flip_fraction = 1.0;
  dram_controller.policy = sched::SchedulerPolicy::kFrfcfs;
}

HybridSystemConfig HybridSystemConfig::from_config(const Config& cfg) {
  HybridSystemConfig hc;
  hc.nvm = SystemConfig::from_config(cfg);
  if (hc.nvm.bank_kind != BankKind::kFgNvm) {
    throw std::runtime_error(
        "HybridSystemConfig: backend bank_kind must be fgnvm");
  }
  hc.hybrid = HybridConfig::from_config(cfg);
  return hc;
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

mem::MemGeometry HybridMemorySystem::dram_geometry(
    const HybridSystemConfig& cfg) {
  mem::MemGeometry g;
  g.channels = 1;
  g.ranks_per_channel = 1;
  g.banks_per_rank = cfg.hybrid.dram_banks;
  // One DRAM row caches exactly one NVM row (same row_bytes/line_bytes), so
  // migration moves whole rows and the column index carries over unchanged.
  g.rows_per_bank = cfg.hybrid.dram_rows;
  g.row_bytes = cfg.nvm.geometry.row_bytes;
  g.line_bytes = cfg.nvm.geometry.line_bytes;
  g.num_sags = cfg.hybrid.dram_subarrays;
  g.num_cds = 1;  // DramBank requires an undivided row
  g.validate();
  return g;
}

std::vector<MemorySystem::ExtraChannel> HybridMemorySystem::dram_partition(
    const HybridSystemConfig& cfg) {
  if (cfg.nvm.bank_kind != BankKind::kFgNvm) {
    throw std::runtime_error(
        "HybridMemorySystem: backend bank_kind must be fgnvm");
  }
  cfg.hybrid.validate();
  ExtraChannel ex;
  ex.kind = BankKind::kDram;
  ex.geometry = dram_geometry(cfg);
  ex.timing = cfg.dram_timing;
  ex.controller = cfg.dram_controller;
  return {ex};
}

HybridMemorySystem::HybridMemorySystem(const HybridSystemConfig& cfg)
    : MemorySystem(cfg.nvm, dram_partition(cfg)),
      hcfg_(cfg),
      dram_geo_(dram_geometry(cfg)),
      dram_energy_model_(cfg.dram_energy),
      dram_ch_(cfg.nvm.geometry.channels),
      lines_(cfg.nvm.geometry.lines_per_row()) {
  const mem::MemGeometry& g = cfg_.geometry;
  rbl_.assign(g.total_banks() * g.rows_per_bank, 0);
  slot_row_.assign(hcfg_.hybrid.dram_slots(), kNoRow);
  slot_last_use_.assign(hcfg_.hybrid.dram_slots(), 0);
}

// ---------------------------------------------------------------------------
// Address plumbing
// ---------------------------------------------------------------------------

std::uint64_t HybridMemorySystem::row_key(const mem::DecodedAddr& d) const {
  const mem::MemGeometry& g = cfg_.geometry;
  return ((d.channel * g.ranks_per_channel + d.rank) * g.banks_per_rank +
          d.bank) *
             g.rows_per_bank +
         d.row;
}

HybridMemorySystem::RowLoc HybridMemorySystem::row_loc(
    std::uint64_t key) const {
  const mem::MemGeometry& g = cfg_.geometry;
  RowLoc loc;
  loc.row = key % g.rows_per_bank;
  key /= g.rows_per_bank;
  loc.bank = key % g.banks_per_rank;
  key /= g.banks_per_rank;
  loc.rank = key % g.ranks_per_channel;
  loc.channel = key / g.ranks_per_channel;
  return loc;
}

std::uint64_t HybridMemorySystem::route(const mem::DecodedAddr& d) const {
  return remap_.count(row_key(d)) != 0 ? dram_ch_ : d.channel;
}

mem::DecodedAddr HybridMemorySystem::dram_line_addr(std::uint32_t slot,
                                                    std::uint64_t col,
                                                    Addr raw) const {
  mem::DecodedAddr d;
  // Keep the ORIGINAL raw address: store-to-load forwarding and write
  // coalescing key on it, so a request keeps its line identity no matter
  // which partition currently serves it.
  d.addr = raw;
  d.channel = dram_ch_;
  d.rank = 0;
  d.bank = slot % hcfg_.hybrid.dram_banks;
  d.row = slot / hcfg_.hybrid.dram_banks;
  d.col = col;
  d.sag = d.row / dram_geo_.rows_per_sag();
  d.cd = 0;
  d.cd_count = 1;
  return d;
}

mem::DecodedAddr HybridMemorySystem::nvm_line_addr(std::uint64_t key,
                                                   std::uint64_t col) const {
  const RowLoc loc = row_loc(key);
  return decoder_.decode(
      decoder_.encode(loc.channel, loc.rank, loc.bank, loc.row, col));
}

mem::DecodedAddr HybridMemorySystem::phase_line_addr(std::uint64_t col) const {
  switch (mig_.phase) {
    case Phase::kDemoteRead:
      return dram_line_addr(mig_.slot, col,
                            nvm_line_addr(mig_.demote_key, col).addr);
    case Phase::kDemoteWrite:
      return nvm_line_addr(mig_.demote_key, col);
    case Phase::kPromoteRead:
      return nvm_line_addr(mig_.promote_key, col);
    case Phase::kPromoteWrite:
    default:
      return dram_line_addr(mig_.slot, col,
                            nvm_line_addr(mig_.promote_key, col).addr);
  }
}

std::uint64_t HybridMemorySystem::phase_channel() const {
  switch (mig_.phase) {
    case Phase::kDemoteRead:
    case Phase::kPromoteWrite:
      return dram_ch_;
    case Phase::kDemoteWrite:
      return row_loc(mig_.demote_key).channel;
    case Phase::kPromoteRead:
    default:
      return row_loc(mig_.promote_key).channel;
  }
}

// ---------------------------------------------------------------------------
// Demand path
// ---------------------------------------------------------------------------

bool HybridMemorySystem::can_accept(Addr addr, OpType op) const {
  return channels_[route(decoder_.decode(addr))]->can_accept(op);
}

RequestId HybridMemorySystem::submit(Addr addr, OpType op, Cycle now,
                                     std::uint64_t cpu_tag) {
  (op == OpType::kRead ? submitted_reads_ : submitted_writes_) += 1;
  const mem::DecodedAddr d = decoder_.decode(addr);
  const std::uint64_t key = row_key(d);
  const auto it = remap_.find(key);
  if (it != remap_.end()) {
    ++dram_hits_;
    slot_last_use_[it->second] = now;
    return submit_decoded(dram_line_addr(it->second, d.col, addr), op, now,
                          cpu_tag, now);
  }
  ++nvm_accesses_;
  maybe_decay(now);
  // RBLA: count row-buffer misses per row. The bank's open-row state is
  // identical pre-tick across all LoopModes (the §9/§12 invariant), so the
  // counter — and every migration it triggers — is mode-invariant too.
  const mem::MemGeometry& g = cfg_.geometry;
  if (channels_[d.channel]->open_row_of(d.rank * g.banks_per_rank + d.bank,
                                        d.sag) != d.row) {
    if (rbl_[key] < 0xFFFF) ++rbl_[key];
    if (mig_.phase == Phase::kIdle &&
        rbl_[key] >= hcfg_.hybrid.migration_threshold) {
      start_migration(key, now);
    }
  }
  return submit_decoded(d, op, now, cpu_tag, now);
}

void HybridMemorySystem::maybe_decay(Cycle now) {
  const std::uint64_t epoch = now / hcfg_.hybrid.migration_epoch;
  if (epoch == last_epoch_) return;
  const std::uint64_t steps = epoch - last_epoch_;
  last_epoch_ = epoch;
  const std::uint64_t shift =
      std::min<std::uint64_t>(steps * hcfg_.hybrid.decay_shift, 16);
  if (shift == 0) return;
  if (shift >= 16) {
    std::fill(rbl_.begin(), rbl_.end(), 0);
    return;
  }
  for (std::uint16_t& c : rbl_) c = static_cast<std::uint16_t>(c >> shift);
}

// ---------------------------------------------------------------------------
// Migration engine
// ---------------------------------------------------------------------------

void HybridMemorySystem::start_migration(std::uint64_t key, Cycle now) {
  ++triggers_;
  mig_ = Migration{};
  mig_.promote_key = key;
  if (next_free_slot_ < slot_row_.size()) {
    mig_.slot = next_free_slot_++;
    mig_.phase = Phase::kPromoteRead;
  } else {
    // DRAM full: demote the LRU resident first (ties -> lowest slot index,
    // so victim selection is deterministic).
    std::uint32_t victim = 0;
    for (std::uint32_t s = 1; s < slot_last_use_.size(); ++s) {
      if (slot_last_use_[s] < slot_last_use_[victim]) victim = s;
    }
    mig_.slot = victim;
    mig_.demote_key = slot_row_[victim];
    mig_.phase = Phase::kDemoteRead;
  }
  mig_wake_ = now;  // first engine_step runs inside this cycle's tick
}

void HybridMemorySystem::pump(Cycle now) {
  const OpType op = (mig_.phase == Phase::kDemoteWrite ||
                     mig_.phase == Phase::kPromoteWrite)
                        ? OpType::kWrite
                        : OpType::kRead;
  const std::uint64_t ch = phase_channel();
  while (mig_.submitted < lines_ && channels_[ch]->can_accept(op)) {
    // arm = now + 1: the channel already ticked at `now`; eager mode would
    // first see a request injected from inside tick() at now + 1.
    submit_decoded(phase_line_addr(mig_.submitted), op, now, kMigrationTag,
                   now + 1);
    ++mig_.submitted;
    (op == OpType::kRead ? mig_reads_ : mig_writes_) += 1;
  }
}

void HybridMemorySystem::engine_step(Cycle now) {
  if (mig_.phase == Phase::kIdle) return;
  // Sequential cascade: one tick can carry a phase from completion straight
  // into the next phase's first submissions.
  if (mig_.phase == Phase::kDemoteRead) {
    pump(now);
    if (mig_.returned == lines_) {
      mig_.phase = Phase::kDemoteWrite;
      mig_.submitted = mig_.returned = 0;
      mig_.last_completion = 0;
    }
  }
  if (mig_.phase == Phase::kDemoteWrite) {
    pump(now);
    if (mig_.submitted == lines_) {
      // Writes are posted: once the last line is accepted, the victim's NVM
      // copy is authoritative and the mapping flips back.
      remap_.erase(mig_.demote_key);
      rbl_[mig_.demote_key] = 0;
      slot_row_[mig_.slot] = kNoRow;
      ++demotions_;
      mig_.phase = Phase::kPromoteRead;
      mig_.submitted = mig_.returned = 0;
      mig_.last_completion = 0;
    }
  }
  if (mig_.phase == Phase::kPromoteRead) {
    pump(now);
    if (mig_.returned == lines_) {
      mig_.phase = Phase::kPromoteWrite;
      mig_.submitted = mig_.returned = 0;
      mig_.last_completion = 0;
    }
  }
  if (mig_.phase == Phase::kPromoteWrite) {
    pump(now);
    if (mig_.submitted == lines_) {
      remap_.emplace(mig_.promote_key, mig_.slot);
      slot_row_[mig_.slot] = mig_.promote_key;
      slot_last_use_[mig_.slot] = now;
      rbl_[mig_.promote_key] = 0;
      ++migrations_;
      mig_ = Migration{};
      mig_wake_ = kNeverCycle;
      return;
    }
  }
  // Blocked on backpressure: retry when the target channel's state next
  // changes (its due cache / next_event never overshoots, so no mode can
  // miss the cycle capacity frees). All lines in flight: wake at the next
  // completion delivery cycle (completion_bound ends on it), so
  // event-skipping loops iterate (and drain) at exactly the cycles the
  // eager reference would — the read -> write phase flip happens the cycle
  // after the last line lands in every mode.
  // Invariant: mig_wake_ is finite whenever a migration is in flight.
  if (mig_.submitted < lines_) {
    mig_wake_ = channel_wake(phase_channel(), now);
  } else {
    const Cycle bound = MemorySystem::completion_bound(now);
    mig_wake_ = bound == kNeverCycle ? now + 1 : std::max(bound, now + 1);
  }
}

Cycle HybridMemorySystem::channel_wake(std::uint64_t ch, Cycle now) const {
  if (lazy_) {
    const Cycle due = due_[ch];
    if (due == kNeverCycle) return now + 1;  // unreachable when blocked
    return std::max(due, now + 1);
  }
  const Cycle ev = channels_[ch]->next_event(now);
  return ev == kNeverCycle ? now + 1 : std::max(ev, now + 1);
}

// ---------------------------------------------------------------------------
// Driver API overrides
// ---------------------------------------------------------------------------

void HybridMemorySystem::tick(Cycle now) {
  MemorySystem::tick(now);
  engine_step(now);
}

void HybridMemorySystem::drain_completed(std::vector<mem::MemRequest>& out) {
  MemorySystem::drain_completed(out);
  if (out.empty() || mig_.phase == Phase::kIdle) return;
  std::uint64_t drained = 0;
  Cycle last = 0;
  const auto keep = std::remove_if(
      out.begin(), out.end(), [&](const mem::MemRequest& r) {
        if (r.cpu_tag != kMigrationTag) return false;
        ++drained;
        last = std::max(last, r.completion);
        return true;
      });
  if (drained == 0) return;
  out.erase(keep, out.end());
  mig_.returned += drained;
  mig_.last_completion = std::max(mig_.last_completion, last);
  if ((mig_.phase == Phase::kDemoteRead ||
       mig_.phase == Phase::kPromoteRead) &&
      mig_.returned == lines_) {
    // Completions are delivered at their completion cycle in every LoopMode
    // (the completion_bound contract), so this wake — the cycle after the
    // last line landed — is mode-invariant.
    mig_wake_ = mig_.last_completion + 1;
  }
}

Cycle HybridMemorySystem::next_event(Cycle now) const {
  const Cycle base = MemorySystem::next_event(now);
  if (mig_wake_ == kNeverCycle) return base;
  return std::min(base, std::max(mig_wake_, now + 1));
}

Cycle HybridMemorySystem::completion_bound(Cycle now) const {
  const Cycle base = MemorySystem::completion_bound(now);
  if (mig_wake_ == kNeverCycle) return base;
  // Clamp windows that wait only on completions too: no advance may run
  // past a cycle at which the engine injects requests.
  return std::min(base, std::max(mig_wake_, now + 1));
}

Cycle HybridMemorySystem::accept_event(Addr addr) const {
  const Cycle due = due_[route(decoder_.decode(addr))];
  return mig_wake_ == kNeverCycle ? due : std::min(due, mig_wake_);
}

Cycle HybridMemorySystem::advance_until_accept(Addr addr, OpType op,
                                               Cycle limit) {
  if (mig_wake_ != kNeverCycle) limit = std::min(limit, mig_wake_);
  // Walk the channel the request actually routes to (a remapped row blocks
  // on the DRAM partition, not its home NVM channel); no channel runs past
  // the engine's next injection cycle.
  const Cycle resume =
      walk_until_accept(route(decoder_.decode(addr)), op, limit);
  return mig_wake_ == kNeverCycle ? resume : std::min(resume, mig_wake_);
}

bool HybridMemorySystem::idle() const {
  return mig_.phase == Phase::kIdle && MemorySystem::idle();
}

nvm::EnergyBreakdown HybridMemorySystem::energy(Cycle elapsed) const {
  nvm::EnergyBreakdown sum;
  for (std::uint64_t ch = 0; ch < channels_.size(); ++ch) {
    const nvm::EnergyModel& model =
        ch == dram_ch_ ? dram_energy_model_ : energy_model_;
    sum += channels_[ch]->energy(model, elapsed);
  }
  return sum;
}

StatSet HybridMemorySystem::controller_stats() const {
  StatSet merged = MemorySystem::controller_stats();
  merged.counter_ref("hybrid_migrations") = migrations_;
  merged.counter_ref("hybrid_demotions") = demotions_;
  merged.counter_ref("hybrid_triggers") = triggers_;
  merged.counter_ref("hybrid_dram_hits") = dram_hits_;
  merged.counter_ref("hybrid_nvm_accesses") = nvm_accesses_;
  merged.counter_ref("hybrid_mig_reads") = mig_reads_;
  merged.counter_ref("hybrid_mig_writes") = mig_writes_;
  return merged;
}

void HybridMemorySystem::augment_sample(obs::TimeSeriesSample& s) const {
  s.migrations = migrations_;
  s.dram_hit_rate = dram_hit_rate();
}

void HybridMemorySystem::finalize_obs(Cycle end) {
  if (!obs_) return;
  const auto& samples = obs_->series().samples();
  if (!samples.empty() && samples.back().cycle >= end) return;
  // One trailing sample so the migration / DRAM-hit-rate channels reconcile
  // exactly with the end-of-run counters (the last epoch sample can predate
  // the final migration).
  obs_->record_sample(build_sample(end));
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

bool HybridMemorySystem::dram_resident(Addr addr) const {
  return remap_.count(row_key(decoder_.decode(addr))) != 0;
}

std::uint64_t HybridMemorySystem::rbl_miss_count(Addr addr) const {
  return rbl_[row_key(decoder_.decode(addr))];
}

}  // namespace fgnvm::sys

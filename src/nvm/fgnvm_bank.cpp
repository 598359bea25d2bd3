#include "nvm/fgnvm_bank.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace fgnvm::nvm {

namespace {
constexpr std::uint64_t full_mask(std::uint64_t n) {
  return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}
}  // namespace

FgNvmBank::FgNvmBank(const mem::MemGeometry& geometry,
                     const mem::TimingParams& timing, AccessModes modes)
    : geo_(geometry),
      timing_(timing),
      modes_(modes),
      sags_(geometry.num_sags),
      cd_sense_lock_(geometry.num_cds, 0),
      cd_write_lock_(geometry.num_cds, 0),
      all_cds_mask_(full_mask(geometry.num_cds)) {
  if (geometry.num_cds > 64) {
    throw std::runtime_error("FgNvmBank: at most 64 CDs supported");
  }
}

void FgNvmBank::issue_activate(const mem::DecodedAddr& a, ActPurpose p,
                               Cycle at, std::uint64_t extra_cds) {
  assert(at >= earliest_activate(a, p, at, extra_cds));
  SagState& s = sags_[a.sag];
  // Read ACTs sense the needed CDs the open row lacks (all of them on a row
  // switch); taken before the switch resets the sensed mask.
  const std::uint64_t cds =
      p == ActPurpose::kRead ? activate_cds(a.sag, a.row, line_cds(a), extra_cds)
                             : 0;

  const bool same_row = (s.open_row == a.row);
  if (!same_row) {
    // Row switch: PCM has tRP == 0, the old row buffer contents are simply
    // abandoned (non-destructive reads, nothing to restore).
    s.open_row = a.row;
    s.sensed = 0;
  }

  const Cycle done = at + timing_.tRCD;
  s.lock_until = std::max(s.lock_until, done);
  if (!modes_.multi_activation) global_act_lock_ = std::max(global_act_lock_, done);

  if (p == ActPurpose::kRead) {
    std::uint64_t nsegs = 0;
    for (std::uint64_t cd = 0, m = cds; m != 0; ++cd, m >>= 1) {
      if (m & 1) {
        cd_sense_lock_[cd] = std::max(cd_sense_lock_[cd], done);
        ++nsegs;
      }
    }
    if (same_row && s.sensed != 0 && nsegs != 0) ++stats_.underfetch_acts;
    s.sensed |= cds;
    s.sense_ready = std::max(s.sense_ready, done);
    ++stats_.acts_for_read;
    stats_.bits_sensed += nsegs * geo_.segment_bytes() * 8;
  } else {
    // Write activation: wordline selection only, no sensing energy and no
    // bitline occupancy beyond the SAG lock.
    ++stats_.acts_for_write;
  }
}

Cycle FgNvmBank::issue_column(const mem::DecodedAddr& a, OpType op, Cycle at) {
  assert(at >= earliest_column(a, op, at));
  SagState& s = sags_[a.sag];
  last_col_ = at;
  any_col_issued_ = true;

  if (op == OpType::kRead) {
    assert(segments_sensed(a));
    ++stats_.reads;
    return at + timing_.tCAS;
  }

  assert(s.open_row == a.row);
  const Cycle done = at + timing_.write_occupancy(geo_.line_bytes * 8);
  ++stats_.writes;
  stats_.bits_written += geo_.line_bytes * 8;
  // Writing corrupts nothing, but the row buffer of this SAG no longer
  // matches the array for the written CDs; conservatively drop them so a
  // later read re-senses fresh data.
  s.sensed &= ~line_cds(a);

  if (modes_.background_writes) {
    s.lock_until = std::max(s.lock_until, done);
    s.write_until = std::max(s.write_until, done);
    std::uint64_t cds = line_cds(a);
    for (std::uint64_t cd = 0; cds != 0; ++cd, cds >>= 1) {
      if (cds & 1) cd_write_lock_[cd] = std::max(cd_write_lock_[cd], done);
    }
  } else {
    bank_lock_ = std::max(bank_lock_, done);
  }
  return done;
}

void FgNvmBank::close_row(const mem::DecodedAddr& a, Cycle at) {
  (void)at;  // tRP == 0: closing is free in NVM
  SagState& s = sags_[a.sag];
  if (s.open_row != a.row) return;
  s.open_row = kInvalidAddr;
  s.sensed = 0;
}

obs::BlockCause FgNvmBank::activate_block_cause(const mem::DecodedAddr& a,
                                                ActPurpose p, Cycle now,
                                                std::uint64_t extra_cds) const {
  // Mirrors earliest_activate, reporting the *kind* of the binding resource.
  // Write occupancy is checked first: a program pulse physically holds the
  // SAG/CD, so it dominates any concurrent sensing lock.
  const SagState& s = sags_[a.sag];
  if (bank_lock_ > now) return obs::BlockCause::kWriteBlock;
  if (s.write_until > now) return obs::BlockCause::kWriteBlock;
  if (s.lock_until > now) return obs::BlockCause::kSagBusy;
  if (!modes_.multi_activation && global_act_lock_ > now) {
    return obs::BlockCause::kSagBusy;
  }
  if (p == ActPurpose::kRead) {
    std::uint64_t cds = needed_cds(a, extra_cds);
    if (s.open_row == a.row) cds &= ~s.sensed;
    bool sensing = false;
    for (std::uint64_t cd = 0; cds != 0; ++cd, cds >>= 1) {
      if ((cds & 1) == 0) continue;
      if (cd_write_lock_[cd] > now) return obs::BlockCause::kWriteBlock;
      if (cd_sense_lock_[cd] > now) sensing = true;
    }
    if (sensing) return obs::BlockCause::kCdBusy;
  }
  return obs::BlockCause::kNone;
}

obs::BlockCause FgNvmBank::column_block_cause(const mem::DecodedAddr& a,
                                              OpType op, Cycle now) const {
  const SagState& s = sags_[a.sag];
  if (bank_lock_ > now) return obs::BlockCause::kWriteBlock;
  if (s.write_until > now) return obs::BlockCause::kWriteBlock;
  std::uint64_t cds = line_cds(a);
  if (op == OpType::kRead) {
    for (std::uint64_t cd = 0, m = cds; m != 0; ++cd, m >>= 1) {
      if ((m & 1) && cd_write_lock_[cd] > now) {
        return obs::BlockCause::kWriteBlock;
      }
    }
    // With writes excluded, a pending SAG lock / sense_ready can only be the
    // request's own row finishing its sensing: one open row per SAG, and
    // segments_sensed(a) held before the controller entered the column path.
    if (s.sense_ready > now || s.lock_until > now) {
      return obs::BlockCause::kService;
    }
  } else {
    if (s.lock_until > now) return obs::BlockCause::kService;  // own write ACT
    bool sensing = false;
    for (std::uint64_t cd = 0, m = cds; m != 0; ++cd, m >>= 1) {
      if ((m & 1) == 0) continue;
      if (cd_write_lock_[cd] > now) return obs::BlockCause::kWriteBlock;
      if (cd_sense_lock_[cd] > now) sensing = true;
    }
    if (sensing) return obs::BlockCause::kCdBusy;
  }
  if (any_col_issued_ && last_col_ + timing_.tCCD > now) {
    // The per-bank column command path is shared exactly like the data bus;
    // tCCD serialization is reported as a column conflict.
    return obs::BlockCause::kBusConflict;
  }
  return obs::BlockCause::kNone;
}

std::uint64_t FgNvmBank::active_sags(Cycle now) const {
  if (bank_lock_ > now) return sags_.size();  // non-bg write locks the bank
  std::uint64_t n = 0;
  for (const SagState& s : sags_) n += s.lock_until > now ? 1 : 0;
  return n;
}

std::uint64_t FgNvmBank::active_cds(Cycle now) const {
  if (bank_lock_ > now) return cd_sense_lock_.size();
  std::uint64_t n = 0;
  for (std::size_t cd = 0; cd < cd_sense_lock_.size(); ++cd) {
    n += (cd_sense_lock_[cd] > now || cd_write_lock_[cd] > now) ? 1 : 0;
  }
  return n;
}

}  // namespace fgnvm::nvm

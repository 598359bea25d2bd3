#include "dram/dram_bank.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace fgnvm::dram {

mem::TimingParams ddr3_timing(double clock_mhz) {
  mem::TimingParams t;
  t.clock_mhz = clock_mhz;
  t.tRCD = t.ns_to_cycles(13.75);
  t.tCAS = t.ns_to_cycles(13.75);
  t.tRP = t.ns_to_cycles(13.75);
  t.tRAS = t.ns_to_cycles(35.0);
  t.tCWD = t.ns_to_cycles(7.5);
  t.tWP = 0;  // DRAM writes go to the row buffer, no program pulse
  t.tWR = t.ns_to_cycles(15.0);
  t.tCCD = 4;
  t.tBURST = 4;
  t.tRFC = t.ns_to_cycles(260.0);
  t.tREFI = t.ns_to_cycles(7800.0);
  return t;
}

DramBank::DramBank(const mem::MemGeometry& geometry,
                   const mem::TimingParams& timing)
    : geo_(geometry), timing_(timing), subs_(geometry.num_sags) {
  if (geometry.num_cds != 1) {
    throw std::runtime_error(
        "DramBank: DRAM cannot subdivide columns (num_cds must be 1)");
  }
}

void DramBank::issue_activate(const mem::DecodedAddr& a, nvm::ActPurpose p,
                              Cycle at, std::uint64_t) {
  assert(at >= earliest_activate(a, p, at));
  (void)p;
  Subarray& s = subs_[a.sag];
  // Row switch pays the precharge before sensing begins.
  const Cycle pre =
      (s.open_row != kInvalidAddr && s.open_row != a.row) ? timing_.tRP : 0;
  s.open_row = a.row;
  s.act_done = at + pre + timing_.tRCD;
  s.ras_until = at + pre + timing_.tRAS;
  s.wr_until = 0;
  // DRAM sensing is destructive: the full row is always sensed/restored,
  // regardless of what the request needs.
  ++stats_.acts_for_read;
  stats_.bits_sensed += geo_.row_bytes * 8;
}

Cycle DramBank::issue_column(const mem::DecodedAddr& a, OpType op, Cycle at) {
  assert(at >= earliest_column(a, op, at));
  Subarray& s = subs_[a.sag];
  assert(s.open_row == a.row);
  last_col_ = at;
  any_col_issued_ = true;
  if (op == OpType::kRead) {
    ++stats_.reads;
    return at + timing_.tCAS;
  }
  // Write lands in the row buffer; restore happens on precharge. The bank
  // is reusable immediately after the burst, but precharge waits for tWR.
  const Cycle data_end = at + timing_.tCWD + timing_.tBURST;
  s.wr_until = data_end + timing_.tWR;
  ++stats_.writes;
  stats_.bits_written += geo_.line_bytes * 8;
  return data_end;
}

void DramBank::close_row(const mem::DecodedAddr& a, Cycle at) {
  Subarray& s = subs_[a.sag];
  if (s.open_row != a.row) return;
  // Explicit precharge: waits for restore and write recovery, then tRP.
  const Cycle start = std::max({at, s.ras_until, s.wr_until});
  s.pre_done = start + timing_.tRP;
  s.open_row = kInvalidAddr;
  s.wr_until = 0;
}

}  // namespace fgnvm::dram

// Unit tests for the DRAM/SALP comparison substrate: destructive-read
// restore, precharge timing, refresh blocking, and subarray-level overlap.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "dram/dram_bank.hpp"
#include "mem/geometry.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"

namespace fgnvm::dram {
namespace {

mem::MemGeometry geometry(std::uint64_t subarrays) {
  mem::MemGeometry g;
  g.banks_per_rank = 1;
  g.rows_per_bank = 4096;
  g.row_bytes = 1024;
  g.line_bytes = 64;
  g.num_sags = subarrays;
  g.num_cds = 1;
  return g;
}

class DramFixture {
 public:
  explicit DramFixture(std::uint64_t subarrays)
      : geo_(geometry(subarrays)),
        timing_(ddr3_timing()),
        decoder_(geo_),
        bank_(geo_, timing_) {}

  mem::DecodedAddr at(std::uint64_t row, std::uint64_t col) const {
    return decoder_.decode(decoder_.encode(0, 0, 0, row, col));
  }

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  mem::AddressDecoder decoder_;
  DramBank bank_;
};

TEST(DdrTiming, SensibleValuesAt400MHz) {
  const mem::TimingParams t = ddr3_timing();
  EXPECT_EQ(t.tRCD, 6u);   // 13.75 ns at 2.5 ns/cycle, rounded up
  EXPECT_EQ(t.tRP, 6u);
  EXPECT_EQ(t.tRAS, 14u);
  EXPECT_EQ(t.tRFC, 104u);
  EXPECT_EQ(t.tREFI, 3120u);
  EXPECT_EQ(t.tWP, 0u);  // no program pulse in DRAM
}

TEST(DramBankTest, RejectsColumnSubdivision) {
  mem::MemGeometry g = geometry(1);
  g.num_cds = 2;
  EXPECT_THROW(DramBank(g, ddr3_timing()), std::runtime_error);
}

TEST(DramBankTest, ActivateSensesFullRowAlways) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, 15)));
  EXPECT_EQ(f.bank_.stats().bits_sensed, 1024u * 8u);
}

TEST(DramBankTest, RowSwitchPaysRasAndPrecharge) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  // Switching rows: the ACT command waits for restore (tRAS from ACT)...
  EXPECT_EQ(f.bank_.earliest_activate(f.at(9, 0), nvm::ActPurpose::kRead, 1),
            f.timing_.tRAS);
  // ...and the implicit precharge (tRP) lands in front of the sensing.
  f.bank_.issue_activate(f.at(9, 0), nvm::ActPurpose::kRead, f.timing_.tRAS);
  EXPECT_EQ(f.bank_.earliest_column(f.at(9, 0), OpType::kRead, f.timing_.tRAS),
            f.timing_.tRAS + f.timing_.tRP + f.timing_.tRCD);
}

TEST(DramBankTest, SameRowReactivationNotNeeded) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  // Row already open: a second ACT to it is gated only by the sense time.
  EXPECT_EQ(f.bank_.earliest_activate(f.at(5, 3), nvm::ActPurpose::kRead, 1),
            f.timing_.tRCD);
  EXPECT_TRUE(f.bank_.row_open(f.at(5, 3)));
}

TEST(DramBankTest, WriteRecoveryGatesPrecharge) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  const Cycle col_at = f.timing_.tRCD;
  const Cycle data_end = f.bank_.issue_column(f.at(5, 0), OpType::kWrite, col_at);
  EXPECT_EQ(data_end, col_at + f.timing_.tCWD + f.timing_.tBURST);
  // A row-switching ACT must wait tWR after the write data (the tRP is
  // folded into the activation itself).
  const Cycle act = f.bank_.earliest_activate(f.at(9, 0),
                                              nvm::ActPurpose::kRead, col_at);
  EXPECT_EQ(act, data_end + f.timing_.tWR);
}

TEST(DramBankTest, SalpOverlapsActivationsAcrossSubarrays) {
  DramFixture f(8);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);  // SAG 0
  // A different subarray can activate immediately (the SALP benefit)...
  EXPECT_EQ(f.bank_.earliest_activate(f.at(600, 0), nvm::ActPurpose::kRead, 1),
            1u);
  f.bank_.issue_activate(f.at(600, 0), nvm::ActPurpose::kRead, 1);
  // ...and both rows stay open.
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, 1)));
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(600, 1)));
}

TEST(DramBankTest, ConventionalBankSerializesRows) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  // Row 600 maps to the same (only) subarray: gated by the restore window.
  EXPECT_EQ(f.bank_.earliest_activate(f.at(600, 0), nvm::ActPurpose::kRead, 1),
            f.timing_.tRAS);
}

TEST(DramBankTest, ClosedPagePrechargeHidesInIdleGap) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  f.bank_.issue_column(f.at(5, 0), OpType::kRead, f.timing_.tRCD);
  // Explicitly precharge at the read; a much later row miss then skips tRP.
  f.bank_.close_row(f.at(5, 0), f.timing_.tRCD);
  const Cycle later = 200;
  EXPECT_EQ(f.bank_.earliest_activate(f.at(9, 0), nvm::ActPurpose::kRead,
                                      later),
            later);
  f.bank_.issue_activate(f.at(9, 0), nvm::ActPurpose::kRead, later);
  // No implicit-precharge penalty: sensing completes after just tRCD.
  EXPECT_EQ(f.bank_.earliest_column(f.at(9, 0), OpType::kRead, later),
            later + f.timing_.tRCD);
}

TEST(DramBankTest, CloseRowIgnoresMismatchedRow) {
  DramFixture f(1);
  f.bank_.issue_activate(f.at(5, 0), nvm::ActPurpose::kRead, 0);
  f.bank_.close_row(f.at(9, 0), 20);  // row 9 is not open
  EXPECT_TRUE(f.bank_.row_open(f.at(5, 0)));
}

TEST(DramBankTest, RefreshBlocksPeriodically) {
  DramFixture f(1);
  const Cycle refi = f.timing_.tREFI;
  // Just before the first deadline: unaffected.
  EXPECT_EQ(f.bank_.earliest_activate(f.at(5, 0), nvm::ActPurpose::kRead,
                                      refi - 10),
            refi - 10);
  // At the deadline: blocked for tRFC.
  EXPECT_EQ(f.bank_.earliest_activate(f.at(5, 0), nvm::ActPurpose::kRead,
                                      refi + 1),
            refi + f.timing_.tRFC);
}

TEST(DramBankTest, MissedRefreshesCatchUp) {
  DramFixture f(1);
  // A first query far in the future: the refreshes of the idle stretch
  // ran at their own deadlines (no backlog stacks up behind the query),
  // so only the fifth window still blocks, and only until its own end.
  const Cycle refi = f.timing_.tREFI;
  const Cycle rfc = f.timing_.tRFC;
  EXPECT_EQ(f.bank_.earliest_activate(f.at(5, 0), nvm::ActPurpose::kRead,
                                      refi * 5 + 100),
            refi * 5 + rfc);
  EXPECT_EQ(f.bank_.earliest_column(f.at(5, 0), OpType::kWrite,
                                    refi * 5 + 100),
            refi * 5 + rfc);
  EXPECT_EQ(f.bank_.refresh_end(refi * 5 + rfc), refi * 5 + rfc);
}

/// The deadline loop refresh_end replaced: deadlines at k*tREFI, each
/// refresh starting at max(deadline, previous end) and lasting tRFC.
Cycle replay_refresh_end(const mem::TimingParams& t, Cycle q) {
  if (t.tREFI == 0) return q;
  Cycle end = 0;
  for (Cycle deadline = t.tREFI; deadline <= q; deadline += t.tREFI) {
    end = std::max(deadline, end) + t.tRFC;
  }
  return std::max(q, end);
}

TEST(DramBankTest, RefreshEndMatchesDeadlineReplay) {
  const mem::MemGeometry g = geometry(1);
  // tRFC below, equal to and above tREFI (the last stacks every refresh
  // behind the previous one), and refresh off.
  for (const auto& [refi, rfc] :
       {std::pair<Cycle, Cycle>{200, 30}, {200, 200}, {200, 450}, {0, 30}}) {
    mem::TimingParams t = ddr3_timing();
    t.tREFI = refi;
    t.tRFC = rfc;
    const DramBank bank(g, t);
    for (Cycle q = 0; q <= 6000; ++q) {
      ASSERT_EQ(bank.refresh_end(q), replay_refresh_end(t, q))
          << "tREFI " << refi << " tRFC " << rfc << " t " << q;
    }
  }
}

TEST(DramSystem, EndToEndRunWorks) {
  trace::WorkloadProfile p;
  p.name = "dram-check";
  p.mpki = 20.0;
  p.write_fraction = 0.3;
  p.row_locality = 0.6;
  p.num_streams = 4;
  p.footprint_bytes = 32ULL << 20;
  p.seed = 5;
  const trace::Trace tr = trace::generate_trace(p, 2000);
  const sim::RunResult r = sim::run_workload(tr, sys::dram_config(8));
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_EQ(r.reads + r.writes, 2000u);
}

TEST(DramSystem, SalpBeatsConventionalDram) {
  trace::WorkloadProfile p;
  p.name = "salp-check";
  p.mpki = 25.0;
  p.write_fraction = 0.2;
  p.row_locality = 0.3;  // row misses are where SALP pays off
  p.random_fraction = 0.3;
  p.num_streams = 8;
  p.footprint_bytes = 64ULL << 20;
  p.seed = 6;
  const trace::Trace tr = trace::generate_trace(p, 4000);
  const double plain = sim::run_workload(tr, sys::dram_config(1)).ipc;
  const double salp = sim::run_workload(tr, sys::dram_config(8)).ipc;
  EXPECT_GT(salp, plain);
}

TEST(DramSystem, DramOutrunsPcmBaseline) {
  // Sanity anchor: DRAM timing is far faster than PCM; the comparison
  // substrate must reflect that.
  trace::WorkloadProfile p;
  p.name = "speed-check";
  p.mpki = 20.0;
  p.write_fraction = 0.3;
  p.row_locality = 0.5;
  p.num_streams = 4;
  p.footprint_bytes = 32ULL << 20;
  p.seed = 7;
  const trace::Trace tr = trace::generate_trace(p, 3000);
  const double dram = sim::run_workload(tr, sys::dram_config(1)).ipc;
  const double pcm = sim::run_workload(tr, sys::baseline_config()).ipc;
  EXPECT_GT(dram, pcm);
}

}  // namespace
}  // namespace fgnvm::dram

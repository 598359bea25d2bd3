// Unit tests for the FgNVM bank FSM: partial activation, multi-activation,
// backgrounded writes, underfetch tracking, and the baseline degenerate
// case. These encode the Section-4 constraints of the paper.
#include <gtest/gtest.h>

#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/energy.hpp"
#include "nvm/fgnvm_bank.hpp"

namespace fgnvm::nvm {
namespace {

mem::MemGeometry geometry(std::uint64_t sags, std::uint64_t cds) {
  mem::MemGeometry g;
  g.banks_per_rank = 1;
  g.rows_per_bank = 4096;
  g.row_bytes = 1024;
  g.line_bytes = 64;
  g.num_sags = sags;
  g.num_cds = cds;
  return g;
}

class BankFixture {
 public:
  BankFixture(std::uint64_t sags, std::uint64_t cds, AccessModes modes)
      : geo_(geometry(sags, cds)), decoder_(geo_), bank_(geo_, timing_, modes) {}

  mem::DecodedAddr at(std::uint64_t row, std::uint64_t col) const {
    return decoder_.decode(decoder_.encode(0, 0, 0, row, col));
  }

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  mem::AddressDecoder decoder_;
  FgNvmBank bank_;
};

// ---------------------------------------------------------------- baseline

TEST(BaselineBank, ActivateSensesFullRow) {
  BankFixture f(1, 1, AccessModes::all_off());
  const auto a = f.at(5, 0);
  EXPECT_FALSE(f.bank_.segments_sensed(a));
  ASSERT_EQ(f.bank_.earliest_activate(a, ActPurpose::kRead, 0), 0u);
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  // The whole 1KB row is sensed; every column of row 5 is now a hit.
  for (std::uint64_t col = 0; col < 16; ++col) {
    EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, col)));
  }
  EXPECT_EQ(f.bank_.stats().bits_sensed, 1024u * 8u);
  EXPECT_EQ(f.bank_.stats().acts_for_read, 1u);
}

TEST(BaselineBank, ColumnWaitsForSensing) {
  BankFixture f(1, 1, AccessModes::all_off());
  const auto a = f.at(5, 0);
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  // Column cannot issue before tRCD elapses.
  EXPECT_EQ(f.bank_.earliest_column(a, OpType::kRead, 0), f.timing_.tRCD);
  const Cycle burst = f.bank_.issue_column(a, OpType::kRead, f.timing_.tRCD);
  EXPECT_EQ(burst, f.timing_.tRCD + f.timing_.tCAS);
}

TEST(BaselineBank, WriteBlocksWholeBank) {
  BankFixture f(1, 1, AccessModes::all_off());
  const auto w = f.at(5, 0);
  f.bank_.issue_activate(w, ActPurpose::kWrite, 0);
  const Cycle t0 = f.timing_.tRCD;
  const Cycle done = f.bank_.issue_column(w, OpType::kWrite, t0);
  EXPECT_EQ(done, t0 + f.timing_.write_occupancy());
  // Nothing can activate anywhere in the bank until the write completes.
  const auto other = f.at(9, 3);
  EXPECT_EQ(f.bank_.earliest_activate(other, ActPurpose::kRead, t0 + 1), done);
}

TEST(BaselineBank, RowSwitchDropsSensedData) {
  BankFixture f(1, 1, AccessModes::all_off());
  f.bank_.issue_activate(f.at(5, 0), ActPurpose::kRead, 0);
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, 1)));
  f.bank_.issue_activate(f.at(6, 0), ActPurpose::kRead, f.timing_.tRCD);
  EXPECT_FALSE(f.bank_.segments_sensed(f.at(5, 1)));
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(6, 1)));
}

TEST(BaselineBank, TccdSpacesColumns) {
  BankFixture f(1, 1, AccessModes::all_off());
  f.bank_.issue_activate(f.at(5, 0), ActPurpose::kRead, 0);
  const Cycle t0 = f.timing_.tRCD;
  f.bank_.issue_column(f.at(5, 0), OpType::kRead, t0);
  EXPECT_EQ(f.bank_.earliest_column(f.at(5, 1), OpType::kRead, t0),
            t0 + f.timing_.tCCD);
}

// ------------------------------------------------------- partial activation

TEST(PartialActivation, SensesOnlyNeededCd) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto a = f.at(5, 0);  // CD 0
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, 7)));    // same CD
  EXPECT_FALSE(f.bank_.segments_sensed(f.at(5, 8)));   // other CD
  EXPECT_EQ(f.bank_.stats().bits_sensed, 512u * 8u);   // one 512B segment
  EXPECT_EQ(f.bank_.sensed_mask(0), 0b01u);
}

TEST(PartialActivation, UnderfetchPaysSecondAct) {
  BankFixture f(8, 2, AccessModes::all_on());
  f.bank_.issue_activate(f.at(5, 0), ActPurpose::kRead, 0);
  const auto other_cd = f.at(5, 8);
  EXPECT_FALSE(f.bank_.segments_sensed(other_cd));
  // Same SAG is busy sensing until tRCD; the second ACT must wait.
  EXPECT_EQ(f.bank_.earliest_activate(other_cd, ActPurpose::kRead, 1),
            f.timing_.tRCD);
  f.bank_.issue_activate(other_cd, ActPurpose::kRead, f.timing_.tRCD);
  EXPECT_TRUE(f.bank_.segments_sensed(other_cd));
  EXPECT_EQ(f.bank_.stats().underfetch_acts, 1u);
  EXPECT_EQ(f.bank_.stats().bits_sensed, 2u * 512u * 8u);
  EXPECT_EQ(f.bank_.sensed_mask(0), 0b11u);
}

TEST(PartialActivation, DisabledSensesWholeRow) {
  BankFixture f(8, 2, AccessModes{false, true, true});
  f.bank_.issue_activate(f.at(5, 0), ActPurpose::kRead, 0);
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, 8)));
  EXPECT_EQ(f.bank_.stats().bits_sensed, 1024u * 8u);
}

TEST(PartialActivation, SubLineSegmentsSenseTwoCds) {
  BankFixture f(8, 32, AccessModes::all_on());
  const auto a = f.at(5, 0);
  ASSERT_EQ(a.cd_count, 2u);
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  EXPECT_TRUE(f.bank_.segments_sensed(a));
  EXPECT_EQ(f.bank_.stats().bits_sensed, 2u * 32u * 8u);  // one 64B line
}

TEST(PartialActivation, WriteActDoesNotSense) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto a = f.at(5, 0);
  f.bank_.issue_activate(a, ActPurpose::kWrite, 0);
  EXPECT_TRUE(f.bank_.row_open(a));
  EXPECT_FALSE(f.bank_.segments_sensed(a));
  EXPECT_EQ(f.bank_.stats().bits_sensed, 0u);
  EXPECT_EQ(f.bank_.stats().acts_for_write, 1u);
}

// -------------------------------------------------------- multi activation

TEST(MultiActivation, DistinctSagAndCdOverlap) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto a = f.at(5, 0);     // SAG 0, CD 0
  const auto b = f.at(600, 8);   // SAG 1, CD 1
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  // Different SAG and different CD: can start immediately.
  EXPECT_EQ(f.bank_.earliest_activate(b, ActPurpose::kRead, 1), 1u);
  f.bank_.issue_activate(b, ActPurpose::kRead, 1);
  EXPECT_TRUE(f.bank_.segments_sensed(a));
  EXPECT_TRUE(f.bank_.segments_sensed(b));
}

TEST(MultiActivation, SameCdSerializes) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto a = f.at(5, 0);    // SAG 0, CD 0
  const auto b = f.at(600, 0);  // SAG 1, CD 0 -> same CD, must wait
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  EXPECT_EQ(f.bank_.earliest_activate(b, ActPurpose::kRead, 1),
            f.timing_.tRCD);
}

TEST(MultiActivation, SameSagSerializes) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto a = f.at(5, 0);   // SAG 0, CD 0
  const auto b = f.at(6, 8);   // SAG 0, CD 1 -> same SAG, one wordline
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  EXPECT_EQ(f.bank_.earliest_activate(b, ActPurpose::kRead, 1),
            f.timing_.tRCD);
}

TEST(MultiActivation, DisabledSerializesEverything) {
  BankFixture f(8, 2, AccessModes{true, false, true});
  const auto a = f.at(5, 0);
  const auto b = f.at(600, 8);  // distinct SAG and CD
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  EXPECT_EQ(f.bank_.earliest_activate(b, ActPurpose::kRead, 1),
            f.timing_.tRCD);
}

TEST(MultiActivation, TwoOpenRowsCoexist) {
  BankFixture f(8, 2, AccessModes::all_on());
  f.bank_.issue_activate(f.at(5, 0), ActPurpose::kRead, 0);
  f.bank_.issue_activate(f.at(600, 8), ActPurpose::kRead, 0);
  EXPECT_EQ(f.bank_.open_row_of(0), 5u);
  EXPECT_EQ(f.bank_.open_row_of(1), 600u);
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(5, 0)));
  EXPECT_TRUE(f.bank_.segments_sensed(f.at(600, 8)));
}

// ------------------------------------------------------ backgrounded write

class BackgroundWriteFixture : public ::testing::Test {
 protected:
  BackgroundWriteFixture() : f_(8, 2, AccessModes::all_on()) {
    // Write to SAG 1 (row 600), CD 1 (col 8).
    w_ = f_.at(600, 8);
    f_.bank_.issue_activate(w_, ActPurpose::kWrite, 0);
    t0_ = f_.bank_.earliest_column(w_, OpType::kWrite, f_.timing_.tRCD);
    write_done_ = f_.bank_.issue_column(w_, OpType::kWrite, t0_);
  }

  BankFixture f_;
  mem::DecodedAddr w_;
  Cycle t0_ = 0;
  Cycle write_done_ = 0;
};

TEST_F(BackgroundWriteFixture, OtherSagOtherCdProceeds) {
  const auto r = f_.at(5, 0);  // SAG 0, CD 0 — fully disjoint
  EXPECT_EQ(f_.bank_.earliest_activate(r, ActPurpose::kRead, t0_ + 1),
            t0_ + 1);
  f_.bank_.issue_activate(r, ActPurpose::kRead, t0_ + 1);
  const Cycle col_at = t0_ + 1 + f_.timing_.tRCD;
  EXPECT_LE(f_.bank_.earliest_column(r, OpType::kRead, col_at), write_done_);
}

TEST_F(BackgroundWriteFixture, SameCdBlockedUntilWriteDone) {
  const auto r = f_.at(5, 8);  // SAG 0, CD 1 — shares the written CD
  EXPECT_EQ(f_.bank_.earliest_activate(r, ActPurpose::kRead, t0_ + 1),
            write_done_);
}

TEST_F(BackgroundWriteFixture, SameSagBlockedUntilWriteDone) {
  const auto r = f_.at(601, 0);  // SAG 1, CD 0 — shares the written SAG
  EXPECT_EQ(f_.bank_.earliest_activate(r, ActPurpose::kRead, t0_ + 1),
            write_done_);
}

TEST_F(BackgroundWriteFixture, WriteOccupancyMatchesTiming) {
  EXPECT_EQ(write_done_, t0_ + f_.timing_.write_occupancy());
}

TEST(BackgroundWrite, DisabledBlocksWholeBank) {
  BankFixture f(8, 2, AccessModes{true, true, false});
  const auto w = f.at(600, 8);
  f.bank_.issue_activate(w, ActPurpose::kWrite, 0);
  const Cycle done =
      f.bank_.issue_column(w, OpType::kWrite, f.timing_.tRCD);
  const auto r = f.at(5, 0);  // disjoint SAG and CD
  EXPECT_EQ(f.bank_.earliest_activate(r, ActPurpose::kRead, f.timing_.tRCD + 1),
            done);
}

TEST(BackgroundWrite, WriteInvalidatesSensedSegment) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto a = f.at(5, 0);
  f.bank_.issue_activate(a, ActPurpose::kRead, 0);
  EXPECT_TRUE(f.bank_.segments_sensed(a));
  const Cycle t = f.timing_.tRCD;
  f.bank_.issue_column(a, OpType::kWrite, t);  // write through same segment
  EXPECT_FALSE(f.bank_.segments_sensed(a));
}

TEST(BankStatsTest, CountsBitsWritten) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto w = f.at(600, 8);
  f.bank_.issue_activate(w, ActPurpose::kWrite, 0);
  f.bank_.issue_column(w, OpType::kWrite, f.timing_.tRCD);
  EXPECT_EQ(f.bank_.stats().bits_written, 64u * 8u);
  EXPECT_EQ(f.bank_.stats().writes, 1u);
}

TEST(BankBusyUntil, ReflectsLatestLock) {
  BankFixture f(8, 2, AccessModes::all_on());
  const auto w = f.at(600, 8);
  const auto other = f.at(601, 8);  // same SAG, another row
  EXPECT_EQ(f.bank_.earliest_activate(other, ActPurpose::kWrite, 0), 0u);
  f.bank_.issue_activate(w, ActPurpose::kWrite, 0);
  const Cycle done = f.bank_.issue_column(w, OpType::kWrite, f.timing_.tRCD);
  // The program pulse holds the SAG until the write completes.
  EXPECT_EQ(f.bank_.earliest_activate(other, ActPurpose::kWrite, 0), done);
}

// --------------------------------------------------------------- energy

TEST(EnergyModel, PaperConstants) {
  const EnergyParams p;
  EXPECT_DOUBLE_EQ(p.read_pj_per_bit, 2.0);
  EXPECT_DOUBLE_EQ(p.write_pj_per_bit, 16.0);
}

TEST(EnergyModel, ComputesBreakdown) {
  EnergyParams p;
  p.background_pj_per_bank_cycle = 1.0;
  p.write_flip_fraction = 1.0;  // charge every written bit for this test
  const EnergyModel m(p);
  BankStats s;
  s.bits_sensed = 100;
  s.bits_written = 10;
  const EnergyBreakdown e = m.bank_energy(s, 50);
  EXPECT_DOUBLE_EQ(e.sense_pj, 200.0);
  EXPECT_DOUBLE_EQ(e.write_pj, 160.0);
  EXPECT_DOUBLE_EQ(e.background_pj, 50.0);
  EXPECT_DOUBLE_EQ(e.total_pj(), 410.0);
}

TEST(EnergyModel, DataComparisonWriteDefault) {
  // By default only ~1/8 of written bits flip (data-comparison write).
  const EnergyModel m;
  BankStats s;
  s.bits_written = 512;
  const EnergyBreakdown e = m.bank_energy(s, 0);
  EXPECT_DOUBLE_EQ(e.write_pj, 512.0 * 16.0 * 0.125);
}

}  // namespace
}  // namespace fgnvm::nvm

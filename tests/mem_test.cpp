// Unit tests for fg_mem: geometry validation, address decode/encode
// round-trips, SAG/CD mapping, timing conversion, and the data bus.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "mem/bus.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"

namespace fgnvm::mem {
namespace {

MemGeometry paper_geometry(std::uint64_t sags, std::uint64_t cds) {
  MemGeometry g;
  g.channels = 1;
  g.ranks_per_channel = 1;
  g.banks_per_rank = 8;
  g.rows_per_bank = 4096;
  g.row_bytes = 1024;
  g.line_bytes = 64;
  g.num_sags = sags;
  g.num_cds = cds;
  return g;
}

TEST(Geometry, ValidatesPowersOfTwo) {
  MemGeometry g = paper_geometry(8, 2);
  EXPECT_NO_THROW(g.validate());
  g.banks_per_rank = 3;
  EXPECT_THROW(g.validate(), std::runtime_error);
}

TEST(Geometry, RejectsTooManySags) {
  MemGeometry g = paper_geometry(8192, 1);
  EXPECT_THROW(g.validate(), std::runtime_error);
}

TEST(Geometry, RejectsTooManyCds) {
  MemGeometry g = paper_geometry(1, 256);  // 1024B/256 = 4B segments < 8B
  EXPECT_THROW(g.validate(), std::runtime_error);
}

TEST(Geometry, DerivedQuantities) {
  const MemGeometry g = paper_geometry(8, 2);
  EXPECT_EQ(g.lines_per_row(), 16u);
  EXPECT_EQ(g.rows_per_sag(), 512u);
  EXPECT_EQ(g.segment_bytes(), 512u);
  EXPECT_EQ(g.segments_per_line(), 1u);
  EXPECT_EQ(g.total_banks(), 8u);
  EXPECT_EQ(g.bytes_per_bank(), 4096u * 1024u);
}

TEST(Geometry, SubLineSegments) {
  const MemGeometry g = paper_geometry(8, 32);
  EXPECT_EQ(g.segment_bytes(), 32u);
  EXPECT_EQ(g.segments_per_line(), 2u);
}

TEST(Geometry, FromConfig) {
  const auto cfg = Config::from_string("banks = 16\nsags = 4\ncds = 4\n");
  const MemGeometry g = MemGeometry::from_config(cfg);
  EXPECT_EQ(g.banks_per_rank, 16u);
  EXPECT_EQ(g.num_sags, 4u);
  EXPECT_EQ(g.num_cds, 4u);
}

TEST(AddressDecoder, RoundTripsAllFields) {
  MemGeometry g = paper_geometry(8, 2);
  g.channels = 2;
  g.ranks_per_channel = 2;
  const AddressDecoder dec(g);
  for (std::uint64_t ch = 0; ch < 2; ++ch) {
    for (std::uint64_t rk = 0; rk < 2; ++rk) {
      for (std::uint64_t bk = 0; bk < 8; bk += 3) {
        for (std::uint64_t row = 0; row < 4096; row += 1111) {
          for (std::uint64_t col = 0; col < 16; col += 5) {
            const Addr a = dec.encode(ch, rk, bk, row, col);
            const DecodedAddr d = dec.decode(a);
            EXPECT_EQ(d.channel, ch);
            EXPECT_EQ(d.rank, rk);
            EXPECT_EQ(d.bank, bk);
            EXPECT_EQ(d.row, row);
            EXPECT_EQ(d.col, col);
          }
        }
      }
    }
  }
}

TEST(AddressDecoder, SagMapping) {
  const AddressDecoder dec(paper_geometry(8, 2));
  // 4096 rows / 8 SAGs = 512 rows per SAG; row 512 is the first of SAG 1.
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 0, 0)).sag, 0u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 511, 0)).sag, 0u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 512, 0)).sag, 1u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 4095, 0)).sag, 7u);
}

TEST(AddressDecoder, CdMapping) {
  const AddressDecoder dec(paper_geometry(8, 2));
  // 1KB row, 2 CDs -> columns 0..7 in CD 0, 8..15 in CD 1.
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 0, 0)).cd, 0u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 0, 7)).cd, 0u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 0, 8)).cd, 1u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 0, 15)).cd, 1u);
  EXPECT_EQ(dec.decode(dec.encode(0, 0, 0, 0, 8)).cd_count, 1u);
}

TEST(AddressDecoder, SubLineCdMapping) {
  const AddressDecoder dec(paper_geometry(8, 32));
  // 32B segments: each 64B line spans 2 CDs.
  const DecodedAddr d0 = dec.decode(dec.encode(0, 0, 0, 0, 0));
  EXPECT_EQ(d0.cd, 0u);
  EXPECT_EQ(d0.cd_count, 2u);
  const DecodedAddr d1 = dec.decode(dec.encode(0, 0, 0, 0, 1));
  EXPECT_EQ(d1.cd, 2u);
  EXPECT_EQ(d1.cd_count, 2u);
  const DecodedAddr dlast = dec.decode(dec.encode(0, 0, 0, 0, 15));
  EXPECT_EQ(dlast.cd, 30u);
}

TEST(AddressDecoder, ConsecutiveLinesShareRow) {
  const AddressDecoder dec(paper_geometry(8, 2));
  const DecodedAddr a = dec.decode(0);
  const DecodedAddr b = dec.decode(64);
  EXPECT_TRUE(a.same_row(b));
  EXPECT_EQ(b.col, a.col + 1);
}

TEST(AddressMapping, NamesRoundTrip) {
  for (const AddressMapping m :
       {AddressMapping::kRowInterleaved, AddressMapping::kBankInterleaved,
        AddressMapping::kPermuted}) {
    EXPECT_EQ(address_mapping_from_string(to_string(m)), m);
  }
  EXPECT_THROW(address_mapping_from_string("diagonal"), std::runtime_error);
}

class MappingRoundTrip
    : public ::testing::TestWithParam<AddressMapping> {};

TEST_P(MappingRoundTrip, EncodeDecodeInverse) {
  MemGeometry g = paper_geometry(8, 2);
  g.channels = 2;
  g.ranks_per_channel = 2;
  const AddressDecoder dec(g, GetParam());
  for (std::uint64_t ch = 0; ch < 2; ++ch) {
    for (std::uint64_t rk = 0; rk < 2; ++rk) {
      for (std::uint64_t bk = 0; bk < 8; ++bk) {
        for (std::uint64_t row = 0; row < 4096; row += 617) {
          const Addr a = dec.encode(ch, rk, bk, row, 5);
          const DecodedAddr d = dec.decode(a);
          EXPECT_EQ(d.channel, ch);
          EXPECT_EQ(d.rank, rk);
          EXPECT_EQ(d.bank, bk);
          EXPECT_EQ(d.row, row);
          EXPECT_EQ(d.col, 5u);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMappings, MappingRoundTrip,
    ::testing::Values(AddressMapping::kRowInterleaved,
                      AddressMapping::kBankInterleaved,
                      AddressMapping::kPermuted),
    [](const ::testing::TestParamInfo<AddressMapping>& info) {
      return to_string(info.param);
    });

TEST(AddressMapping, BankInterleavedStripesBanks) {
  const AddressDecoder dec(paper_geometry(8, 2),
                           AddressMapping::kBankInterleaved);
  // Consecutive lines land in consecutive banks, same row/col.
  const DecodedAddr a = dec.decode(0);
  const DecodedAddr b = dec.decode(64);
  EXPECT_EQ(b.bank, a.bank + 1);
  EXPECT_EQ(b.col, a.col);
}

TEST(AddressMapping, PermutedPreservesRowRuns) {
  const AddressDecoder dec(paper_geometry(8, 2), AddressMapping::kPermuted);
  // Lines within one row stay in one (bank, row): open-page runs survive.
  const DecodedAddr a = dec.decode(0);
  const DecodedAddr b = dec.decode(64);
  EXPECT_TRUE(a.same_row(b));
}

TEST(AddressMapping, PermutedScattersPowerOfTwoStrides) {
  const MemGeometry g = paper_geometry(8, 2);
  const AddressDecoder plain(g, AddressMapping::kRowInterleaved);
  const AddressDecoder perm(g, AddressMapping::kPermuted);
  // Row-size stride hammers one bank under the plain mapping...
  std::set<std::uint64_t> plain_banks, perm_banks;
  const Addr stride = g.row_bytes * g.banks_per_rank;  // row+bank wrap
  for (int i = 0; i < 8; ++i) {
    plain_banks.insert(plain.decode(i * stride).bank);
    perm_banks.insert(perm.decode(i * stride).bank);
  }
  EXPECT_EQ(plain_banks.size(), 1u);
  EXPECT_GT(perm_banks.size(), 4u);  // ...but spreads under permutation
}

TEST(Timing, Table2DefaultsAt400MHz) {
  const TimingParams t;
  EXPECT_DOUBLE_EQ(t.ns_per_cycle(), 2.5);
  EXPECT_EQ(t.tRCD, 10u);   // 25 ns
  EXPECT_EQ(t.tCAS, 38u);   // 95 ns
  EXPECT_EQ(t.tWP, 60u);    // 150 ns
  EXPECT_EQ(t.tCWD, 3u);    // 7.5 ns
  EXPECT_EQ(t.tWR, 3u);     // 7.5 ns
  EXPECT_EQ(t.tRAS, 0u);
  EXPECT_EQ(t.tRP, 0u);
  EXPECT_EQ(t.tCCD, 4u);
  EXPECT_EQ(t.tBURST, 4u);
}

TEST(Timing, FromConfigConvertsNs) {
  const auto cfg = Config::from_string("clock_mhz = 800\ntRCD_ns = 25\n");
  const TimingParams t = TimingParams::from_config(cfg);
  EXPECT_EQ(t.tRCD, 20u);  // 25ns at 1.25 ns/cycle
  EXPECT_EQ(t.tCAS, 76u);  // default 95ns reconverted at the new clock
}

// An unset timing key still counts as one the timing model reads, so a
// misspelling of it gets a "did you mean" hint even when the config does
// not set the real key.
TEST(Timing, UnsetNsKeysAreHintCandidates) {
  const auto cfg = Config::from_string("tWP_nss = 1\n");
  (void)TimingParams::from_config(cfg);
  EXPECT_EQ(cfg.unread_keys(), (std::vector<std::string>{"tWP_nss"}));
  EXPECT_EQ(cfg.nearest_asked_key("tWP_nss"),
            std::optional<std::string>("tWP_ns"));
}

TEST(Timing, DerivedLatencies) {
  const TimingParams t;
  EXPECT_EQ(t.read_latency(), t.tCAS + t.tBURST);
  // A 64B line (512 bits) programs in two phases at the default 256
  // effective driver-bits per pulse (RESET pass + SET pass).
  EXPECT_EQ(t.write_pulses(512), 2u);
  EXPECT_EQ(t.write_occupancy(512), t.tCWD + t.tBURST + 2 * t.tWP + t.tWR);
  // A single driver-width slice takes exactly one pulse.
  EXPECT_EQ(t.write_occupancy(256), t.tCWD + t.tBURST + t.tWP + t.tWR);
  // Narrower drivers mean more pulses: the 64-bit reading gives 8.
  TimingParams narrow;
  narrow.write_drivers = 64;
  EXPECT_EQ(narrow.write_pulses(512), 8u);
}

TEST(Timing, RejectsBadClock) {
  const auto cfg = Config::from_string("clock_mhz = 0\n");
  EXPECT_THROW(TimingParams::from_config(cfg), std::runtime_error);
}

TEST(DataBus, SingleLaneSerializes) {
  DataBus bus(1);
  EXPECT_EQ(bus.earliest_start(10), 10u);
  bus.reserve(10, 4);
  EXPECT_EQ(bus.earliest_start(10), 14u);
  EXPECT_FALSE(bus.available(12));
  EXPECT_TRUE(bus.available(14));
}

TEST(DataBus, MultiLaneOverlaps) {
  DataBus bus(2);
  bus.reserve(10, 4);
  EXPECT_TRUE(bus.available(10));  // second lane free
  bus.reserve(10, 4);
  EXPECT_FALSE(bus.available(12));
  EXPECT_EQ(bus.earliest_start(0), 14u);
}

TEST(DataBus, ReserveThrowsWithoutFreeLane) {
  DataBus bus(1);
  bus.reserve(0, 10);
  EXPECT_THROW(bus.reserve(5, 4), std::runtime_error);
}

TEST(DataBus, TracksBusyCycles) {
  DataBus bus(1);
  bus.reserve(0, 4);
  bus.reserve(4, 4);
  EXPECT_EQ(bus.total_busy_cycles(), 8u);
}

}  // namespace
}  // namespace fgnvm::mem

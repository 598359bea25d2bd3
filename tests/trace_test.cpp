// Unit + property tests for fg_trace: synthetic generation hits its target
// statistics, serialization round-trips, the analyzer measures what the
// generator encodes, and the SPEC2006-like profile set is well-formed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mem/geometry.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/stream.hpp"

namespace fgnvm::trace {
namespace {

mem::MemGeometry ref_geometry() {
  mem::MemGeometry g;
  g.banks_per_rank = 8;
  g.rows_per_bank = 4096;
  g.row_bytes = 1024;
  g.line_bytes = 64;
  return g;
}

WorkloadProfile base_profile() {
  WorkloadProfile p;
  p.name = "test";
  p.mpki = 20.0;
  p.write_fraction = 0.3;
  p.row_locality = 0.6;
  p.random_fraction = 0.1;
  p.burstiness = 0.5;
  p.num_streams = 4;
  p.footprint_bytes = 32ULL << 20;
  p.seed = 99;
  return p;
}

TEST(Generator, Deterministic) {
  const Trace a = generate_trace(base_profile(), 5000);
  const Trace b = generate_trace(base_profile(), 5000);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].addr, b.records[i].addr);
    EXPECT_EQ(a.records[i].icount_gap, b.records[i].icount_gap);
    EXPECT_EQ(a.records[i].op, b.records[i].op);
  }
}

TEST(Generator, SeedChangesTrace) {
  WorkloadProfile p = base_profile();
  const Trace a = generate_trace(p, 1000);
  p.seed = 100;
  const Trace b = generate_trace(p, 1000);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    same += a.records[i].addr == b.records[i].addr;
  }
  EXPECT_LT(same, 50u);
}

TEST(Generator, HitsTargetMpki) {
  const Trace t = generate_trace(base_profile(), 20000);
  EXPECT_NEAR(t.mpki(), 20.0, 2.0);
}

TEST(Generator, HitsTargetWriteFraction) {
  const Trace t = generate_trace(base_profile(), 20000);
  const TraceSummary s = analyze(t, ref_geometry());
  EXPECT_NEAR(s.write_fraction, 0.3, 0.02);
}

TEST(Generator, RowLocalityRaisesRowReuse) {
  WorkloadProfile lo = base_profile();
  lo.row_locality = 0.05;
  lo.random_fraction = 0.0;
  WorkloadProfile hi = base_profile();
  hi.row_locality = 0.95;
  hi.random_fraction = 0.0;
  const TraceSummary slo = analyze(generate_trace(lo, 20000), ref_geometry());
  const TraceSummary shi = analyze(generate_trace(hi, 20000), ref_geometry());
  EXPECT_GT(shi.row_reuse, slo.row_reuse + 0.3);
}

TEST(Generator, AddressesStayInFootprint) {
  WorkloadProfile p = base_profile();
  p.footprint_bytes = 4ULL << 20;
  const Trace t = generate_trace(p, 20000);
  for (const TraceRecord& r : t.records) {
    ASSERT_LT(r.addr, p.footprint_bytes);
    ASSERT_EQ(r.addr % 64, 0u);  // line-aligned
  }
}

TEST(Generator, BurstinessShortensGaps) {
  WorkloadProfile smooth = base_profile();
  smooth.burstiness = 0.0;
  WorkloadProfile bursty = base_profile();
  bursty.burstiness = 0.8;
  const Trace ts = generate_trace(smooth, 20000);
  const Trace tb = generate_trace(bursty, 20000);
  // Same overall MPKI...
  EXPECT_NEAR(ts.mpki(), tb.mpki(), 3.0);
  // ...but many more back-to-back records in the bursty trace.
  const auto count_short = [](const Trace& t) {
    std::size_t n = 0;
    for (const auto& r : t.records) n += r.icount_gap <= 3;
    return n;
  };
  EXPECT_GT(count_short(tb), count_short(ts) + 5000);
}

TEST(Generator, ValidatesProfile) {
  WorkloadProfile p = base_profile();
  p.mpki = 0.0;
  EXPECT_THROW(generate_trace(p, 10), std::invalid_argument);
  p = base_profile();
  p.write_fraction = 1.5;
  EXPECT_THROW(generate_trace(p, 10), std::invalid_argument);
  p = base_profile();
  p.num_streams = 0;
  EXPECT_THROW(generate_trace(p, 10), std::invalid_argument);
  p = base_profile();
  p.footprint_bytes = 128;
  EXPECT_THROW(generate_trace(p, 10), std::invalid_argument);
}

TEST(TraceIo, RoundTrips) {
  const Trace t = generate_trace(base_profile(), 500);
  std::stringstream ss;
  write_trace(ss, t);
  const Trace back = read_trace(ss);
  EXPECT_EQ(back.name, t.name);
  ASSERT_EQ(back.records.size(), t.records.size());
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    EXPECT_EQ(back.records[i].addr, t.records[i].addr);
    EXPECT_EQ(back.records[i].icount_gap, t.records[i].icount_gap);
    EXPECT_EQ(back.records[i].op, t.records[i].op);
  }
}

TEST(TraceIo, RejectsMalformed) {
  std::stringstream ss("12 0x40 R\nnot-a-gap 0x80 W\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
  std::stringstream ss2("12 0x40 X\n");
  EXPECT_THROW(read_trace(ss2), std::runtime_error);
}

TEST(TraceIo, ReadsBothCases) {
  std::stringstream ss("5 0x40 r\n6 0x80 w\n");
  const Trace t = read_trace(ss);
  ASSERT_EQ(t.records.size(), 2u);
  EXPECT_EQ(t.records[0].op, OpType::kRead);
  EXPECT_EQ(t.records[1].op, OpType::kWrite);
}

TEST(TraceIo, AnySniffsFormat) {
  const Trace t = generate_trace(base_profile(), 50);
  const std::string dir = ::testing::TempDir();
  write_trace_file(dir + "fg_t.txt", t);
  write_trace_stream_file(dir + "fg_t.fgs", t);
  EXPECT_EQ(read_trace_any_file(dir + "fg_t.txt").records.size(), 50u);
  EXPECT_EQ(read_trace_any_file(dir + "fg_t.fgs").records.size(), 50u);
  // The retired FGT1 binary format is named, with the way to convert it.
  {
    std::ofstream f(dir + "fg_t.bin", std::ios::binary);
    f << "FGT1" << std::string(32, '\0');
  }
  try {
    (void)read_trace_any_file(dir + "fg_t.bin");
    FAIL() << "an FGT1 file must not read";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FGT1"), std::string::npos) << what;
    EXPECT_NE(what.find(".fgs"), std::string::npos) << what;
  }
  for (const char* leaf : {"fg_t.txt", "fg_t.fgs", "fg_t.bin"}) {
    std::remove((dir + leaf).c_str());
  }
}

TEST(Analyzer, CountsFootprint) {
  Trace t;
  t.name = "tiny";
  t.records = {{10, 0, OpType::kRead},
               {10, 64, OpType::kWrite},
               {10, 0, OpType::kRead}};
  const TraceSummary s = analyze(t, ref_geometry());
  EXPECT_EQ(s.memory_ops, 3u);
  EXPECT_EQ(s.reads, 2u);
  EXPECT_EQ(s.writes, 1u);
  EXPECT_EQ(s.unique_lines, 2u);
  EXPECT_EQ(s.footprint_bytes, 128u);
}

TEST(Analyzer, RowReuseOfPureStream) {
  // 16 consecutive lines = one full 1KB row: 15 of 16 accesses reuse.
  Trace t;
  for (std::uint64_t i = 0; i < 16; ++i) {
    t.records.push_back({1, i * 64, OpType::kRead});
  }
  const TraceSummary s = analyze(t, ref_geometry());
  EXPECT_NEAR(s.row_reuse, 15.0 / 16.0, 1e-9);
}

TEST(SpecProfiles, AllValidAndUnique) {
  const auto profiles = spec2006_profiles();
  EXPECT_EQ(profiles.size(), 12u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_NO_THROW(profiles[i].validate());
    EXPECT_GE(profiles[i].mpki, 10.0) << profiles[i].name
        << ": paper selects benchmarks with >= 10 MPKI";
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      EXPECT_NE(profiles[i].name, profiles[j].name);
      EXPECT_NE(profiles[i].seed, profiles[j].seed);
    }
  }
}

TEST(SpecProfiles, LookupByName) {
  EXPECT_EQ(spec2006_profile("mcf").name, "mcf");
  EXPECT_THROW(spec2006_profile("doom"), std::runtime_error);
}

}  // namespace

// Found by ADL when gtest names the parameterized instances. Without it gtest
// dumps the profile's raw bytes, whose leading std::string data pointer is a
// heap address, so the test names would change from build to build.
void PrintTo(const WorkloadProfile& p, std::ostream* os) { *os << p.name; }

namespace {

// Property sweep: every profile generates a trace matching its own spec.
class ProfileFidelity : public ::testing::TestWithParam<WorkloadProfile> {};

TEST_P(ProfileFidelity, GeneratedTraceMatchesProfile) {
  const WorkloadProfile p = GetParam();
  const Trace t = generate_trace(p, 20000);
  const TraceSummary s = analyze(t, ref_geometry());
  EXPECT_NEAR(s.mpki, p.mpki, p.mpki * 0.15) << p.name;
  EXPECT_NEAR(s.write_fraction, p.write_fraction, 0.03) << p.name;
  EXPECT_LE(s.footprint_bytes, p.footprint_bytes) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProfiles, ProfileFidelity,
    ::testing::ValuesIn(spec2006_profiles()),
    [](const ::testing::TestParamInfo<WorkloadProfile>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace fgnvm::trace

// Unit tests for the fg_common library: bit utilities, RNG determinism,
// statistics accumulators, config parsing, and table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bitutil.hpp"
#include "common/config.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace fgnvm {
namespace {

TEST(BitUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 63));
  EXPECT_FALSE(is_pow2((1ULL << 63) + 1));
}

TEST(BitUtil, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(1024), 10u);
  EXPECT_EQ(log2_exact(1ULL << 40), 40u);
}

TEST(BitUtil, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
}

TEST(BitUtil, Bits) {
  EXPECT_EQ(bits(0xABCD, 0, 4), 0xDu);
  EXPECT_EQ(bits(0xABCD, 4, 4), 0xCu);
  EXPECT_EQ(bits(0xABCD, 8, 8), 0xABu);
  EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
  EXPECT_EQ(bits(0xFF, 4, 0), 0u);
}

TEST(BitUtil, AlignUp) {
  EXPECT_EQ(align_up(0, 64), 0u);
  EXPECT_EQ(align_up(1, 64), 64u);
  EXPECT_EQ(align_up(64, 64), 64u);
  EXPECT_EQ(align_up(65, 64), 128u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) ++seen[rng.next_below(8)];
  for (int count : seen) EXPECT_GT(count, 700);  // roughly uniform
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextGapMean) {
  Rng rng(13);
  double sum = 0;
  const std::uint64_t mean = 50;
  for (int i = 0; i < 20000; ++i) sum += static_cast<double>(rng.next_gap(mean));
  EXPECT_NEAR(sum / 20000.0, static_cast<double>(mean), 2.0);
}

TEST(Distribution, BasicMoments) {
  Distribution d;
  for (double v : {1.0, 2.0, 3.0, 4.0}) d.add(v);
  EXPECT_EQ(d.count(), 4u);
  EXPECT_DOUBLE_EQ(d.mean(), 2.5);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 4.0);
  EXPECT_NEAR(d.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Distribution, EmptyIsZero) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_EQ(d.mean(), 0.0);
  EXPECT_EQ(d.stddev(), 0.0);
}

TEST(Histogram, BucketsAndPercentile) {
  Histogram h(10, 10.0);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
  h.add(1e9);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, MergeAddsBuckets) {
  Histogram a(10, 10.0), b(10, 10.0);
  a.add(5.0);
  b.add(5.0);
  b.add(95.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.bucket(0), 2u);
  EXPECT_EQ(a.bucket(9), 1u);
  Histogram c(5, 10.0);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
}

TEST(Distribution, MergeIsExactForMoments) {
  Distribution a, b, all;
  for (double v : {1.0, 2.0, 9.0}) {
    a.add(v);
    all.add(v);
  }
  for (double v : {4.0, 6.0}) {
    b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(StatSet, HistogramSamplesAndMerge) {
  StatSet s, t;
  s.hsample("lat", 10.0);
  t.hsample("lat", 700.0);
  t.hsample("other", 1.0);
  s.merge(t);
  EXPECT_EQ(s.histogram("lat").total(), 2u);
  EXPECT_EQ(s.histogram("other").total(), 1u);
  EXPECT_EQ(s.histogram("absent").total(), 0u);
  EXPECT_GT(s.histogram("lat").percentile(0.99), 100.0);
}

TEST(StatSet, CountersAndMerge) {
  StatSet a, b;
  a.inc("x", 2);
  b.inc("x", 3);
  b.inc("y");
  a.merge(b);
  EXPECT_EQ(a.counter("x"), 5u);
  EXPECT_EQ(a.counter("y"), 1u);
  EXPECT_EQ(a.counter("missing"), 0u);
}

TEST(StatSet, Distributions) {
  StatSet s;
  s.sample("lat", 10.0);
  s.sample("lat", 20.0);
  EXPECT_EQ(s.distribution("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(s.distribution("lat").mean(), 15.0);
  EXPECT_EQ(s.distribution("absent").count(), 0u);
}

TEST(Means, GeometricAndArithmetic) {
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(arithmetic_mean({1.0, 3.0}), 2.0);
}

TEST(Config, ParsesKeyValueForms) {
  const auto cfg = Config::from_string(
      "a = 1\n"
      "b 2\n"
      "c=hello # comment\n"
      "; full comment line\n"
      "\n"
      "d = 3.5\n"
      "e = true\n");
  EXPECT_EQ(cfg.get_u64("a", 0), 1u);
  EXPECT_EQ(cfg.get_u64("b", 0), 2u);
  EXPECT_EQ(cfg.get_string("c", ""), "hello");
  EXPECT_DOUBLE_EQ(cfg.get_double("d", 0), 3.5);
  EXPECT_TRUE(cfg.get_bool("e", false));
}

TEST(Config, DefaultsAndRequired) {
  const auto cfg = Config::from_string("x = 5\n");
  EXPECT_EQ(cfg.get_u64("missing", 7), 7u);
  EXPECT_EQ(cfg.require_u64("x"), 5u);
  EXPECT_THROW(cfg.require_string("nope"), std::runtime_error);
}

TEST(Config, RejectsMalformed) {
  EXPECT_THROW(Config::from_string("lonetoken\n"), std::runtime_error);
  const auto cfg = Config::from_string("k = notanumber\n");
  EXPECT_THROW(cfg.get_u64("k", 0), std::runtime_error);
  EXPECT_THROW(cfg.get_bool("k", false), std::runtime_error);
}

TEST(Config, LaterAssignmentWinsAndMerge) {
  auto cfg = Config::from_string("k = 1\nk = 2\n");
  EXPECT_EQ(cfg.get_u64("k", 0), 2u);
  Config other;
  other.set_u64("k", 9);
  cfg.merge(other);
  EXPECT_EQ(cfg.get_u64("k", 0), 9u);
}

TEST(Config, BoolSpellings) {
  const auto cfg =
      Config::from_string("a=yes\nb=off\nc=1\nd=FALSE\n");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

TEST(Config, UnreadKeysAreTheOnesNoGetterAskedFor) {
  const auto cfg = Config::from_string("sags = 4\nsagz = 8\ntWP_nss = 1\n");
  EXPECT_EQ(cfg.unread_keys(),
            (std::vector<std::string>{"sags", "sagz", "tWP_nss"}));
  EXPECT_EQ(cfg.get_u64("sags", 1), 4u);
  EXPECT_EQ(cfg.get_double("tWP_ns", 150.0), 150.0);  // asked, but unset
  EXPECT_EQ(cfg.unread_keys(), (std::vector<std::string>{"sagz", "tWP_nss"}));
}

TEST(Config, NearestAskedKeyHintsWithinTwoEdits) {
  const auto cfg = Config::from_string("sagz = 8\ntWP_nss = 1\nbogus = 1\n");
  (void)cfg.get_u64("sags", 4);
  (void)cfg.get_u64("cds", 4);
  (void)cfg.get_double("tWP_ns", 150.0);
  (void)cfg.get_double("tWR_ns", 15.0);
  EXPECT_EQ(cfg.nearest_asked_key("sagz"), std::optional<std::string>("sags"));
  EXPECT_EQ(cfg.nearest_asked_key("tWP_nss"),
            std::optional<std::string>("tWP_ns"));
  EXPECT_EQ(cfg.nearest_asked_key("bogus"), std::nullopt);
  EXPECT_EQ(cfg.nearest_asked_key("tXYZ_ns"), std::nullopt);  // 3 edits
}

TEST(Table, AlignsAndRejectsBadArity) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"k"});
  t.add_row({"a,b"});
  EXPECT_NE(t.to_csv().find("\"a,b\""), std::string::npos);
}

TEST(Table, Fmt) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace fgnvm

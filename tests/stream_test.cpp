// Tests for the FGS1 streaming trace format (DESIGN.md §16): writer/reader
// round trips, malformed-input rejection, the buffered fallback, and the
// bounded-residency guarantee the thousand-core runner relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/stream.hpp"

namespace fgnvm::trace {
namespace {

std::string tmp_path(const std::string& leaf) {
  return ::testing::TempDir() + "fgnvm_stream_" + std::to_string(::getpid()) +
         "_" + leaf;
}

/// Removes its file on scope exit so failed assertions don't leak files.
struct ScopedFile {
  std::string path;
  explicit ScopedFile(std::string p) : path(std::move(p)) {}
  ~ScopedFile() { std::remove(path.c_str()); }
};

Trace small_trace(std::uint64_t ops = 500) {
  return generate_trace(spec2006_profile("milc"), ops);
}

void expect_same_records(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].icount_gap, b.records[i].icount_gap) << i;
    EXPECT_EQ(a.records[i].addr, b.records[i].addr) << i;
    EXPECT_EQ(a.records[i].op, b.records[i].op) << i;
  }
}

// Raw little-endian emitters for hand-crafting malformed files.
void put_u32(std::string& s, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& s, std::uint64_t v) {
  put_u32(s, static_cast<std::uint32_t>(v));
  put_u32(s, static_cast<std::uint32_t>(v >> 32));
}

/// A header claiming `count` records named "x", followed by `body`.
void write_raw(const std::string& path, std::uint64_t count,
               const std::string& body, std::uint64_t total = 1000) {
  std::string s = "FGS1";
  put_u32(s, kStreamVersion);
  put_u32(s, 1);
  s.push_back('x');
  put_u64(s, count);
  put_u64(s, 0);      // tail
  put_u64(s, total);  // total instructions (not validated by the reader)
  s += body;
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(s.data(), static_cast<std::streamsize>(s.size()));
  ASSERT_TRUE(f.good());
}

std::string one_record(std::uint8_t len, std::uint32_t gap = 7,
                       std::uint64_t addr = 0x1000,
                       std::uint8_t op = 0) {
  std::string s;
  s.push_back(static_cast<char>(len));
  put_u32(s, gap);
  put_u64(s, addr);
  s.push_back(static_cast<char>(op));
  // Pad to the declared length (forward-compat bytes the reader skips).
  while (s.size() < 1u + len) s.push_back('\0');
  return s;
}

TEST(StreamTest, RoundTripMatchesOriginal) {
  Trace t = small_trace();
  t.tail_icount = 42;
  ScopedFile f(tmp_path("roundtrip.fgs"));
  write_trace_stream_file(f.path, t);
  const Trace back = read_trace_stream_file(f.path);
  EXPECT_EQ(back.name, t.name);
  EXPECT_EQ(back.tail_icount, t.tail_icount);
  EXPECT_EQ(back.total_instructions(), t.total_instructions());
  expect_same_records(t, back);
  EXPECT_TRUE(is_stream_trace_file(f.path));
}

TEST(StreamTest, ReadTraceAnyFileSniffsFgs1) {
  const Trace t = small_trace();
  ScopedFile f(tmp_path("sniff.fgs"));
  write_trace_stream_file(f.path, t);
  const Trace back = read_trace_any_file(f.path);
  EXPECT_EQ(back.name, t.name);
  expect_same_records(t, back);
}

TEST(StreamTest, ReaderHeaderAggregatesMatchTrace) {
  const Trace t = small_trace();
  ScopedFile f(tmp_path("agg.fgs"));
  write_trace_stream_file(f.path, t);
  StreamReader r(f.path);
  EXPECT_EQ(r.memory_ops(), t.records.size());
  EXPECT_EQ(r.tail_icount(), t.tail_icount);
  EXPECT_EQ(r.total_instructions(), t.total_instructions());
  EXPECT_EQ(r.name(), t.name);
}

TEST(StreamTest, StreamedRunByteIdenticalToMaterialized) {
  const Trace t = small_trace(800);
  ScopedFile f(tmp_path("run.fgs"));
  write_trace_stream_file(f.path, t);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  const sim::RunResult mat = sim::run_workload(t, cfg);
  StreamReader src(f.path);
  const sim::RunResult streamed = sim::run_workload(src, cfg);
  EXPECT_EQ(sim::diff_results(mat, streamed), "");
}

TEST(StreamTest, BufferedFallbackReadsIdenticalRecords) {
  const Trace t = small_trace();
  ScopedFile f(tmp_path("buffered.fgs"));
  write_trace_stream_file(f.path, t);
  StreamReaderOptions opts;
  opts.force_buffered = true;
  StreamReader r(f.path, opts);
  EXPECT_FALSE(r.using_mmap());
  Trace back;
  back.name = r.name();
  back.tail_icount = r.tail_icount();
  TraceRecord rec;
  while (r.next(rec)) back.records.push_back(rec);
  expect_same_records(t, back);
  EXPECT_LE(r.peak_resident_bytes(), r.window_bytes() + 4096);
}

TEST(StreamTest, ResetReplaysFromTheTop) {
  const Trace t = small_trace(64);
  ScopedFile f(tmp_path("reset.fgs"));
  write_trace_stream_file(f.path, t);
  StreamReader r(f.path);
  TraceRecord first{};
  ASSERT_TRUE(r.next(first));
  TraceRecord rec;
  while (r.next(rec)) {
  }
  EXPECT_FALSE(r.next(rec));  // stays at EOF
  r.reset();
  TraceRecord again{};
  ASSERT_TRUE(r.next(again));
  EXPECT_EQ(again.addr, first.addr);
  EXPECT_EQ(again.icount_gap, first.icount_gap);
}

TEST(StreamTest, TruncatedHeaderThrows) {
  ScopedFile f(tmp_path("trunc_hdr.fgs"));
  std::ofstream out(f.path, std::ios::binary);
  out.write("FGS1\x01\x00", 6);
  out.close();
  EXPECT_THROW(StreamReader r(f.path), std::runtime_error);
}

TEST(StreamTest, TruncatedRecordStreamThrows) {
  const Trace t = small_trace(32);
  ScopedFile f(tmp_path("trunc_rec.fgs"));
  write_trace_stream_file(f.path, t);
  std::ifstream in(f.path, std::ios::binary);
  const std::string whole((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  // Cut mid-record, and at half the file (still past the header).
  for (const std::size_t size : {whole.size() - 5, whole.size() / 2}) {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out.write(whole.data(), static_cast<std::streamsize>(size));
    out.close();
    StreamReader r(f.path);  // header still intact
    TraceRecord rec;
    EXPECT_THROW(
        {
          while (r.next(rec)) {
          }
        },
        std::runtime_error)
        << size;
  }
}

TEST(StreamTest, BadMagicThrows) {
  const Trace t = small_trace(8);
  ScopedFile f(tmp_path("magic.fgs"));
  write_trace_stream_file(f.path, t);
  std::fstream io(f.path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(0);
  io.write("NOPE", 4);
  io.close();
  EXPECT_THROW(StreamReader r(f.path), std::runtime_error);
  EXPECT_FALSE(is_stream_trace_file(f.path));
  {
    std::ofstream out(f.path, std::ios::binary | std::ios::trunc);
    out << "this is not a trace";
  }
  EXPECT_THROW(StreamReader r(f.path), std::runtime_error);
}

TEST(StreamTest, UnsupportedVersionThrows) {
  const Trace t = small_trace(8);
  ScopedFile f(tmp_path("version.fgs"));
  write_trace_stream_file(f.path, t);
  std::fstream io(f.path, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(4);
  const char v2[4] = {2, 0, 0, 0};
  io.write(v2, 4);
  io.close();
  EXPECT_THROW(StreamReader r(f.path), std::runtime_error);
}

TEST(StreamTest, ZeroLengthRecordThrows) {
  ScopedFile f(tmp_path("zerolen.fgs"));
  std::string body;
  body.push_back('\0');  // len = 0
  write_raw(f.path, 1, body);
  StreamReader r(f.path);
  TraceRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(StreamTest, UndersizedRecordThrows) {
  ScopedFile f(tmp_path("undersized.fgs"));
  std::string body;
  body.push_back(static_cast<char>(8));  // < kStreamPayloadBytes
  body += std::string(8, '\0');
  write_raw(f.path, 1, body);
  StreamReader r(f.path);
  TraceRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(StreamTest, OversizedRecordThrows) {
  ScopedFile f(tmp_path("oversized.fgs"));
  std::string body;
  body.push_back(static_cast<char>(kMaxRecordLen + 1));
  body += std::string(kMaxRecordLen + 1, '\0');
  write_raw(f.path, 1, body);
  StreamReader r(f.path);
  TraceRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(StreamTest, BadOpByteThrows) {
  ScopedFile f(tmp_path("badop.fgs"));
  write_raw(f.path, 1, one_record(13, 7, 0x40, /*op=*/2));
  StreamReader r(f.path);
  TraceRecord rec;
  EXPECT_THROW(r.next(rec), std::runtime_error);
}

TEST(StreamTest, ForwardCompatSkipsLongRecords) {
  ScopedFile f(tmp_path("fwdcompat.fgs"));
  // Two records whose declared length exceeds the known payload: the first
  // 13 payload bytes keep their meaning, the rest is skipped.
  const std::string body =
      one_record(20, 3, 0x1000, 0) + one_record(32, 5, 0x2040, 1);
  write_raw(f.path, 2, body, /*total=*/3 + 5 + 2);
  StreamReader r(f.path);
  TraceRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.icount_gap, 3u);
  EXPECT_EQ(rec.addr, 0x1000u);
  EXPECT_EQ(rec.op, OpType::kRead);
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.icount_gap, 5u);
  EXPECT_EQ(rec.addr, 0x2040u);
  EXPECT_EQ(rec.op, OpType::kWrite);
  EXPECT_FALSE(r.next(rec));
}

TEST(StreamTest, MaterializeValidatesHeaderInstructionCount) {
  ScopedFile f(tmp_path("badtotal.fgs"));
  // Header claims 999 total instructions; the single record sums to 8.
  write_raw(f.path, 1, one_record(13, 7, 0x80, 0), /*total=*/999);
  EXPECT_THROW(read_trace_stream_file(f.path), std::runtime_error);
}

TEST(StreamTest, WriterRejectsGapsBeyond32Bits) {
  ScopedFile f(tmp_path("biggap.fgs"));
  StreamWriter w(f.path, "big");
  TraceRecord r;
  r.icount_gap = 0x1'0000'0000ull;
  EXPECT_THROW(w.append(r), std::runtime_error);
}

TEST(StreamTest, MissingFileThrows) {
  EXPECT_THROW(StreamReader r(tmp_path("does_not_exist.fgs")),
               std::runtime_error);
}

// The bounded-residency acceptance test: a 10M-record stream (~140 MB on
// disk) replayed through a 256 KiB window must never hold more than the
// window (plus one page of alignment slack) resident, while reproducing
// every record exactly. Records are synthesized by a splitmix-style
// generator so neither side materializes the trace.
TEST(StreamTest, TenMillionRecordStreamStaysWithinWindow) {
  constexpr std::uint64_t kRecords = 10'000'000;
  const auto rec_at = [](std::uint64_t i) {
    TraceRecord r;
    std::uint64_t z = (i + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    r.icount_gap = static_cast<std::uint32_t>(z & 0xFFFF);
    r.addr = (z >> 16 << 6) & 0x3FFFFFFFFFull;
    r.op = (z & 1) != 0 ? OpType::kWrite : OpType::kRead;
    return r;
  };
  ScopedFile f(tmp_path("ten_million.fgs"));
  std::uint64_t want_insts = 0;
  {
    StreamWriter w(f.path, "ten_million");
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      const TraceRecord r = rec_at(i);
      w.append(r);
      want_insts += r.icount_gap + 1;
    }
    w.finish();
    ASSERT_EQ(w.records_written(), kRecords);
  }
  StreamReaderOptions opts;
  opts.window_bytes = 256u << 10;
  StreamReader r(f.path, opts);
  EXPECT_EQ(r.memory_ops(), kRecords);
  EXPECT_EQ(r.total_instructions(), want_insts);
  TraceRecord rec;
  std::uint64_t i = 0;
  while (r.next(rec)) {
    const TraceRecord want = rec_at(i);
    // Full per-record comparison without 10M EXPECT bookkeeping entries.
    if (rec.icount_gap != want.icount_gap || rec.addr != want.addr ||
        rec.op != want.op) {
      FAIL() << "record " << i << " diverged";
    }
    ++i;
  }
  EXPECT_EQ(i, kRecords);
  // The whole point: residency is the window, not the 140 MB file.
  EXPECT_LE(r.peak_resident_bytes(), r.window_bytes() + 4096);
  EXPECT_GE(r.window_bytes(), 256u << 10);
  EXPECT_LT(r.window_bytes() + 4096, 1u << 20);
}

}  // namespace
}  // namespace fgnvm::trace

// Unit tests for the ROB-occupancy CPU model.
#include <gtest/gtest.h>

#include <vector>

#include "cpu/rob_cpu.hpp"
#include "sys/presets.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace fgnvm::cpu {
namespace {

trace::Trace plain_trace(std::uint64_t records, std::uint64_t gap) {
  trace::Trace t;
  t.name = "synthetic";
  for (std::uint64_t i = 0; i < records; ++i) {
    // Stride chosen to walk banks and rows (bank bits sit at 10..12 in the
    // reference geometry) so requests spread across the memory.
    t.records.push_back({gap, (i * 1088) % (1ULL << 22), OpType::kRead});
  }
  return t;
}

struct Harness {
  explicit Harness(const trace::Trace& tr, CpuParams params = {})
      : src(tr), mem(sys::fgnvm_config(4, 4)), cpu(src, params, mem) {}

  void run(Cycle max_mem_cycles = 2'000'000) {
    for (Cycle t = 0; t < max_mem_cycles; ++t) {
      mem.drain_completed(completed);
      cpu.complete(completed);
      cpu.tick_mem_cycle(t);
      mem.tick(t);
      if (cpu.finished() && mem.idle()) return;
    }
    FAIL() << "did not finish";
  }

  trace::TraceSource src;
  sys::MemorySystem mem;
  RobCpu cpu;
  std::vector<mem::MemRequest> completed;
};

TEST(RobCpu, EmptyTraceFinishesImmediately) {
  trace::Trace t;
  t.name = "empty";
  sys::MemorySystem mem(sys::fgnvm_config(4, 4));
  trace::TraceSource src(t);
  RobCpu cpu(src, {}, mem);
  EXPECT_TRUE(cpu.finished());
  EXPECT_EQ(cpu.total_instructions(), 0u);
}

TEST(RobCpu, RetiresEveryInstruction) {
  const trace::Trace tr = plain_trace(200, 50);
  Harness h(tr);
  h.run();
  EXPECT_EQ(h.cpu.instructions_retired(), tr.total_instructions());
  EXPECT_EQ(h.mem.submitted_reads(), 200u);
}

TEST(RobCpu, IpcBoundedByFetchWidth) {
  const trace::Trace tr = plain_trace(100, 1000);
  Harness h(tr);
  h.run();
  EXPECT_LE(h.cpu.ipc(), 4.0);
  EXPECT_GT(h.cpu.ipc(), 0.0);
}

TEST(RobCpu, SparseMissesApproachPeakIpc) {
  // One miss per 10k instructions: memory barely matters.
  const trace::Trace tr = plain_trace(20, 10000);
  Harness h(tr);
  h.run();
  EXPECT_GT(h.cpu.ipc(), 3.3);
}

TEST(RobCpu, DenseMissesTankIpc) {
  const trace::Trace tr = plain_trace(2000, 10);
  Harness h(tr);
  h.run();
  EXPECT_LT(h.cpu.ipc(), 1.0);
}

TEST(RobCpu, LowerMemoryLatencyRaisesIpc) {
  const trace::Trace tr = plain_trace(1000, 30);
  Harness slow(tr);
  slow.run();
  // Same trace against a much faster (many-bank) memory.
  sys::MemorySystem fast_mem(sys::many_banks_config(8, 2));
  trace::TraceSource fast_src(tr);
  RobCpu fast_cpu(fast_src, {}, fast_mem);
  std::vector<mem::MemRequest> completed;
  for (Cycle t = 0;; ++t) {
    ASSERT_LT(t, 2'000'000u);
    fast_mem.drain_completed(completed);
    fast_cpu.complete(completed);
    fast_cpu.tick_mem_cycle(t);
    fast_mem.tick(t);
    if (fast_cpu.finished() && fast_mem.idle()) break;
  }
  EXPECT_GE(fast_cpu.ipc(), slow.cpu.ipc());
}

TEST(RobCpu, RobSizeCapsMlp) {
  // All misses back-to-back: a tiny ROB must run slower than a big one.
  trace::Trace tr = plain_trace(1000, 0);
  CpuParams small;
  small.rob_entries = 8;
  CpuParams big;
  big.rob_entries = 256;
  Harness hs(tr, small), hb(tr, big);
  hs.run();
  hb.run();
  EXPECT_GT(hb.cpu.ipc(), hs.cpu.ipc());
}

TEST(RobCpu, WritesDoNotBlockRetirement) {
  // A pure-write trace should retire at full speed (posted stores).
  trace::Trace tr;
  for (std::uint64_t i = 0; i < 50; ++i) {
    tr.records.push_back({100, i * 8192, OpType::kWrite});
  }
  Harness h(tr);
  h.run();
  EXPECT_GT(h.cpu.ipc(), 3.0);
}

TEST(RobCpu, ParamsFromConfig) {
  const auto cfg = Config::from_string(
      "rob_entries = 64\nfetch_width = 2\ncpu_per_mem_clock = 4\n");
  const CpuParams p = CpuParams::from_config(cfg);
  EXPECT_EQ(p.rob_entries, 64u);
  EXPECT_EQ(p.fetch_width, 2u);
  EXPECT_EQ(p.cpu_per_mem_clock, 4u);
}

TEST(RobCpu, CpuCyclesCountedUntilFinish) {
  const trace::Trace tr = plain_trace(10, 10);
  Harness h(tr);
  h.run();
  EXPECT_GT(h.cpu.cpu_cycles(), 0u);
  const double ipc = static_cast<double>(h.cpu.instructions_retired()) /
                     static_cast<double>(h.cpu.cpu_cycles());
  EXPECT_DOUBLE_EQ(h.cpu.ipc(), ipc);
}

}  // namespace
}  // namespace fgnvm::cpu

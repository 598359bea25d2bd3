// Overlapped blocked-channel walk (DESIGN.md §9): while a memory-only record
// blocks on a full channel, helper threads advance the other channels up to
// the blocked channel's published watermark. These tests pin that the
// memory-only runner stays bit-identical to the cycle-accurate loop with
// helpers running (checked through the process-wide episode counter), that
// a max_mem_cycles overrun still throws the serial run's error, and that no
// helper starts inside a sweep item or at FGNVM_THREADS=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/sweep.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace fgnvm;

/// Sets FGNVM_THREADS for one scope and restores the previous value.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    if (const char* old = std::getenv("FGNVM_THREADS")) old_ = old;
    setenv("FGNVM_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (old_) {
      setenv("FGNVM_THREADS", old_->c_str(), 1);
    } else {
      unsetenv("FGNVM_THREADS");
    }
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> old_;
};

/// FgNVM 8x8 with deep queues (64 reads, 128 writes, drain 64/16): the
/// write-heavy regime where blocked walks are long.
sys::SystemConfig deep_fgnvm(std::uint64_t channels) {
  sys::SystemConfig cfg = sys::fgnvm_config(8, 8);
  cfg.geometry.channels = channels;
  cfg.geometry.validate();
  cfg.controller.read_queue_cap = 64;
  cfg.controller.write_queue_cap = 128;
  cfg.controller.wq_high = 64;
  cfg.controller.wq_low = 16;
  return cfg;
}

sys::SystemConfig dram_salp(std::uint64_t channels) {
  sys::SystemConfig cfg = sys::dram_config(8);
  cfg.geometry.channels = channels;
  cfg.geometry.validate();
  return cfg;
}

/// mcf with 80% writes, the write-heavy mix of the memonly_writes benchmark.
trace::Trace write_heavy_trace(std::uint64_t ops) {
  trace::WorkloadProfile p = trace::spec2006_profile("mcf");
  p.name = "mcf_w80";
  p.write_fraction = 0.8;
  return trace::generate_trace(p, ops);
}

struct OverlapCase {
  const char* kind;  // "fgnvm_deep" or "dram_salp"
  std::uint64_t channels;
};

// Printed into the ctest case names: the default byte dump would include
// the pointer value of `kind`, which changes from build to build.
std::ostream& operator<<(std::ostream& os, const OverlapCase& c) {
  return os << c.kind << "/" << c.channels;
}

class ChannelOverlap : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(ChannelOverlap, MemoryOnlyMatchesCycleAccurate) {
  const OverlapCase c = GetParam();
  const ScopedThreads threads("4");
  const sys::SystemConfig cfg = std::string(c.kind) == "fgnvm_deep"
                                    ? deep_fgnvm(c.channels)
                                    : dram_salp(c.channels);
  const trace::Trace tr = write_heavy_trace(3000 * c.channels);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  const std::uint64_t before = sys::MemorySystem::overlap_episodes();
  const sim::RunResult got =
      sim::run_memory_only(tr, cfg, 500'000'000, sim::LoopMode::kEventSkip);
  EXPECT_GT(sys::MemorySystem::overlap_episodes(), before)
      << "no blocked walk outlasted the gate: the overlapped path never ran";
  EXPECT_EQ(sim::diff_results(ref, got), "");
  EXPECT_EQ(got.reads + got.writes, tr.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    Systems, ChannelOverlap,
    ::testing::Values(OverlapCase{"fgnvm_deep", 2}, OverlapCase{"fgnvm_deep", 4},
                      OverlapCase{"fgnvm_deep", 8}, OverlapCase{"dram_salp", 2},
                      OverlapCase{"dram_salp", 4}, OverlapCase{"dram_salp", 8}),
    [](const auto& info) {
      return std::string(info.param.kind) + "_ch" +
             std::to_string(info.param.channels);
    });

/// Runs `tr` memory-only and returns the message of the runtime_error it
/// throws, or "" when it finishes.
std::string overrun_error(const trace::Trace& tr, const sys::SystemConfig& cfg,
                          Cycle max_mem_cycles) {
  try {
    sim::run_memory_only(tr, cfg, max_mem_cycles, sim::LoopMode::kEventSkip);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ChannelOverlapErrors, OverrunThrowsTheSerialErrorWithHelpersActive) {
  const sys::SystemConfig cfg = deep_fgnvm(4);
  const trace::Trace tr = write_heavy_trace(8000);
  std::string serial;
  Cycle length = 0;
  {
    const ScopedThreads threads("1");
    length = sim::run_memory_only(tr, cfg, 500'000'000,
                                  sim::LoopMode::kEventSkip)
                 .mem_cycles;
    serial = overrun_error(tr, cfg, length - 1);
  }
  ASSERT_NE(serial.find("exceeded max_mem_cycles"), std::string::npos)
      << serial;
  const ScopedThreads threads("4");
  const std::uint64_t before = sys::MemorySystem::overlap_episodes();
  EXPECT_EQ(overrun_error(tr, cfg, length - 1), serial);
  EXPECT_GT(sys::MemorySystem::overlap_episodes(), before);
  // With the full length as its limit the same run finishes.
  EXPECT_EQ(overrun_error(tr, cfg, length), "");
}

TEST(ChannelOverlapHelpers, NoneAtOneThreadOrInsideASweepItem) {
  const sys::SystemConfig cfg = deep_fgnvm(4);
  const trace::Trace tr = write_heavy_trace(4000);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  {
    const ScopedThreads threads("1");
    const std::uint64_t before = sys::MemorySystem::overlap_episodes();
    const sim::RunResult got =
        sim::run_memory_only(tr, cfg, 500'000'000, sim::LoopMode::kEventSkip);
    EXPECT_EQ(sys::MemorySystem::overlap_episodes(), before);
    EXPECT_EQ(sim::diff_results(ref, got), "");
  }
  const ScopedThreads threads("4");
  sim::SweepRunner sweep(2);
  std::vector<std::uint64_t> episodes(2);
  std::vector<std::string> diffs(2);
  sweep.for_each(2, [&](std::size_t i) {
    const std::uint64_t before = sys::MemorySystem::overlap_episodes();
    const sim::RunResult got =
        sim::run_memory_only(tr, cfg, 500'000'000, sim::LoopMode::kEventSkip);
    episodes[i] = sys::MemorySystem::overlap_episodes() - before;
    diffs[i] = sim::diff_results(ref, got);
  });
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(episodes[i], 0u) << "sweep item " << i;
    EXPECT_EQ(diffs[i], "") << "sweep item " << i;
  }
}

}  // namespace

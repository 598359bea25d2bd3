// Head-of-line replay on the tile shards (DESIGN.md §9, §14): the
// event-skip engine of sim::run_memory_only for a plain system. Each
// channel lives on one shard thread; the coordinator carries one global
// submission cycle, sends records on credit and, only when a queue may be
// full, asks: it claims the shard and reads the record's accepted cycle
// from the channel. These tests pin the replay bit-identical to the
// cycle-accurate loop with the shard threads running (checked through the
// shards' metrics), with asks that reach parked workers and more workers
// than CPUs, inline at FGNVM_THREADS=1 and inside a sweep item, and check
// that a max_mem_cycles overrun throws the serial run's error.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/sweep.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "sys/presets.hpp"
#include "tile/doorbell.hpp"
#include "tile/topology.hpp"
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

sys::SystemConfig with_channels(sys::SystemConfig cfg,
                                std::uint64_t channels) {
  cfg.geometry.channels = channels;
  cfg.geometry.validate();
  return cfg;
}

/// FgNVM 8x8 with deep queues (64 reads, 128 writes, drain 64/16): the
/// write-heavy regime where blocked walks are long.
sys::SystemConfig deep_fgnvm(std::uint64_t channels) {
  sys::SystemConfig cfg = with_channels(sys::fgnvm_config(8, 8), channels);
  cfg.controller.read_queue_cap = 64;
  cfg.controller.write_queue_cap = 128;
  cfg.controller.wq_high = 64;
  cfg.controller.wq_low = 16;
  return cfg;
}

sys::SystemConfig system_named(const std::string& kind,
                               std::uint64_t channels) {
  if (kind == "fgnvm_4x4") {
    return with_channels(sys::fgnvm_config(4, 4), channels);
  }
  if (kind == "dram_salp8") return with_channels(sys::dram_config(8), channels);
  return deep_fgnvm(channels);
}

/// mcf with 80% writes, the write-heavy mix of the memonly_writes benchmark.
trace::Trace write_heavy_trace(std::uint64_t ops) {
  trace::WorkloadProfile p = trace::spec2006_profile("mcf");
  p.name = "mcf_w80";
  p.write_fraction = 0.8;
  return trace::generate_trace(p, ops);
}

/// Sums one ShardMetrics field over the shards of a run.
template <typename Field>
std::uint64_t total(const tile::HeadOfLineRun& run, Field field) {
  std::uint64_t n = 0;
  for (const tile::ShardMetrics& m : run.shards) n += m.*field;
  return n;
}

struct ReplayCase {
  const char* kind;  // "fgnvm_4x4", "dram_salp8" or "fgnvm_deep"
  std::uint64_t channels;
  const char* workload;
};

// Printed into the ctest case names: the default byte dump would include
// the pointer values, which change from build to build.
std::ostream& operator<<(std::ostream& os, const ReplayCase& c) {
  return os << c.kind << "/" << c.channels << "/" << c.workload;
}

std::vector<ReplayCase> replay_matrix() {
  std::vector<ReplayCase> cases;
  for (const char* kind : {"fgnvm_4x4", "dram_salp8", "fgnvm_deep"}) {
    for (const std::uint64_t channels : {1u, 2u, 4u, 8u}) {
      for (const char* workload : {"milc", "mcf", "lbm"}) {
        cases.push_back({kind, channels, workload});
      }
    }
  }
  return cases;
}

class HeadOfLineReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(HeadOfLineReplay, MatchesCycleAccurate) {
  const ReplayCase c = GetParam();
  const ScopedThreads threads("4");
  const sys::SystemConfig cfg = system_named(c.kind, c.channels);
  const trace::Trace tr = trace::generate_trace(
      trace::spec2006_profile(c.workload), 1000 * c.channels);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  trace::TraceSource source(tr);
  const tile::HeadOfLineRun got =
      tile::run_head_of_line(source, cfg, 500'000'000);
  EXPECT_EQ(sim::diff_results(ref, got.run), "");
  // One shard per channel up to the four threads; one channel runs inline.
  EXPECT_EQ(got.threaded, c.channels > 1);
  EXPECT_EQ(got.shards.size(), std::min<std::uint64_t>(c.channels, 4));
  EXPECT_EQ(total(got, &tile::ShardMetrics::ops), tr.records.size());
  for (const tile::ShardMetrics& m : got.shards) EXPECT_GT(m.ops, 0u);
  // The runner's event-skip entry is the same engine.
  EXPECT_EQ(sim::diff_results(ref, sim::run_memory_only(
                                       tr, cfg, 500'000'000,
                                       sim::LoopMode::kEventSkip)),
            "");
}

INSTANTIATE_TEST_SUITE_P(Systems, HeadOfLineReplay,
                         ::testing::ValuesIn(replay_matrix()),
                         [](const auto& info) {
                           return std::string(info.param.kind) + "_ch" +
                                  std::to_string(info.param.channels) + "_" +
                                  info.param.workload;
                         });

TEST(HeadOfLineReplayWalks, WriteHeavyRunAsksAndPublishesTheHorizon) {
  // Deep write queues fill: records ask, blocked walks publish their chain
  // position, and idle shards advance to the horizon.
  const ScopedThreads threads("4");
  const sys::SystemConfig cfg = deep_fgnvm(4);
  const trace::Trace tr = write_heavy_trace(12000);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  trace::TraceSource source(tr);
  const tile::HeadOfLineRun got =
      tile::run_head_of_line(source, cfg, 500'000'000);
  EXPECT_EQ(sim::diff_results(ref, got.run), "");
  ASSERT_TRUE(got.threaded);
  EXPECT_GT(total(got, &tile::ShardMetrics::asks), 0u);
  EXPECT_LT(total(got, &tile::ShardMetrics::asks), tr.records.size());
  EXPECT_GT(total(got, &tile::ShardMetrics::marks), 0u);
  EXPECT_GT(total(got, &tile::ShardMetrics::horizon_advances), 0u);
  EXPECT_EQ(total(got, &tile::ShardMetrics::completions), 0u)
      << "a head-of-line replay keeps no completion stream";
}

/// Forwards a source, sleeping 3 x kSpinBeforePark before every `every`-th
/// record: the shard workers run out of commands and park.
class NappingSource final : public trace::RecordSource {
 public:
  NappingSource(trace::RecordSource& inner, std::uint64_t every)
      : inner_(inner), every_(every) {}

  const std::string& name() const override { return inner_.name(); }
  std::uint64_t memory_ops() const override { return inner_.memory_ops(); }
  std::uint64_t tail_icount() const override { return inner_.tail_icount(); }
  std::uint64_t total_instructions() const override {
    return inner_.total_instructions();
  }
  bool next(trace::TraceRecord& out) override {
    if (++count_ % every_ == 0) {
      std::this_thread::sleep_for(3 * tile::kSpinBeforePark);
    }
    return inner_.next(out);
  }
  void reset() override {
    count_ = 0;
    inner_.reset();
  }

 private:
  trace::RecordSource& inner_;
  const std::uint64_t every_;
  std::uint64_t count_ = 0;
};

TEST(HeadOfLineStarvedWorkers, AsksReachParkedWorkers) {
  // Every 200th record comes late enough that all workers park, so the
  // asks after it go to shards whose workers sleep.
  const ScopedThreads threads("4");
  const sys::SystemConfig cfg = deep_fgnvm(4);
  const trace::Trace tr = write_heavy_trace(12000);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  trace::TraceSource inner(tr);
  NappingSource source(inner, 200);
  const tile::HeadOfLineRun got =
      tile::run_head_of_line(source, cfg, 500'000'000);
  EXPECT_EQ(sim::diff_results(ref, got.run), "");
  ASSERT_TRUE(got.threaded);
  EXPECT_GT(total(got, &tile::ShardMetrics::asks), 0u);
}

TEST(HeadOfLineStarvedWorkers, MoreWorkersThanCpus) {
  // Eight workers plus the coordinator: on a host with fewer CPUs some
  // asks go to workers that are not scheduled.
  const ScopedThreads threads("8");
  const sys::SystemConfig cfg = deep_fgnvm(8);
  const trace::Trace tr = write_heavy_trace(16000);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  trace::TraceSource source(tr);
  const tile::HeadOfLineRun got =
      tile::run_head_of_line(source, cfg, 500'000'000);
  EXPECT_EQ(sim::diff_results(ref, got.run), "");
  ASSERT_TRUE(got.threaded);
  // Eight shards unless the host is small enough to clamp them.
  EXPECT_EQ(got.shards.size(), sim::clamp_thread_count(8, "test"));
  EXPECT_GT(total(got, &tile::ShardMetrics::asks), 0u);
}

/// Runs `tr` memory-only and returns the message of the runtime_error it
/// throws, or "" when it finishes.
std::string overrun_error(const trace::Trace& tr, const sys::SystemConfig& cfg,
                          Cycle max_mem_cycles, sim::LoopMode mode) {
  try {
    sim::run_memory_only(tr, cfg, max_mem_cycles, mode);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(HeadOfLineErrors, OverrunThrowsTheSerialErrorWithShardsActive) {
  const ScopedThreads threads("4");
  const sys::SystemConfig cfg = deep_fgnvm(4);
  const trace::Trace tr = write_heavy_trace(8000);
  trace::TraceSource source(tr);
  const tile::HeadOfLineRun full =
      tile::run_head_of_line(source, cfg, 500'000'000);
  ASSERT_TRUE(full.threaded);
  const Cycle length = full.run.mem_cycles;
  const std::string serial =
      overrun_error(tr, cfg, length - 1, sim::LoopMode::kCycleAccurate);
  EXPECT_EQ(serial, "run_memory_only: exceeded max_mem_cycles on " +
                        tr.name + " / " + cfg.name);
  EXPECT_EQ(overrun_error(tr, cfg, length - 1, sim::LoopMode::kEventSkip),
            serial);
  // A budget that ends inside a blocked walk, long before the drain.
  EXPECT_EQ(overrun_error(tr, cfg, length / 2, sim::LoopMode::kEventSkip),
            overrun_error(tr, cfg, length / 2, sim::LoopMode::kCycleAccurate));
  // With the full length as its limit the same run finishes.
  EXPECT_EQ(overrun_error(tr, cfg, length, sim::LoopMode::kEventSkip), "");
}

TEST(HeadOfLineInline, AtOneThreadAndInsideASweepItem) {
  const sys::SystemConfig cfg = deep_fgnvm(4);
  const trace::Trace tr = write_heavy_trace(4000);
  const sim::RunResult ref = sim::run_memory_only(
      tr, cfg, 500'000'000, sim::LoopMode::kCycleAccurate);
  {
    const ScopedThreads threads("1");
    trace::TraceSource source(tr);
    const tile::HeadOfLineRun got =
        tile::run_head_of_line(source, cfg, 500'000'000);
    EXPECT_FALSE(got.threaded);
    EXPECT_EQ(got.shards.size(), 1u);
    EXPECT_EQ(sim::diff_results(ref, got.run), "");
  }
  const ScopedThreads threads("4");
  sim::SweepRunner sweep(2);
  std::vector<int> threaded(2, -1);
  std::vector<std::string> diffs(2);
  sweep.for_each(2, [&](std::size_t i) {
    trace::TraceSource source(tr);
    const tile::HeadOfLineRun got =
        tile::run_head_of_line(source, cfg, 500'000'000);
    threaded[i] = got.threaded ? 1 : 0;
    diffs[i] = sim::diff_results(ref, got.run);
  });
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(threaded[i], 0) << "sweep item " << i;
    EXPECT_EQ(diffs[i], "") << "sweep item " << i;
  }
}

}  // namespace

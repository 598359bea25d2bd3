// SweepRunner thread-pool tests (tier 1): deterministic result ordering
// regardless of thread count, full coverage of every index, exception
// propagation, and the FGNVM_THREADS environment override.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "common/sweep.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace fgnvm;

TEST(SweepThreadCount, RequestedWinsAndEnvFallsBack) {
  EXPECT_EQ(sim::sweep_thread_count(3), 3u);
  setenv("FGNVM_THREADS", "5", 1);
  EXPECT_EQ(sim::sweep_thread_count(), 5u);
  EXPECT_EQ(sim::sweep_thread_count(2), 2u);  // explicit beats env
  unsetenv("FGNVM_THREADS");
  EXPECT_GE(sim::sweep_thread_count(), 1u);  // falls back to hardware
}

TEST(SweepThreadCount, MalformedEnvThrowsNamingTheValue) {
  for (const char* bad : {"abc", "bogus", "0", "-3", "4x", "", " 2",
                          "99999999999999999999"}) {
    setenv("FGNVM_THREADS", bad, 1);
    try {
      sim::sweep_thread_count();
      ADD_FAILURE() << "FGNVM_THREADS='" << bad << "' was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("FGNVM_THREADS"), std::string::npos) << msg;
      EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos)
          << msg;
    }
    // An explicit request never consults the variable.
    EXPECT_EQ(sim::sweep_thread_count(2), 2u);
  }
  unsetenv("FGNVM_THREADS");
}

TEST(SweepRunner, MapCoversEveryIndexInOrder) {
  sim::SweepRunner pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  const std::vector<int> out = pool.map<int>(
      100, [](std::size_t i) { return static_cast<int>(i) * 7; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 7);
  }
}

TEST(SweepRunner, ForEachRunsEachIndexExactlyOnce) {
  sim::SweepRunner pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.for_each(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, ResultsIdenticalAcrossThreadCounts) {
  // The determinism contract the fig4/fig5 drivers rely on: identical
  // simulation results in identical slots, for 1 thread and many.
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 400);
  const std::vector<sys::SystemConfig> cfgs = {
      sys::baseline_config(), sys::fgnvm_config(4, 4), sys::dram_config(8)};
  const auto run = [&](unsigned threads) {
    sim::SweepRunner pool(threads);
    return pool.map<sim::RunResult>(cfgs.size(), [&](std::size_t i) {
      return sim::run_workload(tr, cfgs[i]);
    });
  };
  const std::vector<sim::RunResult> serial = run(1);
  const std::vector<sim::RunResult> parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sim::diff_results(serial[i], parallel[i]), "") << i;
  }
}

TEST(SweepRunner, PropagatesExceptionsAndSurvivesThem) {
  sim::SweepRunner pool(4);
  EXPECT_THROW(pool.for_each(50,
                             [](std::size_t i) {
                               if (i == 13) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // The pool remains usable after a failed batch.
  const std::vector<int> out =
      pool.map<int>(10, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 45);
}

TEST(SweepRunner, SingleThreadedPoolSpawnsNoWorkers) {
  sim::SweepRunner pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.for_each(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

}  // namespace

// Tests for the multi-programmed runner: request routing between harts,
// conservation, and contention behaviour.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::sim {
namespace {

std::vector<trace::Trace> mix(std::initializer_list<const char*> names,
                              std::uint64_t ops) {
  std::vector<trace::Trace> v;
  for (const char* n : names) {
    v.push_back(trace::generate_trace(trace::spec2006_profile(n), ops));
  }
  return v;
}

TEST(MultiCore, SingleCoreMatchesSoloRunner) {
  const auto traces = mix({"milc"}, 2000);
  const RunResult solo = run_workload(traces[0], sys::fgnvm_config(4, 4));
  const MultiProgramResult shared =
      run_multiprogrammed(traces, sys::fgnvm_config(4, 4));
  ASSERT_EQ(shared.ipc.size(), 1u);
  EXPECT_DOUBLE_EQ(shared.ipc[0], solo.ipc);
  EXPECT_EQ(shared.cpu_cycles[0], solo.cpu_cycles);
}

TEST(MultiCore, AllCoresFinishAndAreSlower) {
  const auto traces = mix({"milc", "omnetpp", "soplex", "lbm"}, 1500);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  const MultiProgramResult shared = run_multiprogrammed(traces, cfg);
  ASSERT_EQ(shared.ipc.size(), 4u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const RunResult solo = run_workload(traces[i], cfg);
    EXPECT_GT(shared.ipc[i], 0.0) << traces[i].name;
    // Contention can only hurt (tiny tolerance for scheduling noise).
    EXPECT_LE(shared.ipc[i], solo.ipc * 1.02) << traces[i].name;
  }
}

TEST(MultiCore, WeightedSpeedupBounds) {
  const auto traces = mix({"milc", "sphinx3"}, 1500);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  std::vector<double> alone;
  for (const auto& tr : traces) alone.push_back(run_workload(tr, cfg).ipc);
  const MultiProgramResult shared = run_multiprogrammed(traces, cfg);
  const double ws = shared.weighted_speedup(alone);
  EXPECT_GT(ws, 0.5);
  EXPECT_LE(ws, 2.05);  // cannot exceed the core count
}

TEST(MultiCore, WeightedSpeedupValidatesArity) {
  const auto traces = mix({"milc"}, 500);
  const MultiProgramResult r =
      run_multiprogrammed(traces, sys::fgnvm_config(4, 4));
  EXPECT_THROW(r.weighted_speedup({1.0, 2.0}), std::invalid_argument);
}

TEST(MultiCore, RejectsEmptyMix) {
  EXPECT_THROW(run_multiprogrammed(std::vector<trace::Trace>{},
                                   sys::fgnvm_config(4, 4)),
               std::invalid_argument);
  EXPECT_THROW(run_multiprogrammed(std::vector<trace::RecordSource*>{},
                                   sys::fgnvm_config(4, 4)),
               std::invalid_argument);
}

// Both full-system entries share one loop, so a run that overruns its
// cycle budget names the run and its config in either loop mode.
TEST(MultiCore, OverrunErrorsNameTheRun) {
  const auto traces = mix({"milc", "mcf"}, 500);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  const auto message = [](const auto& run) {
    try {
      run();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const LoopMode mode : {LoopMode::kEventSkip, LoopMode::kCycleAccurate}) {
    const std::string solo = message(
        [&] { run_workload(traces[0], cfg, {}, /*max_mem_cycles=*/50, mode); });
    EXPECT_NE(solo.find("exceeded max_mem_cycles"), std::string::npos) << solo;
    EXPECT_NE(solo.find(traces[0].name), std::string::npos) << solo;
    EXPECT_NE(solo.find(cfg.name), std::string::npos) << solo;
    const std::string shared = message([&] {
      run_multiprogrammed(traces, cfg, {}, /*max_mem_cycles=*/50, mode);
    });
    EXPECT_NE(shared.find("exceeded max_mem_cycles"), std::string::npos)
        << shared;
    EXPECT_NE(shared.find("2 cores"), std::string::npos) << shared;
    EXPECT_NE(shared.find(cfg.name), std::string::npos) << shared;
  }
}

TEST(MultiCore, FgnvmRetainsMoreThroughputThanBaseline) {
  const auto traces = mix({"mcf", "lbm", "milc", "omnetpp"}, 1500);
  const MultiProgramResult base =
      run_multiprogrammed(traces, sys::baseline_config());
  const MultiProgramResult fg =
      run_multiprogrammed(traces, sys::fgnvm_config(4, 4));
  // Under 4-way sharing the subdivided design must finish the mix sooner.
  EXPECT_LT(fg.mem_cycles, base.mem_cycles);
}

}  // namespace
}  // namespace fgnvm::sim

// Tests for the indexed wake calendar (DESIGN.md §16): unit behaviour of
// the lazy-invalidation heap, a randomized model-based fuzz (wakes never
// overshoot, min_due is exact), and the differential matrix
// pinning the calendar-scheduled multiprogrammed loop bit-identical to the
// cycle-accurate reference, with and without an observer attached.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "sim/wake_calendar.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::sim {
namespace {

TEST(WakeCalendar, CollectsExactlyTheDueCores) {
  WakeCalendar cal;
  cal.reset(8);
  cal.schedule(0, 5);
  cal.schedule(1, 3);
  cal.schedule(2, 9);
  EXPECT_EQ(cal.min_due(), 3u);
  std::vector<std::uint32_t> out;
  cal.collect_due(5, out);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(cal.armed(0));
  EXPECT_FALSE(cal.armed(1));
  EXPECT_TRUE(cal.armed(2));
  EXPECT_EQ(cal.min_due(), 9u);
}

TEST(WakeCalendar, CancelDisarmsLazily) {
  WakeCalendar cal;
  cal.reset(4);
  cal.schedule(0, 10);
  cal.schedule(1, 20);
  cal.cancel(0);
  EXPECT_FALSE(cal.armed(0));
  EXPECT_EQ(cal.min_due(), 20u);  // stale cycle-10 entry dropped
  std::vector<std::uint32_t> out;
  cal.collect_due(20, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(WakeCalendar, RescheduleEarlierWinsImmediately) {
  WakeCalendar cal;
  cal.reset(2);
  cal.schedule(0, 100);
  cal.schedule(0, 40);  // completion pulled the wake earlier
  EXPECT_EQ(cal.min_due(), 40u);
  std::vector<std::uint32_t> out;
  cal.collect_due(40, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out.clear();
  // The stale cycle-100 entry must not resurrect the core.
  cal.collect_due(100, out);
  EXPECT_TRUE(out.empty());
}

TEST(WakeCalendar, FarWakeIsCollectedAtItsOwnCycle) {
  WakeCalendar cal;
  cal.reset(3);
  cal.schedule(0, 10'000);
  cal.schedule(1, 50);
  EXPECT_EQ(cal.min_due(), 50u);
  std::vector<std::uint32_t> out;
  cal.collect_due(50, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(cal.min_due(), 10'000u);
  out.clear();
  cal.collect_due(9'999, out);  // one cycle early: nothing is due
  EXPECT_TRUE(out.empty());
  cal.collect_due(10'000, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
}

TEST(WakeCalendar, CancelledFarEntryStaysDead) {
  WakeCalendar cal;
  cal.reset(2);
  cal.schedule(0, 20'000);
  cal.cancel(0);
  EXPECT_EQ(cal.min_due(), kNeverCycle);
  std::vector<std::uint32_t> out;
  cal.collect_due(20'000, out);
  EXPECT_TRUE(out.empty());
}

TEST(WakeCalendar, WakesAcrossCycle4096StayDistinct) {
  WakeCalendar cal;
  cal.reset(4);
  cal.schedule(0, 4093);
  cal.schedule(1, 4099);  // on the far side of cycle 4096
  cal.schedule(2, 4090 + 4000);
  EXPECT_EQ(cal.min_due(), 4093u);
  std::vector<std::uint32_t> out;
  cal.collect_due(4093, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(cal.min_due(), 4099u);
  out.clear();
  cal.collect_due(4099, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(cal.min_due(), 4090u + 4000u);
}

TEST(WakeCalendar, ResetReusesCapacityCleanly) {
  WakeCalendar cal;
  cal.reset(16);
  for (std::uint32_t i = 0; i < 16; ++i) cal.schedule(i, 7 + i);
  cal.reset(4);  // old entries must not leak through
  EXPECT_EQ(cal.min_due(), kNeverCycle);
  cal.schedule(3, 105);
  EXPECT_EQ(cal.min_due(), 105u);
  std::vector<std::uint32_t> out;
  cal.collect_due(105, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3}));
}

// Model-based fuzz: random schedules, cancels (completion deliveries), and
// earlier re-schedules (completion-reorder pulls) against a naive per-core
// due map. At every collection the calendar's min_due must equal the
// model's minimum, and collect_due must return exactly the model's due set
// — wakes never overshoot (no armed core is skipped past) and never
// resurrect. At 1024 cores a collection reaches few of the cores, so the
// stale entries of cancels and pulls pile up into a deeper heap than at 64.
TEST(WakeCalendar, RandomizedModelFuzz) {
  for (const std::uint32_t cores : {64u, 1024u}) {
    SCOPED_TRACE(std::to_string(cores) + " cores");
    std::mt19937 rng(12345);
    WakeCalendar cal;
    std::vector<Cycle> model(cores, kNeverCycle);
    cal.reset(cores);
    Cycle base = 0;
    for (int round = 0; round < 20'000; ++round) {
      const int action = static_cast<int>(rng() % 100);
      const std::uint32_t core = rng() % cores;
      if (action < 55) {
        // Schedule: near wakes dominate, with occasional far wakes.
        const Cycle due =
            base + (rng() % 10 == 0 ? 4096 + rng() % 100'000 : rng() % 4000);
        cal.schedule(core, due);
        model[core] = due;
      } else if (action < 70) {
        cal.cancel(core);  // completion woke it early
        model[core] = kNeverCycle;
      } else if (action < 80 && model[core] != kNeverCycle &&
                 model[core] > base) {
        // Completion-reorder pull: re-arm strictly earlier than before.
        const Cycle due = base + rng() % (model[core] - base);
        cal.schedule(core, due);
        model[core] = due;
      } else {
        // Collect a small batch at or just past the earliest wake.
        const Cycle model_min = *std::min_element(model.begin(), model.end());
        ASSERT_EQ(cal.min_due(), model_min) << "round " << round;
        if (model_min == kNeverCycle) continue;
        const Cycle t = model_min + rng() % 16;
        base = model_min;
        std::vector<std::uint32_t> got;
        cal.collect_due(t, got);
        std::vector<std::uint32_t> want;
        for (std::uint32_t i = 0; i < cores; ++i) {
          if (model[i] <= t) {
            want.push_back(i);
            model[i] = kNeverCycle;
          }
        }
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, want) << "round " << round;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential suite: calendar vs cycle-accurate.

std::vector<trace::Trace> mixed_traces(std::size_t cores, std::uint64_t ops,
                                       double mpki = 0.0) {
  static const char* kNames[] = {"mcf",    "lbm",        "milc",   "omnetpp",
                                 "soplex", "libquantum", "bwaves", "sphinx3"};
  std::vector<trace::Trace> v;
  for (std::size_t i = 0; i < cores; ++i) {
    trace::WorkloadProfile p = trace::spec2006_profile(kNames[i % 8]);
    if (mpki > 0.0) {
      // Low-intensity tenant variant for the very large core counts: keeps
      // the run off the saturation wall so it finishes quickly.
      p.mpki = mpki;
      p.seed += i;
    }
    v.push_back(trace::generate_trace(p, ops));
  }
  return v;
}

template <typename Config>
MultiProgramResult run_mp(const std::vector<trace::Trace>& traces,
                          const Config& cfg, LoopMode mode) {
  return run_multiprogrammed(traces, cfg, {}, 500'000'000, mode);
}

/// Runs the mix under the calendar and the cycle-accurate loop and expects
/// identical stats and, when an observer is attached, an identical epoch
/// time-series. Returns the cycle-accurate result.
template <typename Config>
MultiProgramResult expect_identical(const std::vector<trace::Trace>& traces,
                                    const Config& cfg,
                                    const std::string& label) {
  const MultiProgramResult cal = run_mp(traces, cfg, LoopMode::kEventSkip);
  MultiProgramResult eager = run_mp(traces, cfg, LoopMode::kCycleAccurate);
  EXPECT_EQ(diff_results(cal, eager), "") << label << ": calendar vs eager";
  EXPECT_EQ(cal.obs == nullptr, eager.obs == nullptr) << label;
  if (cal.obs != nullptr && eager.obs != nullptr) {
    EXPECT_TRUE(cal.obs->series() == eager.obs->series())
        << label << "\ncalendar:\n"
        << cal.obs->series().to_csv() << "eager:\n"
        << eager.obs->series().to_csv();
  }
  return eager;
}

TEST(WakeCalendarDifferential, FgnvmMatrix) {
  for (const std::size_t cores : {1u, 4u, 64u}) {
    const auto traces = mixed_traces(cores, cores > 8 ? 120 : 400);
    expect_identical(traces, sys::fgnvm_config(4, 4),
                     "fgnvm x " + std::to_string(cores));
  }
}

TEST(WakeCalendarDifferential, DramMatrix) {
  for (const std::size_t cores : {1u, 4u, 64u}) {
    const auto traces = mixed_traces(cores, cores > 8 ? 120 : 400);
    expect_identical(traces, sys::dram_config(),
                     "dram x " + std::to_string(cores));
  }
}

TEST(WakeCalendarDifferential, HybridMatrix) {
  for (const std::size_t cores : {1u, 4u, 64u}) {
    const auto traces = mixed_traces(cores, cores > 8 ? 120 : 400);
    expect_identical(traces, sys::hybrid_config(4, 4),
                     "hybrid x " + std::to_string(cores));
  }
}

// Four channels keep aggregate demand below the service rate (the same
// operating point as the perf_smoke many-core scenario) so the many-core
// runs take seconds instead of grinding through a fully saturated memory.
sys::SystemConfig four_channel_config() {
  sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  cfg.geometry.channels = 4;
  cfg.geometry.validate();
  return cfg;
}

std::vector<trace::Trace> low_intensity(std::size_t cores) {
  return mixed_traces(cores, 48, /*mpki=*/25.6 / static_cast<double>(cores));
}

// 256 cores are checked against the cycle-accurate reference; 1024 cores
// run skip-only (ManyCoreSkipSmoke), because the reference there would
// dominate suite wall time without adding coverage beyond this comparison.
TEST(WakeCalendarDifferential, ManyCoreSkipIdentity) {
  expect_identical(low_intensity(256), four_channel_config(),
                   "fgnvm ch4 x 256");
}

TEST(WakeCalendarDifferential, ManyCoreSkipSmoke) {
  const MultiProgramResult smoke =
      run_mp(low_intensity(1024), four_channel_config(), LoopMode::kEventSkip);
  ASSERT_EQ(smoke.ipc.size(), 1024u);
  for (std::size_t i = 0; i < smoke.ipc.size(); ++i) {
    EXPECT_GT(smoke.ipc[i], 0.0) << "tenant " << i;
  }
}

// With an observer attached the loop wakes every unfinished core each
// iteration and never skips past an epoch sample, so the time series must
// match the cycle-accurate run sample for sample.
TEST(WakeCalendarDifferential, ObserverModeMatchesCycleAccurate) {
  const obs::ObsConfig obs{.enabled = true, .epoch = 256};
  const auto traces = mixed_traces(4, 400);
  sys::SystemConfig fgnvm = sys::fgnvm_config(4, 4);
  fgnvm.obs = obs;
  const MultiProgramResult f = expect_identical(traces, fgnvm, "fgnvm 4x4");
  ASSERT_NE(f.obs, nullptr);
  EXPECT_GT(f.obs->series().samples().size(), 8u);
  sys::HybridSystemConfig hybrid = sys::hybrid_config(4, 4);
  hybrid.nvm.obs = obs;
  const MultiProgramResult h = expect_identical(traces, hybrid, "hybrid 4x4");
  ASSERT_NE(h.obs, nullptr);
  EXPECT_GT(h.obs->series().samples().size(), 8u);
}

// Slowdowns against each tenant's alone IPC feed max slowdown, harmonic
// speedup and fairness consistently, and every helper rejects an alone
// vector whose arity differs from the core count.
TEST(WakeCalendarDifferential, FairnessHelpersAreConsistent) {
  const auto traces = mixed_traces(4, 400);
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  std::vector<double> alone;
  for (const auto& tr : traces) alone.push_back(run_workload(tr, cfg).ipc);
  const MultiProgramResult r = run_multiprogrammed(traces, cfg);
  const std::vector<double> slow = r.slowdowns(alone);
  ASSERT_EQ(slow.size(), 4u);
  double max_slow = 0.0, sum_slow = 0.0;
  for (const double s : slow) {
    EXPECT_GE(s, 0.95);  // contention can only slow a tenant down
    max_slow = std::max(max_slow, s);
    sum_slow += s;
  }
  EXPECT_DOUBLE_EQ(r.max_slowdown(alone), max_slow);
  EXPECT_NEAR(r.harmonic_speedup(alone), 4.0 / sum_slow, 1e-12);
  const double fair = r.fairness(alone);
  EXPECT_GT(fair, 0.0);
  EXPECT_LE(fair, 1.0);
  EXPECT_THROW(r.slowdowns({1.0}), std::invalid_argument);
  EXPECT_THROW(r.fairness({1.0, 2.0, 3.0}), std::invalid_argument);
}

}  // namespace
}  // namespace fgnvm::sim

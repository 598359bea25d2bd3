// Randomized stress tests (deterministic seeds).
//
// 1. Bank-FSM fuzz: drive FgNvmBank with thousands of randomly chosen legal
//    commands and check the structural invariants the controller relies on
//    (earliest_* monotonicity, sensed-mask consistency, Section-4 mode
//    constraints).
// 2. System fuzz: random workloads x random configurations through the full
//    runner, checking conservation and termination.
// 3. Chain-boundary fuzz: the controller's event-chain walks (advance_to,
//    advance_until_accept) driven through randomized windows against an
//    eager-ticking twin — every stat must agree at every window boundary,
//    wherever it falls.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "mem/geometry.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "sched/controller.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"

namespace fgnvm {
namespace {

mem::MemGeometry fuzz_geometry(std::uint64_t sags, std::uint64_t cds) {
  mem::MemGeometry g;
  g.banks_per_rank = 1;
  g.rows_per_bank = 4096;
  g.row_bytes = 1024;
  g.line_bytes = 64;
  g.num_sags = sags;
  g.num_cds = cds;
  return g;
}

struct BankFuzzCase {
  std::uint64_t sags;
  std::uint64_t cds;
  nvm::AccessModes modes;
  std::uint64_t seed;
  std::string label;
};

class BankFuzz : public ::testing::TestWithParam<BankFuzzCase> {};

TEST_P(BankFuzz, InvariantsHoldUnderRandomLegalCommands) {
  const BankFuzzCase& c = GetParam();
  const mem::MemGeometry geo = fuzz_geometry(c.sags, c.cds);
  const mem::TimingParams timing;
  const mem::AddressDecoder dec(geo);
  nvm::FgNvmBank bank(geo, timing, c.modes);
  Rng rng(c.seed);

  Cycle now = 0;
  std::uint64_t issued = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t row = rng.next_below(geo.rows_per_bank);
    const std::uint64_t col = rng.next_below(geo.lines_per_row());
    const auto addr = dec.decode(dec.encode(0, 0, 0, row, col));
    const bool is_write = rng.next_bool(0.3);

    // Advance time randomly (including zero) to interleave operations.
    now += rng.next_below(30);

    if (is_write) {
      if (!bank.row_open(addr)) {
        const Cycle at =
            bank.earliest_activate(addr, nvm::ActPurpose::kWrite, now);
        ASSERT_GE(at, now);
        // Monotonicity: asking later returns exactly max(later, same locks).
        ASSERT_EQ(bank.earliest_activate(addr, nvm::ActPurpose::kWrite,
                                         now + 5),
                  std::max(at, now + 5));
        bank.issue_activate(addr, nvm::ActPurpose::kWrite, at);
        ASSERT_TRUE(bank.row_open(addr));
        now = at;
      }
      const Cycle at = bank.earliest_column(addr, OpType::kWrite, now);
      ASSERT_GE(at, now);
      const Cycle done = bank.issue_column(addr, OpType::kWrite, at);
      ASSERT_GT(done, at);
      // Writes invalidate their CD's sensed data.
      ASSERT_FALSE(bank.segments_sensed(addr));
      now = at;
    } else {
      if (!bank.segments_sensed(addr)) {
        const Cycle at =
            bank.earliest_activate(addr, nvm::ActPurpose::kRead, now);
        ASSERT_GE(at, now);
        bank.issue_activate(addr, nvm::ActPurpose::kRead, at);
        // Sensed-mask consistency: the request's segments are now marked.
        ASSERT_TRUE(bank.segments_sensed(addr));
        now = at;
      }
      const Cycle at = bank.earliest_column(addr, OpType::kRead, now);
      ASSERT_GE(at, now);
      const Cycle burst = bank.issue_column(addr, OpType::kRead, at);
      ASSERT_EQ(burst, at + timing.tCAS);
      now = at;
    }
    ++issued;

    // Global invariant: the sensed mask never contains CDs outside the
    // geometry.
    for (std::uint64_t s = 0; s < geo.num_sags; ++s) {
      const std::uint64_t mask = bank.sensed_mask(s);
      if (geo.num_cds < 64) {
        ASSERT_EQ(mask & ~((1ULL << geo.num_cds) - 1), 0u);
      }
    }
  }
  EXPECT_EQ(issued, 4000u);
  const nvm::BankStats& s = bank.stats();
  EXPECT_EQ(s.reads + s.writes, 4000u);
  // Sensing only happens in whole segments.
  EXPECT_EQ(s.bits_sensed % (geo.segment_bytes() * 8), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BankFuzz,
    ::testing::Values(
        BankFuzzCase{1, 1, nvm::AccessModes::all_off(), 11, "baseline"},
        BankFuzzCase{4, 4, nvm::AccessModes::all_on(), 22, "fg4x4"},
        BankFuzzCase{8, 2, nvm::AccessModes::all_on(), 33, "fg8x2"},
        BankFuzzCase{8, 32, nvm::AccessModes::all_on(), 44, "fg8x32subline"},
        BankFuzzCase{4, 4, nvm::AccessModes{true, false, true}, 55,
                     "nomulti"},
        BankFuzzCase{4, 4, nvm::AccessModes{false, true, false}, 66,
                     "nopartial_nobg"},
        BankFuzzCase{32, 32, nvm::AccessModes::all_on(), 77, "fg32x32"}),
    [](const ::testing::TestParamInfo<BankFuzzCase>& info) {
      return info.param.label;
    });

struct SystemFuzzCase {
  std::uint64_t seed;
  std::string label;
};

class SystemFuzz : public ::testing::TestWithParam<SystemFuzzCase> {};

TEST_P(SystemFuzz, RandomConfigAndWorkloadConserves) {
  Rng rng(GetParam().seed);

  trace::WorkloadProfile p;
  p.name = "fuzz";
  p.mpki = 5.0 + rng.next_double() * 40.0;
  p.write_fraction = rng.next_double() * 0.5;
  p.row_locality = rng.next_double();
  p.random_fraction = rng.next_double() * 0.5;
  p.burstiness = rng.next_double() * 0.9;
  p.num_streams = 1 + rng.next_below(16);
  p.footprint_bytes = (8ULL + rng.next_below(120)) << 20;
  p.seed = rng.next_u64();
  const trace::Trace tr = trace::generate_trace(p, 1500);

  const std::uint64_t sag_choices[] = {1, 2, 4, 8, 16};
  const std::uint64_t cd_choices[] = {1, 2, 4, 8, 16};
  sys::SystemConfig cfg = sys::fgnvm_config(sag_choices[rng.next_below(5)],
                                            cd_choices[rng.next_below(5)]);
  cfg.modes.partial_activation = rng.next_bool(0.8);
  cfg.modes.multi_activation = rng.next_bool(0.8);
  cfg.modes.background_writes = rng.next_bool(0.8);
  cfg.controller.issue_width = 1 + rng.next_below(2);
  cfg.controller.bus_lanes = cfg.controller.issue_width;
  cfg.controller.policy = rng.next_bool(0.5)
                              ? sched::SchedulerPolicy::kFrfcfs
                              : sched::SchedulerPolicy::kFrfcfsAugmented;
  cfg.mapping = rng.next_bool(0.5) ? mem::AddressMapping::kRowInterleaved
                                   : mem::AddressMapping::kPermuted;

  const sim::RunResult r = sim::run_workload(tr, cfg, {}, 50'000'000);
  EXPECT_EQ(r.reads + r.writes, 1500u);
  EXPECT_EQ(r.instructions, tr.total_instructions());
  EXPECT_GT(r.ipc, 0.0);
  EXPECT_LE(r.ipc, 4.0);
  EXPECT_EQ(r.controller.counter("reads.accepted"),
            r.controller.counter("cmd.read"));
  EXPECT_EQ(r.controller.counter("writes.accepted"),
            r.controller.counter("cmd.write"));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SystemFuzz,
    ::testing::Values(SystemFuzzCase{1001, "s1"}, SystemFuzzCase{1002, "s2"},
                      SystemFuzzCase{1003, "s3"}, SystemFuzzCase{1004, "s4"},
                      SystemFuzzCase{1005, "s5"}, SystemFuzzCase{1006, "s6"},
                      SystemFuzzCase{1007, "s7"}, SystemFuzzCase{1008, "s8"}),
    [](const ::testing::TestParamInfo<SystemFuzzCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// Chain-boundary fuzz. The chain twin in sched_index_test always hands the
// walks "natural" horizons (the next arrival); here every horizon is
// RANDOM, so chains are cut at arbitrary cycles — mid drain, mid burst, one
// cycle in — and a blocked driver's advance_until_accept may hit its limit
// before capacity frees. The contract is the same everywhere: a walk ticks
// exactly the chain cycles below the horizon and returns a due cycle that
// never overshoots the next actionable one, so a controller driven through
// random windows must match an eager twin that ticks every single cycle, on
// every stat, at every window boundary.

class ChainBoundaryFuzz : public ::testing::TestWithParam<SystemFuzzCase> {};

TEST_P(ChainBoundaryFuzz, RandomWindowsMatchEagerTwin) {
  Rng rng(GetParam().seed);

  mem::MemGeometry geo = fuzz_geometry(1ULL << rng.next_below(4),
                                       1ULL << rng.next_below(4));
  geo.banks_per_rank = 1ULL << rng.next_below(3);
  const mem::TimingParams timing;
  nvm::AccessModes modes;
  modes.partial_activation = rng.next_bool(0.8);
  modes.multi_activation = rng.next_bool(0.8);
  modes.background_writes = rng.next_bool(0.8);
  sched::ControllerConfig cfg;
  const sched::SchedulerPolicy policies[] = {
      sched::SchedulerPolicy::kFcfs, sched::SchedulerPolicy::kFrfcfs,
      sched::SchedulerPolicy::kFrfcfsAugmented};
  cfg.policy = policies[rng.next_below(3)];
  cfg.read_queue_cap = 8 + rng.next_below(16);
  cfg.write_queue_cap = 12 + rng.next_below(24);
  cfg.wq_high = cfg.write_queue_cap / 2;
  cfg.wq_low = 2;
  cfg.bg_write_min = 2;
  cfg.bg_write_inflight_max = 3;

  const mem::AddressDecoder dec(geo);
  const nvm::FgNvmBank bank(geo, timing, modes);
  sched::ControllerT<nvm::FgNvmBank> fast(geo, timing, cfg, bank);
  sched::ControllerT<nvm::FgNvmBank> eager(geo, timing, cfg, bank);

  struct Planned {
    Cycle at;
    Addr addr;
    OpType op;
  };
  const double wfrac = 0.2 + rng.next_double() * 0.6;
  std::vector<Planned> plan;
  Cycle at = 0;
  std::uint64_t hot_row = 0, hot_bank = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    at += rng.next_below(10);
    if (rng.next_bool(0.06)) {
      hot_row = rng.next_below(geo.rows_per_bank);
      hot_bank = rng.next_below(geo.banks_per_rank);
    }
    const bool hot = rng.next_bool(0.7);
    plan.push_back(
        {at,
         dec.encode(0, 0, hot ? hot_bank : rng.next_below(geo.banks_per_rank),
                    hot ? hot_row : rng.next_below(geo.rows_per_bank),
                    rng.next_below(geo.lines_per_row())),
         rng.next_bool(wfrac) ? OpType::kWrite : OpType::kRead});
  }

  std::size_t next = 0;
  Cycle now = 0;            // window boundary (fast twin's driver clock)
  Cycle due = kNeverCycle;  // fast twin's cached next_event
  Cycle ticked = 0;         // eager twin has ticked every cycle < ticked
  std::uint64_t id = 0;
  std::vector<mem::MemRequest> completed_fast, completed_eager;
  while (next < plan.size() || !fast.idle()) {
    ASSERT_LT(now, 10'000'000u);
    while (ticked < now) {
      eager.tick(ticked);
      ++ticked;
    }
    ASSERT_EQ(fast.stats().to_string(), eager.stats().to_string())
        << "window boundary at cycle " << now;
    fast.drain_completed(completed_fast);
    eager.drain_completed(completed_eager);
    ASSERT_EQ(completed_fast.size(), completed_eager.size())
        << "at cycle " << now;
    while (next < plan.size() && plan[next].at <= now) {
      ASSERT_EQ(fast.can_accept(plan[next].op),
                eager.can_accept(plan[next].op))
          << "at cycle " << now;
      if (!fast.can_accept(plan[next].op)) break;
      mem::MemRequest r;
      r.id = id++;
      r.op = plan[next].op;
      r.addr = dec.decode(plan[next].addr);
      fast.enqueue(r, now);
      eager.enqueue(r, now);
      due = std::min(due, now);
      ++next;
    }
    // Random window: sometimes a single cycle, sometimes spanning whole
    // drains and bursts.
    const Cycle limit = now + 1 + rng.next_below(200);
    if (next < plan.size() && plan[next].at <= now) {
      // Backpressured: the walk stops at the freeing tick + 1, or at the
      // first chain cycle >= limit; the driver resumes at the earlier of
      // that and the limit, as the windowed runner loop does.
      due = fast.advance_until_accept(due, plan[next].op, limit);
      ASSERT_NE(due, kNeverCycle) << "blocked channel went idle at " << now;
      now = std::min(due, limit);
      continue;
    }
    const Cycle horizon =
        next < plan.size() ? std::min(limit, std::max(plan[next].at, now + 1))
                           : limit;
    due = fast.advance_to(due, horizon);
    ASSERT_GE(due, horizon);
    now = horizon;
  }
  while (ticked < now) {
    eager.tick(ticked);
    ++ticked;
  }
  EXPECT_EQ(fast.stats().to_string(), eager.stats().to_string());
  fast.drain_completed(completed_fast);
  eager.drain_completed(completed_eager);
  EXPECT_EQ(completed_fast.size(), completed_eager.size());
  EXPECT_TRUE(eager.idle());
  EXPECT_EQ(next, plan.size());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChainBoundaryFuzz,
    ::testing::Values(SystemFuzzCase{2001, "p1"}, SystemFuzzCase{2002, "p2"},
                      SystemFuzzCase{2003, "p3"}, SystemFuzzCase{2004, "p4"},
                      SystemFuzzCase{2005, "p5"}, SystemFuzzCase{2006, "p6"},
                      SystemFuzzCase{2007, "p7"}, SystemFuzzCase{2008, "p8"}),
    [](const ::testing::TestParamInfo<SystemFuzzCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace fgnvm

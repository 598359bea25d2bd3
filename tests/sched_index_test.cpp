// Randomized differential tests of the indexed scheduler (tier 1).
//
// The controller's indexed issue selection and incremental next_event must
// be bit-identical to the pre-index full-queue scans, which are preserved as
// a reference oracle. With cross-checking enabled (set_cross_check), every
// issue decision, bus-flag transition, SAG/CD conflict test, closed-page
// row-occupancy test, and next_event value is recomputed both ways and the
// controller throws on the first divergence — so a randomized run that
// completes at all *is* the differential verdict. These tests drive random
// mixed read/write traces with row locality through every scheduling policy
// and several SAG x CD geometries, querying next_event each cycle, and
// additionally check that final stats are identical with the oracle on and
// off (the cross-check itself must not perturb the simulation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "cpu/rob_cpu.hpp"
#include "dram/dram_bank.hpp"
#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "sched/controller.hpp"
#include "sys/memory_system.hpp"
#include "sys/presets.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::sched {
namespace {

// The modes and the bank kind sit in the padding after the two one-byte
// enums, so the parameter stays 32 bytes and its printed form (part of each
// listed test name) is unchanged for the all-on FgNVM cases.
struct Scenario {
  SchedulerPolicy policy;
  PagePolicy page;
  nvm::AccessModes modes = nvm::AccessModes::all_on();
  bool dram = false;  // DramBank (modes unused; cds must be 1)
  std::uint64_t sags;
  std::uint64_t cds;
  std::uint64_t seed;
};
static_assert(sizeof(Scenario) == 32);

std::string scenario_name(const Scenario& s) {
  std::string name = std::string(s.dram ? "dram_" : "") +
                     to_string(s.policy) + "_" +
                     to_string(s.page) + "_" + std::to_string(s.sags) + "x" +
                     std::to_string(s.cds);
  if (!s.modes.multi_activation) name += "_no_multi_activation";
  if (!s.modes.background_writes) name += "_no_background_writes";
  if (!s.modes.partial_activation) name += "_no_partial_activation";
  return name;
}

class IndexedScheduler {
 public:
  IndexedScheduler(const Scenario& s, bool cross_check) {
    geo_.banks_per_rank = 4;
    geo_.rows_per_bank = 1024;
    geo_.row_bytes = 1024;
    geo_.line_bytes = 64;
    geo_.num_sags = s.sags;
    geo_.num_cds = s.cds;
    ControllerConfig cfg;
    cfg.policy = s.policy;
    cfg.page_policy = s.page;
    cfg.read_queue_cap = 24;
    cfg.write_queue_cap = 32;
    cfg.wq_high = 16;
    cfg.wq_low = 4;
    // Small thresholds so backgrounded writes and drains actually engage
    // within a short random run.
    cfg.bg_write_min = 2;
    cfg.bg_write_inflight_max = 3;
    decoder_ = std::make_unique<mem::AddressDecoder>(geo_);
    if (s.dram) {
      // A refresh interval short enough that refresh windows land inside
      // every random run, so the selectors' refresh gate and next_event's
      // refresh term are cross-checked too.
      timing_ = dram::ddr3_timing();
      timing_.tREFI = 200;
      timing_.tRFC = 30;
    }
    ctrl_ = sys::make_channel_controller(
        s.dram ? sys::BankKind::kDram : sys::BankKind::kFgNvm, geo_, timing_,
        cfg, s.modes);
    ctrl_->set_cross_check(cross_check);
  }

  /// Runs `ops` random requests to completion, querying next_event every
  /// cycle so the incremental candidate cache is exercised against the
  /// oracle at every step, and returns the final stats rendering.
  std::string run(std::uint64_t ops, std::uint64_t seed) {
    Rng rng(seed);
    Cycle now = 0;
    std::uint64_t submitted = 0;
    std::uint64_t hot_row = 0, hot_bank = 0;
    while (submitted < ops || !ctrl_->idle()) {
      // Bursty arrivals with strong row locality: ~70% land on the current
      // hot (bank, row), the rest scatter — this populates deep per-group
      // and per-row lists and triggers demand aggregation.
      while (submitted < ops && rng.next_bool(0.6)) {
        if (rng.next_bool(0.05)) {
          hot_row = rng.next_below(geo_.rows_per_bank);
          hot_bank = rng.next_below(geo_.banks_per_rank);
        }
        const bool hot = rng.next_bool(0.7);
        const std::uint64_t bank =
            hot ? hot_bank : rng.next_below(geo_.banks_per_rank);
        const std::uint64_t row =
            hot ? hot_row : rng.next_below(geo_.rows_per_bank);
        const std::uint64_t col = rng.next_below(geo_.lines_per_row());
        const OpType op = rng.next_bool(0.35) ? OpType::kWrite : OpType::kRead;
        if (!ctrl_->can_accept(op)) break;
        mem::MemRequest r;
        r.id = submitted;
        r.op = op;
        r.addr = decoder_->decode(decoder_->encode(0, 0, bank, row, col));
        ctrl_->enqueue(r, now);
        ++submitted;
      }
      ctrl_->tick(now);
      ctrl_->drain_completed(completed_);
      completed_.clear();
      // Exercise the cached next_event (and its oracle comparison) every
      // cycle; occasionally skip ahead to it like the event-driven loop.
      const Cycle nxt = ctrl_->next_event(now);
      if (ctrl_->idle() && submitted < ops && nxt == kNeverCycle) {
        ++now;  // idle gap between bursts
      } else if (rng.next_bool(0.3) && nxt != kNeverCycle) {
        now = nxt;
      } else {
        ++now;
      }
      if (now >= 10'000'000u) {
        ADD_FAILURE() << "run did not converge";
        break;
      }
    }
    return ctrl_->stats().to_string();
  }

 private:
  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  std::unique_ptr<mem::AddressDecoder> decoder_;
  std::unique_ptr<ControllerBase> ctrl_;
  std::vector<mem::MemRequest> completed_;
};

class SchedIndexTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SchedIndexTest, IndexedMatchesReferenceOracle) {
  // The controller throws std::runtime_error on the first divergence
  // between the indexed and reference implementations.
  IndexedScheduler checked(GetParam(), /*cross_check=*/true);
  const std::string with_oracle = checked.run(600, GetParam().seed);

  // The oracle must be purely passive: the same trace without it yields
  // bit-identical stats (exact string equality, shape included).
  IndexedScheduler plain(GetParam(), /*cross_check=*/false);
  const std::string without_oracle = plain.run(600, GetParam().seed);
  EXPECT_EQ(with_oracle, without_oracle);
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  std::uint64_t seed = 1;
  for (const SchedulerPolicy pol :
       {SchedulerPolicy::kFcfs, SchedulerPolicy::kFrfcfs,
        SchedulerPolicy::kFrfcfsAugmented}) {
    for (const PagePolicy page : {PagePolicy::kOpen, PagePolicy::kClosed}) {
      for (const std::uint64_t dim : {2ull, 4ull, 8ull}) {
        out.push_back(
            {.policy = pol, .page = page, .sags = dim, .cds = dim,
             .seed = seed++});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Differential, SchedIndexTest,
                         ::testing::ValuesIn(scenarios()),
                         [](const auto& info) {
                           return scenario_name(info.param);
                         });

// Each access mode turned off moves a different term of the bank probes:
// without Multi-Activation the bank-wide sensing lock joins the ACT floor,
// without Backgrounded Writes the write lock is a bank floor instead of SAG
// and CD locks, and without Partial-Activation every ACT senses (and
// sense-locks) all CDs. The augmented policy exercises demand aggregation
// and backgrounded-write scheduling on top; the cross-check audits every
// cached candidate entry against a from-scratch recompute.
std::vector<Scenario> access_mode_scenarios() {
  const nvm::AccessModes on = nvm::AccessModes::all_on();
  nvm::AccessModes no_multi = on, no_bg = on, no_partial = on;
  no_multi.multi_activation = false;
  no_bg.background_writes = false;
  no_partial.partial_activation = false;
  std::vector<Scenario> out;
  std::uint64_t seed = 101;
  for (const nvm::AccessModes& m : {no_multi, no_bg, no_partial}) {
    out.push_back({.policy = SchedulerPolicy::kFrfcfsAugmented,
                   .page = PagePolicy::kOpen,
                   .modes = m,
                   .sags = 4,
                   .cds = 4,
                   .seed = seed++});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AccessModes, SchedIndexTest,
                         ::testing::ValuesIn(access_mode_scenarios()),
                         [](const auto& info) {
                           return scenario_name(info.param);
                         });

// DRAM takes the same cached scheduler path, with refresh as a channel-wide
// query-time term: conventional (one subarray) and SALP banks under every
// policy and page mode.
std::vector<Scenario> dram_scenarios() {
  std::vector<Scenario> out;
  std::uint64_t seed = 201;
  for (const SchedulerPolicy pol :
       {SchedulerPolicy::kFcfs, SchedulerPolicy::kFrfcfs,
        SchedulerPolicy::kFrfcfsAugmented}) {
    for (const PagePolicy page : {PagePolicy::kOpen, PagePolicy::kClosed}) {
      for (const std::uint64_t subarrays : {1ull, 8ull}) {
        out.push_back({.policy = pol,
                       .page = page,
                       .dram = true,
                       .sags = subarrays,
                       .cds = 1,
                       .seed = seed++});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Dram, SchedIndexTest,
                         ::testing::ValuesIn(dram_scenarios()),
                         [](const auto& info) {
                           return scenario_name(info.param);
                         });

// ---------------------------------------------------------------------------
// MemorySystem-level differential: the lazy per-channel due caches (and the
// windows on top of them: advance_until_accept while the head arrival is
// blocked, overlapped on helper threads once a walk outlasts the gate, and
// advance_channels_to after the last arrival) must yield the same
// simulation as eager all-channel ticking over a random multi-channel
// stream. Arrivals are pre-scheduled so every mode is offered the identical
// stream no matter how it advances time; a request is then submitted at
// the first visited cycle at/after its arrival where the channel accepts —
// which is the same cycle in every mode, because acceptance only changes at
// actionable cycles and next_event never overshoots one.

struct Arrival {
  Cycle at;
  Addr addr;
  OpType op;
};

std::vector<Arrival> plan_arrivals(const sys::MemorySystem& mem,
                                   std::uint64_t ops, std::uint64_t seed,
                                   double write_fraction = 0.35,
                                   std::uint64_t max_gap = 6) {
  const mem::MemGeometry& geo = mem.config().geometry;
  Rng rng(seed);
  std::vector<Arrival> plan;
  plan.reserve(ops);
  Cycle at = 0;
  std::uint64_t hot_row = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    at += rng.next_below(max_gap);  // bursty: zero gaps allowed
    if (rng.next_bool(0.05)) hot_row = rng.next_below(geo.rows_per_bank);
    const std::uint64_t row =
        rng.next_bool(0.7) ? hot_row : rng.next_below(geo.rows_per_bank);
    const Addr addr = mem.decoder().encode(
        rng.next_below(geo.channels), 0, rng.next_below(geo.banks_per_rank),
        row, rng.next_below(geo.lines_per_row()));
    const OpType op =
        rng.next_bool(write_fraction) ? OpType::kWrite : OpType::kRead;
    plan.push_back({at, addr, op});
  }
  return plan;
}

/// Drives `plan` to completion and renders the final merged stats plus the
/// completed-read count. `windowed` (only meaningful under lazy scheduling)
/// walks to the resume cycle with advance_until_accept while the head
/// arrival is blocked, and adds advance_channels_to windows bounded by
/// completion_bound once arrivals are exhausted, so no drain is skipped.
std::string run_system(const sys::SystemConfig& cfg, bool eager, bool windowed,
                       const std::vector<Arrival>& plan) {
  sys::MemorySystem mem(cfg);
  if (eager) mem.set_eager_ticking(true);
  std::size_t next = 0;
  Cycle now = 0;
  std::uint64_t completed = 0;
  std::vector<mem::MemRequest> done;
  while (next < plan.size() || !mem.idle()) {
    while (next < plan.size() && plan[next].at <= now &&
           mem.can_accept(plan[next].addr, plan[next].op)) {
      mem.submit(plan[next].addr, plan[next].op, now);
      ++next;
    }
    mem.tick(now);
    mem.drain_completed(done);
    completed += done.size();
    const Cycle nxt = mem.next_event(now);
    const bool backpressured = next < plan.size() && plan[next].at <= now;
    Cycle step = nxt;
    if (next < plan.size() && !backpressured) {
      step = std::min(nxt, std::max<Cycle>(plan[next].at, now + 1));
    }
    if (step == kNeverCycle) {
      if (next >= plan.size()) break;  // drained and no arrivals left
      now = std::max(plan[next].at, now + 1);  // idle gap to the next burst
    } else if (windowed && mem.lazy_scheduling() && backpressured) {
      // Completions buffer until the resume cycle: only the count is
      // checked, and it is drained in channel order there as in every mode.
      now = std::max(mem.advance_until_accept(plan[next].addr,
                                              plan[next].op, kNeverCycle),
                     now + 1);
    } else if (windowed && mem.lazy_scheduling() && next >= plan.size()) {
      const Cycle bound = mem.completion_bound(now);
      if (bound != kNeverCycle && bound > step) {
        mem.advance_channels_to(bound);
        now = bound;
      } else {
        now = step;
      }
    } else {
      now = step;
    }
    if (now >= 50'000'000u) {
      ADD_FAILURE() << "run did not converge";
      break;
    }
  }
  return mem.controller_stats().to_string() + "\ncompleted_reads=" +
         std::to_string(completed) + "\nsubmitted=" +
         std::to_string(mem.submitted_reads() + mem.submitted_writes());
}

/// One input of the differential: a system and the shape of its stream.
struct DifferentialCase {
  sys::SystemConfig cfg;
  std::uint64_t ops;
  double write_fraction;
  std::uint64_t max_gap;
};

/// FgNVM 8x8 with deep queues (64 reads, 128 writes, drain 64/16) under a
/// write-heavy stream that arrives faster than it drains: the windowed run
/// takes long walks to the freeing tick.
DifferentialCase deep_write_heavy_case() {
  sys::SystemConfig cfg = sys::fgnvm_config(8, 8);
  cfg.controller.read_queue_cap = 64;
  cfg.controller.write_queue_cap = 128;
  cfg.controller.wq_high = 64;
  cfg.controller.wq_low = 16;
  return {cfg, 4000, 0.8, 2};
}

TEST(MemorySystemDifferential, LazyAndWindowedMatchEagerAcrossChannels) {
  for (DifferentialCase c :
       {DifferentialCase{sys::fgnvm_config(4, 4), 500, 0.35, 6},
        DifferentialCase{sys::dram_config(4), 500, 0.35, 6},
        deep_write_heavy_case()}) {
    sys::SystemConfig& cfg = c.cfg;
    cfg.geometry.channels = 4;
    cfg.geometry.validate();
    for (const std::uint64_t seed : {11ull, 12ull}) {
      const sys::MemorySystem probe(cfg);
      const std::vector<Arrival> plan =
          plan_arrivals(probe, c.ops, seed, c.write_fraction, c.max_gap);
      const std::string eager = run_system(cfg, true, false, plan);
      EXPECT_NE(eager.find("completed_reads="), std::string::npos);
      EXPECT_EQ(eager, run_system(cfg, false, false, plan))
          << cfg.name << " lazy seed " << seed;
      EXPECT_EQ(eager, run_system(cfg, false, true, plan))
          << cfg.name << " windowed seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Event-chain differential twin: a controller driven only through the
// production chain walks — advance_to up to the next arrival, and
// advance_until_accept while backpressured, exactly as sys::MemorySystem
// and tile::Shard drive it — is compared against an eager twin that ticks
// every single cycle. The twins receive the identical arrival stream, and
// the full stats rendering plus the completed-read ids are compared at
// EVERY window boundary, so a chain walk that skips an actionable cycle
// (or resumes a blocked driver at the wrong cycle) diverges at the very
// next boundary. Three policies x two bank technologies (DRAM adds the
// refresh windows).

struct ChainTwinCase {
  SchedulerPolicy policy;
  bool dram;
  std::uint64_t seed;
};

std::string chain_twin_name(const ChainTwinCase& c) {
  return std::string(to_string(c.policy)) + (c.dram ? "_dram" : "_fgnvm");
}

// Prints the case by name: gtest's default raw byte dump would include the
// struct's uninitialized padding, so test names would vary between builds.
void PrintTo(const ChainTwinCase& c, std::ostream* os) {
  *os << chain_twin_name(c);
}

class ChainTwinTest : public ::testing::TestWithParam<ChainTwinCase> {};

TEST_P(ChainTwinTest, ChainWalkMatchesEagerAtEveryBoundary) {
  const ChainTwinCase& c = GetParam();
  mem::MemGeometry geo;
  geo.banks_per_rank = 4;
  geo.rows_per_bank = 1024;
  geo.row_bytes = 1024;
  geo.line_bytes = 64;
  geo.num_sags = 4;
  geo.num_cds = c.dram ? 1 : 4;  // DRAM has no CD dimension
  const mem::TimingParams timing =
      c.dram ? dram::ddr3_timing() : mem::TimingParams{};
  ControllerConfig cfg;
  cfg.policy = c.policy;
  cfg.read_queue_cap = 16;
  cfg.write_queue_cap = 24;
  cfg.wq_high = 12;
  cfg.wq_low = 3;
  cfg.bg_write_min = 2;
  cfg.bg_write_inflight_max = 3;
  const mem::AddressDecoder dec(geo);
  // The shipped instantiations, built and driven through the type-erased
  // facade exactly as sys::MemorySystem does.
  const sys::BankKind kind =
      c.dram ? sys::BankKind::kDram : sys::BankKind::kFgNvm;
  const std::unique_ptr<ControllerBase> fast = sys::make_channel_controller(
      kind, geo, timing, cfg, nvm::AccessModes::all_on());
  const std::unique_ptr<ControllerBase> eager = sys::make_channel_controller(
      kind, geo, timing, cfg, nvm::AccessModes::all_on());

  // Write-heavy, row-local bursty plan so drains, row-hit bursts and
  // idle-retire tails all occur. Arrivals are pre-scheduled so both twins
  // are offered the identical stream.
  struct Planned {
    Cycle at;
    Addr addr;
    OpType op;
  };
  Rng rng(c.seed);
  std::vector<Planned> plan;
  Cycle at = 0;
  std::uint64_t hot_row = 0, hot_bank = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    at += rng.next_below(8);
    if (rng.next_bool(0.05)) {
      hot_row = rng.next_below(geo.rows_per_bank);
      hot_bank = rng.next_below(geo.banks_per_rank);
    }
    const bool hot = rng.next_bool(0.7);
    plan.push_back(
        {at,
         dec.encode(0, 0, hot ? hot_bank : rng.next_below(geo.banks_per_rank),
                    hot ? hot_row : rng.next_below(geo.rows_per_bank),
                    rng.next_below(geo.lines_per_row())),
         rng.next_bool(0.5) ? OpType::kWrite : OpType::kRead});
  }
  // Quiet read-only tail: long gaps let the idle drain empty the write
  // queue and the chain die between arrivals, so the walks also restart
  // from an idle channel (due re-armed by enqueue alone).
  for (int i = 0; i < 5; ++i) {
    at += 5000;
    plan.push_back({at,
                    dec.encode(0, 0, rng.next_below(geo.banks_per_rank),
                               rng.next_below(geo.rows_per_bank),
                               rng.next_below(geo.lines_per_row())),
                    OpType::kRead});
  }

  const auto drain_ids = [](ControllerBase& ctrl) {
    std::vector<mem::MemRequest> v;
    ctrl.drain_completed(v);
    std::string s;
    for (const mem::MemRequest& r : v) s += std::to_string(r.id) + ",";
    return s;
  };

  constexpr Cycle kGuard = 10'000'000;
  std::size_t next = 0;
  Cycle now = 0;            // window boundary (fast twin's driver clock)
  Cycle due = kNeverCycle;  // fast twin's cached next_event, as in a due cache
  Cycle ticked = 0;         // eager twin has ticked every cycle < ticked
  std::uint64_t id = 0;
  while (next < plan.size() || !fast->idle()) {
    ASSERT_LT(now, kGuard) << chain_twin_name(c);
    // Eager twin catches up: ticks EVERY cycle up to the boundary. Ticks at
    // the cycles the chain walk skipped are no-ops by the next_event
    // contract.
    while (ticked < now) {
      eager->tick(ticked);
      ++ticked;
    }
    // Boundary comparison: every stat, and the exact completed-read ids.
    ASSERT_EQ(fast->stats().to_string(), eager->stats().to_string())
        << chain_twin_name(c) << " diverged at cycle " << now;
    ASSERT_EQ(drain_ids(*fast), drain_ids(*eager))
        << chain_twin_name(c) << " completions diverged at cycle " << now;
    // Deliver due arrivals; acceptance must agree (identical state). An
    // enqueue re-arms the due cache at `now`, as MemorySystem::submit does.
    while (next < plan.size() && plan[next].at <= now) {
      ASSERT_EQ(fast->can_accept(plan[next].op),
                eager->can_accept(plan[next].op))
          << chain_twin_name(c) << " at cycle " << now;
      if (!fast->can_accept(plan[next].op)) break;
      mem::MemRequest r;
      r.id = id++;
      r.op = plan[next].op;
      r.addr = dec.decode(plan[next].addr);
      fast->enqueue(r, now);
      eager->enqueue(r, now);
      due = std::min(due, now);
      ++next;
    }
    if (next < plan.size() && plan[next].at <= now) {
      // Backpressured: walk the chain until capacity frees; the driver
      // resumes (and submits) at the freeing tick + 1.
      due = fast->advance_until_accept(due, plan[next].op, kGuard);
      ASSERT_LT(due, kGuard) << chain_twin_name(c) << " wedged at " << now;
      ASSERT_TRUE(fast->can_accept(plan[next].op)) << chain_twin_name(c);
      now = due;
      continue;
    }
    const Cycle horizon = next < plan.size()
                              ? std::max(plan[next].at, now + 1)
                              : now + 100'000;
    due = fast->advance_to(due, horizon);
    ASSERT_GE(due, horizon) << chain_twin_name(c);
    now = horizon;
  }
  while (ticked < now) {
    eager->tick(ticked);
    ++ticked;
  }
  EXPECT_EQ(fast->stats().to_string(), eager->stats().to_string())
      << chain_twin_name(c) << " final stats";
  EXPECT_EQ(drain_ids(*fast), drain_ids(*eager));
  EXPECT_TRUE(eager->idle());
  EXPECT_EQ(next, plan.size()) << chain_twin_name(c);
}

INSTANTIATE_TEST_SUITE_P(
    Twin, ChainTwinTest,
    ::testing::Values(ChainTwinCase{SchedulerPolicy::kFcfs, false, 101},
                      ChainTwinCase{SchedulerPolicy::kFrfcfs, false, 102},
                      ChainTwinCase{SchedulerPolicy::kFrfcfsAugmented, false,
                                    103},
                      ChainTwinCase{SchedulerPolicy::kFcfs, true, 104},
                      ChainTwinCase{SchedulerPolicy::kFrfcfs, true, 105},
                      ChainTwinCase{SchedulerPolicy::kFrfcfsAugmented, true,
                                    106}),
    [](const ::testing::TestParamInfo<ChainTwinCase>& info) {
      return chain_twin_name(info.param);
    });

// ---------------------------------------------------------------------------
// Bus-blocked drain regime: deep queues fed a write-heavy stream keep many
// writes ready at the bank and waiting only for the one data bus, so most
// write selections run with the bus busy and the ready set already flagged.
// The indexed selectors skip flagged candidates in that state and report
// only the flag transitions; the oracle, the cycle-accurate loop and a run
// with the oracle off must still agree on every stat.

struct DrainRun {
  std::string stats;
  std::string completed_ids;
  std::uint64_t column_conflicts = 0;
};

/// Feeds `tr` to one channel as fast as it accepts and runs it dry, either
/// ticking every cycle (`eager`) or walking the event chain the way
/// sys::MemorySystem does (advance_until_accept while backpressured, then
/// advance_to).
DrainRun run_drain(const sys::SystemConfig& cfg, const trace::Trace& tr,
                   bool cross_check, bool eager) {
  const std::unique_ptr<ControllerBase> ctrl = sys::make_channel_controller(
      cfg.bank_kind, cfg.geometry, cfg.timing, cfg.controller, cfg.modes);
  ctrl->set_cross_check(cross_check);
  const mem::AddressDecoder dec(cfg.geometry, cfg.mapping);
  constexpr Cycle kGuard = 50'000'000;
  DrainRun out;
  std::vector<mem::MemRequest> done;
  const auto take = [&] {
    done.clear();
    ctrl->drain_completed(done);
    for (const mem::MemRequest& r : done) {
      out.completed_ids += std::to_string(r.id) + ",";
    }
  };
  std::size_t next = 0;
  Cycle now = 0;
  Cycle due = kNeverCycle;
  while (next < tr.records.size() || !ctrl->idle()) {
    if (now >= kGuard) {
      ADD_FAILURE() << cfg.name << " did not converge";
      break;
    }
    take();
    while (next < tr.records.size() &&
           ctrl->can_accept(tr.records[next].op)) {
      mem::MemRequest r;
      r.id = next;
      r.op = tr.records[next].op;
      r.addr = dec.decode(tr.records[next].addr);
      ctrl->enqueue(r, now);
      due = std::min(due, now);
      ++next;
    }
    if (eager) {
      ctrl->tick(now);
      ++now;
    } else if (next < tr.records.size()) {
      now = due = ctrl->advance_until_accept(due, tr.records[next].op, kGuard);
    } else {
      ctrl->advance_to(due, kGuard);
      break;
    }
  }
  take();
  EXPECT_TRUE(ctrl->idle()) << cfg.name << " did not drain";
  out.stats = ctrl->stats().to_string();
  out.column_conflicts = ctrl->stats().counter("bus.column_conflicts");
  return out;
}

TEST(BusBlockedDrain, FlagTransitionsMatchOracleAndCycleAccurate) {
  trace::WorkloadProfile prof = trace::spec2006_profile("mcf");
  prof.write_fraction = 0.8;
  const trace::Trace tr = trace::generate_trace(prof, 3000);
  std::vector<sys::SystemConfig> cfgs;
  for (const bool multi_issue : {false, true}) {
    cfgs.push_back(sys::fgnvm_config(8, 8, multi_issue));
  }
  cfgs.push_back(sys::dram_config(4));
  for (sys::SystemConfig& cfg : cfgs) {
    cfg.controller.read_queue_cap = 64;
    cfg.controller.write_queue_cap = 128;
    cfg.controller.wq_high = 64;
    cfg.controller.wq_low = 16;
    const DrainRun checked = run_drain(cfg, tr, /*cross_check=*/true,
                                       /*eager=*/false);
    // The run provably reaches the regime: bursts were delayed by the bus.
    EXPECT_GT(checked.column_conflicts, 0u) << cfg.name;
    const DrainRun plain = run_drain(cfg, tr, false, false);
    EXPECT_EQ(checked.stats, plain.stats) << cfg.name << " oracle off";
    EXPECT_EQ(checked.completed_ids, plain.completed_ids) << cfg.name;
    const DrainRun eager = run_drain(cfg, tr, true, true);
    EXPECT_EQ(checked.stats, eager.stats) << cfg.name << " cycle-accurate";
    EXPECT_EQ(checked.completed_ids, eager.completed_ids) << cfg.name;
  }
}

TEST(BusBlockedDrain, NewlyReadyWriteFlaggedBesideFlaggedOne) {
  // Hand-built: W0 and W1 open rows in banks 0 and 1 (one bank's own
  // column spacing, tCCD, already covers a burst); W0's burst reserves the
  // single bus lane, so W1, column-ready next to it, earns the flag. W2
  // then joins W1's open row on another CD while the bus is still
  // reserved. The next tick must flag W2 and leave W1 as it was.
  mem::MemGeometry geo;
  geo.banks_per_rank = 2;
  geo.rows_per_bank = 1024;
  geo.row_bytes = 1024;
  geo.line_bytes = 64;
  geo.num_sags = 4;
  geo.num_cds = 4;
  const mem::TimingParams timing;
  ControllerConfig cfg;
  cfg.policy = SchedulerPolicy::kFrfcfs;
  cfg.wq_low = 1;  // drain writes on the idle path as soon as they arrive
  const mem::AddressDecoder dec(geo);
  ControllerT<nvm::FgNvmBank> ctrl(
      geo, timing, cfg,
      nvm::FgNvmBank(geo, timing, nvm::AccessModes::all_on()));
  ctrl.set_cross_check(true);
  const auto write = [&](RequestId id, std::uint64_t bank, std::uint64_t row,
                         std::uint64_t col) {
    mem::MemRequest r;
    r.id = id;
    r.op = OpType::kWrite;
    r.addr = dec.decode(dec.encode(0, 0, bank, row, col));
    return r;
  };
  // Rows 0 and 256 sit in SAGs 0 and 1; columns 0, 4 and 8 in CDs 0-2.
  const mem::MemRequest w0 = write(0, 0, 0, 0);
  const mem::MemRequest w1 = write(1, 1, 256, 4);
  const mem::MemRequest w2 = write(2, 1, 256, 8);
  const auto flagged = [&](RequestId id) {
    const WriteQueue& q = ctrl.write_queue();
    for (std::int32_t s = q.first(); s >= 0; s = q.next(s)) {
      if (q.at(s).id == id) return q.at(s).bus_blocked;
    }
    ADD_FAILURE() << "write " << id << " left the queue";
    return false;
  };
  const auto bank_ready = [&](const mem::MemRequest& w, Cycle now) {
    const nvm::FgNvmBank& bank = ctrl.banks()[w.addr.bank];
    return bank.row_open(w.addr) &&
           bank.earliest_column(w.addr, OpType::kWrite, now) <= now;
  };

  ctrl.enqueue(w0, 0);
  ctrl.enqueue(w1, 0);
  Cycle now = 0;
  // Tick until W1 carries the flag (W0's burst holds the bus).
  for (; now < 10'000 && !flagged(1); ++now) ctrl.tick(now);
  ASSERT_TRUE(flagged(1));
  ASSERT_EQ(ctrl.stats().counter("cmd.write"), 1u);  // W0's column

  ctrl.enqueue(w2, now);
  ASSERT_FALSE(ctrl.bus().available(now + timing.tCWD));
  ASSERT_TRUE(bank_ready(w1, now));
  ASSERT_TRUE(bank_ready(w2, now));
  ASSERT_FALSE(flagged(2));
  ctrl.tick(now);
  EXPECT_TRUE(flagged(2));
  EXPECT_TRUE(flagged(1));
  EXPECT_EQ(ctrl.stats().counter("cmd.write"), 1u);  // nothing issued

  // Each delayed burst is counted once, at issue.
  for (++now; now < 10'000 && !ctrl.idle(); ++now) ctrl.tick(now);
  EXPECT_TRUE(ctrl.idle());
  EXPECT_EQ(ctrl.stats().counter("cmd.write"), 3u);
  EXPECT_EQ(ctrl.stats().counter("bus.column_conflicts"), 2u);
}

// ---------------------------------------------------------------------------
// Core fast-forward differential:RobCpu::next_action's classification is
// checked against eager cycle-by-cycle ticking at EVERY memory cycle of a
// full run. The contract (DESIGN.md §10): a kActs prediction for a future
// cycle means nothing externally visible (submission, backpressure stall,
// finish) happens before it — never overshoot — and a kActs/kBackpressured
// prediction for the current cycle means the action happens exactly now —
// never undershoot either, the prediction is exact. kStalled means nothing
// can happen without a completion. Recomputing each cycle makes every
// prediction checkable against the very next tick regardless of when
// completions land.

TEST(CoreFastForwardDifferential, NextActionNeverOvershoots) {
  using Action = cpu::RobCpu::Action;
  using ActionKind = cpu::RobCpu::ActionKind;
  std::uint64_t checked_acts = 0;     // exact kActs firings observed
  std::uint64_t checked_stalled = 0;  // kStalled cycles observed quiet
  std::uint64_t checked_bp = 0;       // kBackpressured stalls observed

  // Tiny queues on the second config force genuine backpressure phases.
  sys::SystemConfig tiny = sys::fgnvm_config(4, 4);
  tiny.controller.read_queue_cap = 4;
  tiny.controller.write_queue_cap = 6;
  tiny.controller.wq_high = 4;
  tiny.controller.wq_low = 1;
  tiny.name += "_tinyq";

  for (const char* prof : {"wrf", "milc", "omnetpp"}) {
    const trace::Trace tr =
        trace::generate_trace(trace::spec2006_profile(prof), 800);
    for (const sys::SystemConfig& cfg :
         {sys::fgnvm_config(4, 4), tiny, sys::dram_config(4)}) {
      sys::MemorySystem mem(cfg);
      mem.set_eager_ticking(true);
      trace::TraceSource src(tr);
      cpu::RobCpu core(src, {}, mem);
      std::vector<mem::MemRequest> done;
      Cycle t = 0;
      while (!core.finished() || !mem.idle()) {
        ASSERT_LT(t, 5'000'000u) << prof << " / " << cfg.name;
        mem.drain_completed(done);
        core.complete(done);
        const bool fin0 = core.finished();
        Action act;
        if (!fin0) act = core.next_action(t);
        const std::uint64_t subs0 =
            mem.submitted_reads() + mem.submitted_writes();
        const std::uint64_t bp0 = core.mem_backpressure_stalls();
        core.tick_mem_cycle(t);
        if (!fin0) {
          const bool submitted =
              mem.submitted_reads() + mem.submitted_writes() > subs0;
          const bool backpressured = core.mem_backpressure_stalls() > bp0;
          const bool finished_now = core.finished();
          switch (act.kind) {
            case ActionKind::kActs:
              ASSERT_GE(act.cycle, t) << prof << " / " << cfg.name;
              if (act.cycle == t) {
                EXPECT_TRUE(submitted || finished_now)
                    << prof << " / " << cfg.name << " cycle " << t
                    << ": predicted to act now but did not";
                ++checked_acts;
              } else {
                EXPECT_FALSE(submitted || backpressured || finished_now)
                    << prof << " / " << cfg.name << " cycle " << t
                    << ": acted before predicted cycle " << act.cycle;
              }
              break;
            case ActionKind::kBackpressured:
              EXPECT_EQ(act.cycle, t);
              EXPECT_TRUE(backpressured)
                  << prof << " / " << cfg.name << " cycle " << t
                  << ": predicted a refused attempt, none observed";
              EXPECT_FALSE(submitted);
              ++checked_bp;
              break;
            case ActionKind::kStalled:
              EXPECT_FALSE(submitted || backpressured || finished_now)
                  << prof << " / " << cfg.name << " cycle " << t
                  << ": predicted stalled but acted";
              ++checked_stalled;
              break;
          }
        }
        mem.tick(t);
        ++t;
      }
      EXPECT_TRUE(core.finished()) << prof << " / " << cfg.name;
    }
  }
  // Every classification must actually have been exercised.
  EXPECT_GT(checked_acts, 0u);
  EXPECT_GT(checked_stalled, 0u);
  EXPECT_GT(checked_bp, 0u);
}

}  // namespace
}  // namespace fgnvm::sched

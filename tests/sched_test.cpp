// Unit tests for fg_sched: the write queue and the per-channel controller
// (FRFCFS ordering, forwarding, coalescing, drains, backgrounded writes,
// multi-issue).
#include <gtest/gtest.h>

#include <memory>

#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "sched/controller.hpp"
#include "sched/write_queue.hpp"

namespace fgnvm::sched {
namespace {

// ---------------------------------------------------------------- queue

mem::MemRequest write_to(Addr addr, RequestId id) {
  mem::MemRequest r;
  r.id = id;
  r.op = OpType::kWrite;
  r.addr.addr = addr;
  return r;
}

TEST(WriteQueueTest, CoalescesSameLine) {
  WriteQueue q(8, 6, 2);
  EXPECT_FALSE(q.add(write_to(0x100, 1)));
  EXPECT_TRUE(q.add(write_to(0x100, 2)));   // same line
  EXPECT_TRUE(q.add(write_to(0x13F, 3)));   // same 64B line as 0x100
  EXPECT_FALSE(q.add(write_to(0x140, 4)));  // next line
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.coalesced(), 2u);
}

TEST(WriteQueueTest, CoversLineGranularity) {
  WriteQueue q(8, 6, 2);
  q.add(write_to(0x100, 1));
  EXPECT_TRUE(q.covers(0x100));
  EXPECT_TRUE(q.covers(0x13F));
  EXPECT_FALSE(q.covers(0x140));
}

TEST(WriteQueueTest, DrainHysteresis) {
  WriteQueue q(8, 4, 1);
  for (RequestId i = 0; i < 4; ++i) q.add(write_to(0x1000 + i * 64, i));
  EXPECT_TRUE(q.update_drain());
  EXPECT_EQ(q.drains_started(), 1u);
  q.remove(0);
  q.remove(1);
  EXPECT_TRUE(q.update_drain());  // still above low
  q.remove(2);
  EXPECT_FALSE(q.update_drain());  // at low: stop
}

TEST(WriteQueueTest, RemoveUnknownThrows) {
  WriteQueue q(8, 6, 2);
  q.add(write_to(0x100, 1));
  EXPECT_THROW(q.remove(42), std::runtime_error);
}

TEST(WriteQueueTest, RejectsBadWatermarks) {
  EXPECT_THROW(WriteQueue(4, 6, 2), std::invalid_argument);
  EXPECT_THROW(WriteQueue(8, 4, 6), std::invalid_argument);
}

TEST(WriteQueueTest, AddOnFullThrows) {
  WriteQueue q(2, 2, 1);
  q.add(write_to(0x000, 1));
  q.add(write_to(0x040, 2));
  EXPECT_THROW(q.add(write_to(0x080, 3)), std::runtime_error);
}

// ------------------------------------------------------------- controller

class ControllerFixture {
 public:
  explicit ControllerFixture(ControllerConfig cfg = {},
                             nvm::AccessModes modes = nvm::AccessModes::all_on(),
                             std::uint64_t sags = 8, std::uint64_t cds = 2) {
    geo_.banks_per_rank = 8;
    geo_.rows_per_bank = 4096;
    geo_.row_bytes = 1024;
    geo_.line_bytes = 64;
    geo_.num_sags = sags;
    geo_.num_cds = cds;
    decoder_ = std::make_unique<mem::AddressDecoder>(geo_);
    ctrl_ = std::make_unique<ControllerT<nvm::FgNvmBank>>(
        geo_, timing_, cfg, nvm::FgNvmBank(geo_, timing_, modes));
  }

  mem::MemRequest request(std::uint64_t bank, std::uint64_t row,
                          std::uint64_t col, OpType op, RequestId id) {
    mem::MemRequest r;
    r.id = id;
    r.op = op;
    r.addr = decoder_->decode(decoder_->encode(0, 0, bank, row, col));
    return r;
  }

  /// Ticks until `id` completes; returns its completion cycle.
  Cycle run_until_complete(RequestId id, Cycle max_cycles = 100000) {
    for (; now_ < max_cycles; ++now_) {
      ctrl_->tick(now_);
      ctrl_->drain_completed(completed_);
      for (const auto& done : completed_) {
        if (done.id == id) return done.completion;
      }
    }
    ADD_FAILURE() << "request " << id << " never completed";
    return kNeverCycle;
  }

  void run_cycles(Cycle n) {
    const Cycle end = now_ + n;
    for (; now_ < end; ++now_) {
      ctrl_->tick(now_);
      ctrl_->drain_completed(completed_);
    }
  }

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  std::unique_ptr<mem::AddressDecoder> decoder_;
  std::unique_ptr<ControllerT<nvm::FgNvmBank>> ctrl_;
  std::vector<mem::MemRequest> completed_;
  Cycle now_ = 0;
};

TEST(ControllerTest, SingleReadLatency) {
  ControllerFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  const Cycle done = f.run_until_complete(1);
  // ACT at 0 (issued during tick 0), column at tRCD, data at +tCAS+tBURST.
  const Cycle expected =
      f.timing_.tRCD + f.timing_.tCAS + f.timing_.tBURST;
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(expected), 3.0);
}

TEST(ControllerTest, RowHitIsFaster) {
  ControllerFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  const Cycle first = f.run_until_complete(1);
  f.ctrl_->enqueue(f.request(0, 10, 1, OpType::kRead, 2), f.now_);
  const Cycle second = f.run_until_complete(2);
  const Cycle hit_latency = second - f.now_ + (second - f.now_ > 0 ? 0 : 0);
  // The second read skips the ACT entirely.
  EXPECT_LT(second - first, first);
  EXPECT_GT(f.ctrl_->stats().counter("reads.row_hit_arrival"), 0u);
  (void)hit_latency;
}

TEST(ControllerTest, ForwardsReadFromWriteQueue) {
  ControllerFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kWrite, 1), 0);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 2), 0);
  const Cycle done = f.run_until_complete(2);
  EXPECT_LE(done, 2u);  // served from the queue, not the array
  EXPECT_EQ(f.ctrl_->stats().counter("reads.forwarded"), 1u);
}

TEST(ControllerTest, CoalescesDuplicateWrites) {
  ControllerFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kWrite, 1), 0);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kWrite, 2), 0);
  EXPECT_EQ(f.ctrl_->stats().counter("writes.coalesced"), 1u);
  EXPECT_EQ(f.ctrl_->write_queue().size(), 1u);
}

TEST(ControllerTest, BackpressureWhenReadQueueFull) {
  ControllerConfig cfg;
  cfg.read_queue_cap = 2;
  ControllerFixture f(cfg);
  EXPECT_TRUE(f.ctrl_->can_accept(OpType::kRead));
  f.ctrl_->enqueue(f.request(0, 1, 0, OpType::kRead, 1), 0);
  f.ctrl_->enqueue(f.request(0, 2, 0, OpType::kRead, 2), 0);
  EXPECT_FALSE(f.ctrl_->can_accept(OpType::kRead));
  EXPECT_TRUE(f.ctrl_->can_accept(OpType::kWrite));
}

TEST(ControllerTest, FrfcfsLetsRowHitBypassOlderMiss) {
  ControllerFixture f;
  // Open row 10 and retire that read.
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_until_complete(1);
  // Older request misses (row 20), younger hits (row 10, already sensed).
  const Cycle t0 = f.now_;
  f.ctrl_->enqueue(f.request(0, 20, 0, OpType::kRead, 2), t0);
  f.ctrl_->enqueue(f.request(0, 10, 1, OpType::kRead, 3), t0);
  const Cycle hit_done = f.run_until_complete(3);
  const Cycle miss_done = f.run_until_complete(2);
  EXPECT_LT(hit_done, miss_done);
}

TEST(ControllerTest, FcfsServesStrictlyInOrder) {
  ControllerConfig cfg;
  cfg.policy = SchedulerPolicy::kFcfs;
  ControllerFixture f(cfg);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_until_complete(1);
  const Cycle t0 = f.now_;
  f.ctrl_->enqueue(f.request(0, 20, 0, OpType::kRead, 2), t0);
  f.ctrl_->enqueue(f.request(0, 10, 1, OpType::kRead, 3), t0);
  const Cycle miss_done = f.run_until_complete(2);
  const Cycle hit_done = f.run_until_complete(3);
  EXPECT_GT(hit_done, miss_done);  // the younger hit had to wait
}

TEST(ControllerTest, DrainStartsAtHighWatermark) {
  ControllerConfig cfg;
  cfg.wq_high = 4;
  cfg.wq_low = 1;
  ControllerFixture f(cfg);
  for (RequestId i = 0; i < 4; ++i) {
    f.ctrl_->enqueue(f.request(i % 8, 10 + i, 0, OpType::kWrite, 1 + i), 0);
  }
  f.run_cycles(5);
  EXPECT_GT(f.ctrl_->stats().counter("cmd.act_write") +
                f.ctrl_->stats().counter("cmd.write"),
            0u);
}

TEST(ControllerTest, AugmentedIssuesBackgroundWrites) {
  ControllerConfig cfg;
  cfg.policy = SchedulerPolicy::kFrfcfsAugmented;
  cfg.bg_write_min = 2;
  cfg.wq_high = 32;
  ControllerFixture f(cfg);
  // Reads keep bank 0 busy; writes target bank 4 (disjoint SAG and CD sets
  // live in another bank entirely).
  for (RequestId i = 0; i < 4; ++i) {
    f.ctrl_->enqueue(f.request(4, 100 + i, 0, OpType::kWrite, 100 + i), 0);
  }
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_cycles(2000);
  EXPECT_GT(f.ctrl_->stats().counter("cmd.write_background"), 0u);
}

TEST(ControllerTest, BackgroundWriteAvoidsRecentlyReadSag) {
  ControllerConfig cfg;
  cfg.policy = SchedulerPolicy::kFrfcfsAugmented;
  cfg.bg_write_min = 1;
  cfg.bg_write_guard = 150;
  cfg.drain_idle_timeout = 100000;  // keep the idle-drain path out of play
  ControllerFixture f(cfg);

  // Read row 10 of (bank 0, SAG 0) to completion, then queue a write to the
  // same SAG (different row, no queued-read conflict anymore).
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_until_complete(1);
  const Cycle read_done = f.now_;
  f.ctrl_->enqueue(f.request(0, 20, 0, OpType::kWrite, 2), f.now_);

  // Before the guard expires the write must still be queued...
  f.run_cycles(100);
  EXPECT_EQ(f.ctrl_->write_queue().size(), 1u);
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.write"), 0u);
  // ...after it, the backgrounded write goes through.
  f.run_cycles(200);
  EXPECT_TRUE(f.ctrl_->write_queue().empty());
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.write_background"), 1u);
  EXPECT_GE(f.now_, read_done + cfg.bg_write_guard);
}

TEST(ControllerTest, SubLineSegmentsServeReads) {
  // 8x32 geometry: a 64B line spans two 32B CD segments; one ACT must
  // sense both and the read completes normally.
  ControllerConfig cfg;
  cfg.policy = SchedulerPolicy::kFrfcfsAugmented;
  ControllerFixture f(cfg, nvm::AccessModes::all_on(), 8, 32);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  const Cycle done = f.run_until_complete(1);
  EXPECT_LT(done, 100u);
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.act_read"), 1u);
}

TEST(ControllerTest, PlainFrfcfsNeverWritesInBackground) {
  ControllerConfig cfg;
  cfg.policy = SchedulerPolicy::kFrfcfs;
  ControllerFixture f(cfg);
  for (RequestId i = 0; i < 4; ++i) {
    f.ctrl_->enqueue(f.request(4, 100 + i, 0, OpType::kWrite, 100 + i), 0);
  }
  f.run_cycles(3000);
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.write_background"), 0u);
}

TEST(ControllerTest, MultiIssueCompletesParallelReadsSooner) {
  const auto run_pair = [](std::uint64_t width, std::uint64_t lanes) {
    ControllerConfig cfg;
    cfg.issue_width = width;
    cfg.bus_lanes = lanes;
    ControllerFixture f(cfg);
    for (RequestId i = 0; i < 8; ++i) {
      f.ctrl_->enqueue(f.request(i % 8, 10, 0, OpType::kRead, 1 + i), 0);
    }
    Cycle last = 0;
    for (RequestId i = 0; i < 8; ++i) {
      last = std::max(last, f.run_until_complete(1 + i));
    }
    return last;
  };
  EXPECT_LT(run_pair(2, 2), run_pair(1, 1));
}

TEST(ControllerTest, IdleDrainEventuallyWritesEverything) {
  ControllerFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kWrite, 1), 0);
  f.run_cycles(3000);  // no reads at all: idle-timeout drain must kick in
  EXPECT_TRUE(f.ctrl_->write_queue().empty());
  EXPECT_TRUE(f.ctrl_->idle());
}

TEST(ControllerTest, NextEventReflectsWork) {
  ControllerFixture f;
  EXPECT_EQ(f.ctrl_->next_event(0), kNeverCycle);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  EXPECT_EQ(f.ctrl_->next_event(0), 1u);
}

TEST(ControllerTest, ClosedPageDropsSensedRows) {
  ControllerConfig cfg;
  cfg.page_policy = PagePolicy::kClosed;
  ControllerFixture f(cfg);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_until_complete(1);
  EXPECT_GT(f.ctrl_->stats().counter("cmd.close_row"), 0u);
  // A second read to the same row is no longer a row-buffer hit.
  f.ctrl_->enqueue(f.request(0, 10, 1, OpType::kRead, 2), f.now_);
  f.run_until_complete(2);
  EXPECT_EQ(f.ctrl_->stats().counter("reads.row_hit_arrival"), 0u);
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.act_read"), 2u);
}

TEST(ControllerTest, OpenPageKeepsRowsForHits) {
  ControllerFixture f;  // default open-page
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_until_complete(1);
  f.ctrl_->enqueue(f.request(0, 10, 1, OpType::kRead, 2), f.now_);
  f.run_until_complete(2);
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.act_read"), 1u);
  EXPECT_EQ(f.ctrl_->stats().counter("cmd.close_row"), 0u);
}

TEST(ControllerTest, PagePolicyParsing) {
  EXPECT_EQ(page_policy_from_string("open"), PagePolicy::kOpen);
  EXPECT_EQ(page_policy_from_string("closed"), PagePolicy::kClosed);
  EXPECT_THROW(page_policy_from_string("adaptive"), std::runtime_error);
  const auto cfg = Config::from_string("page_policy = closed\n");
  EXPECT_EQ(ControllerConfig::from_config(cfg).page_policy,
            PagePolicy::kClosed);
}

TEST(ControllerTest, PolicyParsing) {
  EXPECT_EQ(scheduler_policy_from_string("fcfs"), SchedulerPolicy::kFcfs);
  EXPECT_EQ(scheduler_policy_from_string("frfcfs"), SchedulerPolicy::kFrfcfs);
  EXPECT_EQ(scheduler_policy_from_string("frfcfs_aug"),
            SchedulerPolicy::kFrfcfsAugmented);
  EXPECT_THROW(scheduler_policy_from_string("lifo"), std::runtime_error);
  EXPECT_STREQ(to_string(SchedulerPolicy::kFrfcfs), "frfcfs");
}

TEST(ControllerConfigTest, FromConfig) {
  const auto cfg = Config::from_string(
      "scheduler = frfcfs_aug\nread_queue = 16\nissue_width = 2\n"
      "bus_lanes = 2\nbg_write_min = 4\n");
  const ControllerConfig c = ControllerConfig::from_config(cfg);
  EXPECT_EQ(c.policy, SchedulerPolicy::kFrfcfsAugmented);
  EXPECT_EQ(c.read_queue_cap, 16u);
  EXPECT_EQ(c.issue_width, 2u);
  EXPECT_EQ(c.bus_lanes, 2u);
  EXPECT_EQ(c.bg_write_min, 4u);
}

TEST(ControllerConfigTest, RejectsZeroWidths) {
  const auto cfg = Config::from_string("issue_width = 0\n");
  EXPECT_THROW(ControllerConfig::from_config(cfg), std::runtime_error);
}

}  // namespace
}  // namespace fgnvm::sched

// Unit tests for fg_sys: presets match the paper's configurations, the
// memory-system facade routes and completes requests, and energy/stat
// aggregation works across channels.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sys/memory_system.hpp"
#include "sys/presets.hpp"

namespace fgnvm::sys {
namespace {

TEST(Presets, BaselineIsDegenerateFgnvm) {
  const SystemConfig c = baseline_config();
  EXPECT_EQ(c.geometry.num_sags, 1u);
  EXPECT_EQ(c.geometry.num_cds, 1u);
  EXPECT_FALSE(c.modes.partial_activation);
  EXPECT_FALSE(c.modes.multi_activation);
  EXPECT_FALSE(c.modes.background_writes);
  EXPECT_EQ(c.controller.policy, sched::SchedulerPolicy::kFrfcfs);
}

TEST(Presets, FgnvmDims) {
  const SystemConfig c = fgnvm_config(4, 4);
  EXPECT_EQ(c.geometry.num_sags, 4u);
  EXPECT_EQ(c.geometry.num_cds, 4u);
  EXPECT_TRUE(c.modes.partial_activation);
  EXPECT_EQ(c.controller.policy, sched::SchedulerPolicy::kFrfcfsAugmented);
  EXPECT_EQ(c.controller.issue_width, 1u);
  EXPECT_EQ(c.name, "fgnvm_4x4");
}

TEST(Presets, MultiIssueWidensIssueAndBus) {
  const SystemConfig c = fgnvm_config(4, 4, /*multi_issue=*/true);
  EXPECT_EQ(c.controller.issue_width, 2u);
  EXPECT_EQ(c.controller.bus_lanes, 2u);
  EXPECT_EQ(c.name, "fgnvm_4x4_mi");
}

TEST(Presets, ManyBanksPreservesCapacityAndUnits) {
  const SystemConfig base = baseline_config();
  const SystemConfig mb = many_banks_config(4, 4);
  // 8 banks x 4x4 pairs -> 128 independent banks ("128 Banks" in Fig. 4).
  EXPECT_EQ(mb.geometry.banks_per_rank, 128u);
  EXPECT_EQ(mb.geometry.total_bytes(), base.geometry.total_bytes());
  EXPECT_EQ(mb.geometry.num_sags, 1u);
  EXPECT_EQ(mb.geometry.num_cds, 1u);
  EXPECT_EQ(mb.name, "128banks");
  // Each bank is sized as one (SAG, CD) pair of the reference FgNVM.
  EXPECT_EQ(mb.geometry.rows_per_bank, base.geometry.rows_per_bank / 4);
  EXPECT_EQ(mb.geometry.row_bytes, base.geometry.row_bytes / 4);
}

TEST(Presets, ReferenceGeometryMatchesPaper) {
  const mem::MemGeometry g = reference_geometry();
  EXPECT_EQ(g.row_bytes, 1024u);  // 1KB sensed by a baseline ACT (Sec. 6)
  EXPECT_EQ(g.line_bytes, 64u);
  EXPECT_EQ(g.banks_per_rank, 8u);
}

TEST(SystemConfigTest, FromConfigParsesModes) {
  const auto cfg = Config::from_string(
      "name = custom\nsags = 4\ncds = 8\npartial_activation = false\n"
      "multi_activation = true\nbackground_writes = off\n"
      "scheduler = frfcfs\n");
  const SystemConfig sc = SystemConfig::from_config(cfg);
  EXPECT_EQ(sc.name, "custom");
  EXPECT_EQ(sc.geometry.num_sags, 4u);
  EXPECT_EQ(sc.geometry.num_cds, 8u);
  EXPECT_FALSE(sc.modes.partial_activation);
  EXPECT_TRUE(sc.modes.multi_activation);
  EXPECT_FALSE(sc.modes.background_writes);
}

/// Expects from_config to reject `text`, naming `key` as removed.
void expect_removed_key(const std::string& text, const std::string& key) {
  try {
    SystemConfig::from_config(Config::from_string(text));
    ADD_FAILURE() << key << " was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + key + "' was removed"), std::string::npos)
        << what;
    EXPECT_NE(what.find("FGNVM_THREADS sizes the memory-only shards"),
              std::string::npos)
        << what;
  }
}

TEST(SystemConfigTest, RejectsRemovedRunThreadsKey) {
  // Even the old serial default must fail: silently ignoring the key would
  // hide that the config asks for something that no longer exists.
  expect_removed_key("run_threads = 1\n", "run_threads");
}

TEST(SystemConfigTest, RejectsRemovedTileBackendKey) {
  expect_removed_key("tile_backend = false\n", "tile_backend");
}

TEST(MemorySystemTest, CompletesARead) {
  MemorySystem mem(fgnvm_config(4, 4));
  const RequestId id = mem.submit(0x4000, OpType::kRead, 0);
  bool done = false;
  std::vector<mem::MemRequest> completed;
  for (Cycle t = 0; t < 1000 && !done; ++t) {
    mem.tick(t);
    mem.drain_completed(completed);
    for (const auto& r : completed) {
      if (r.id == id) {
        done = true;
        EXPECT_GT(r.completion, 0u);
        EXPECT_LT(r.completion, 100u);
      }
    }
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(mem.submitted_reads(), 1u);
}

TEST(MemorySystemTest, RoutesAcrossChannels) {
  SystemConfig cfg = fgnvm_config(4, 4);
  cfg.geometry.channels = 2;
  MemorySystem mem(cfg);
  // Line 0 -> channel 0; line 1 -> channel 1 under the interleaving.
  const auto d0 = mem.decoder().decode(0);
  const auto d1 = mem.decoder().decode(64);
  EXPECT_EQ(d0.channel, 0u);
  EXPECT_EQ(d1.channel, 1u);
  mem.submit(0, OpType::kRead, 0);
  mem.submit(64, OpType::kRead, 0);
  for (Cycle t = 0; t < 200; ++t) mem.tick(t);
  std::vector<mem::MemRequest> completed;
  mem.drain_completed(completed);
  EXPECT_EQ(completed.size(), 2u);
}

TEST(MemorySystemTest, IdleAfterDrainingEverything) {
  MemorySystem mem(fgnvm_config(4, 4));
  mem.submit(0x4000, OpType::kRead, 0);
  mem.submit(0x8000, OpType::kWrite, 0);
  std::vector<mem::MemRequest> completed;
  for (Cycle t = 0; t < 5000; ++t) {
    mem.tick(t);
    mem.drain_completed(completed);
  }
  EXPECT_TRUE(mem.idle());
}

TEST(MemorySystemTest, EnergyAggregatesAcrossBanks) {
  MemorySystem mem(fgnvm_config(4, 4));
  mem.submit(0x4000, OpType::kRead, 0);
  std::vector<mem::MemRequest> completed;
  for (Cycle t = 0; t < 200; ++t) {
    mem.tick(t);
    mem.drain_completed(completed);
  }
  const auto e = mem.energy(200);
  EXPECT_GT(e.sense_pj, 0.0);
  EXPECT_GT(e.background_pj, 0.0);
  // One 256B segment sensed at 2 pJ/bit.
  EXPECT_DOUBLE_EQ(e.sense_pj, 2.0 * 256 * 8);
  const auto b = mem.bank_totals();
  EXPECT_EQ(b.acts_for_read, 1u);
  EXPECT_EQ(b.reads, 1u);
}

TEST(MemorySystemTest, BackpressureSurfaced) {
  SystemConfig cfg = fgnvm_config(4, 4);
  cfg.controller.read_queue_cap = 1;
  MemorySystem mem(cfg);
  EXPECT_TRUE(mem.can_accept(0, OpType::kRead));
  mem.submit(0, OpType::kRead, 0);
  EXPECT_FALSE(mem.can_accept(0, OpType::kRead));
}

}  // namespace
}  // namespace fgnvm::sys

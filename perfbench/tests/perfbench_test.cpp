// The benchmark's own tests: the copied loops match the runner exactly,
// the tracer computes self time correctly, and the serve client finishes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve_client.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "traced_loops.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace sim = fgnvm::sim;
namespace sys = fgnvm::sys;
namespace trace = fgnvm::trace;

std::vector<sys::SystemConfig> paper_configs() {
  return {sys::baseline_config(), sys::fgnvm_config(4, 4),
          sys::fgnvm_config(8, 8)};
}

trace::Trace short_trace(const std::string& profile, std::uint64_t ops,
                         double write_fraction = -1.0) {
  trace::WorkloadProfile p = trace::spec2006_profile(profile);
  if (write_fraction >= 0) p.write_fraction = write_fraction;
  return trace::generate_trace(p, ops);
}

TEST(TracedLoops, RunWorkloadCopyIsBitIdentical) {
  for (const char* profile : {"milc", "wrf", "lbm"}) {
    const trace::Trace tr = short_trace(profile, 1500);
    for (const sys::SystemConfig& cfg : paper_configs()) {
      Tracer tracer;
      const sim::RunResult want = sim::run_workload(
          tr, cfg, {}, 500'000'000, sim::LoopMode::kEventSkip);
      const sim::RunResult got = traced_run_workload(tr, cfg, tracer);
      EXPECT_EQ(sim::diff_results(want, got), "") << profile << " / "
                                                  << cfg.name;
      EXPECT_EQ(tracer.totals("sim.loop").calls, 1u);
      EXPECT_GT(tracer.totals("cpu.tick_mem_cycle").calls, 0u);
      EXPECT_EQ(tracer.totals("sys.submit").calls, got.reads + got.writes);
    }
  }
}

TEST(TracedLoops, RunMemoryOnlyCopyIsBitIdentical) {
  const trace::Trace tr = short_trace("mcf", 3000, 0.8);
  for (sys::SystemConfig cfg : paper_configs()) {
    for (const std::uint64_t channels : {1u, 4u}) {
      cfg.geometry.channels = channels;
      cfg.geometry.validate();
      cfg.controller.read_queue_cap = 64;
      cfg.controller.write_queue_cap = 128;
      cfg.controller.wq_high = 64;
      cfg.controller.wq_low = 16;
      Tracer tracer;
      const sim::RunResult want = sim::run_memory_only(
          tr, cfg, 500'000'000, sim::LoopMode::kEventSkip);
      const sim::RunResult got = traced_run_memory_only(tr, cfg, tracer);
      EXPECT_EQ(sim::diff_results(want, got), "")
          << cfg.name << " x" << channels;
      EXPECT_GE(tracer.totals("sys.can_accept").calls,
                tracer.counter("sys.can_accept.true"));
    }
  }
}

TEST(Tracer, SelfTimeExcludesDirectChildren) {
  Tracer t;
  const Tracer::Id parent = t.intern("parent");
  const Tracer::Id child = t.intern("child");
  const Tracer::Id leaf = t.intern("leaf");
  t.begin(parent, 0);
  t.begin(child, 10);
  t.begin(leaf, 15);
  t.end(25);  // leaf: 10 ns
  t.end(40);  // child: 30 ns, 20 self
  t.begin(child, 50);
  t.end(60);  // child: 10 ns
  t.end(100);  // parent: 100 ns, 60 self

  const SpanTotals p = t.totals("parent");
  EXPECT_EQ(p.calls, 1u);
  EXPECT_EQ(p.total_ns, 100);
  EXPECT_EQ(p.self_ns, 60);
  const SpanTotals c = t.totals("child");
  EXPECT_EQ(c.calls, 2u);
  EXPECT_EQ(c.total_ns, 40);
  EXPECT_EQ(c.self_ns, 30);
  const SpanTotals l = t.totals("leaf");
  EXPECT_EQ(l.calls, 1u);
  EXPECT_EQ(l.self_ns, 10);
  // Self times partition the root span's duration.
  EXPECT_EQ(p.self_ns + c.self_ns + l.self_ns, 100);
  // Depths 0 and 1 are kept verbatim, in the order they closed; the leaf
  // at depth 2 is only aggregated.
  ASSERT_EQ(t.records().size(), 3u);
  EXPECT_EQ(t.records()[0].start_ns, 10);
  EXPECT_EQ(t.records()[1].end_ns, 60);
  EXPECT_EQ(t.records()[2].start_ns, 0);
  EXPECT_EQ(t.records()[2].end_ns, 100);
}

TEST(Tracer, SameNameUnderDifferentParentsSums) {
  Tracer t;
  const Tracer::Id a = t.intern("a");
  const Tracer::Id b = t.intern("b");
  const Tracer::Id x = t.intern("x");
  t.begin(a, 0);
  t.begin(x, 0);
  t.end(5);
  t.end(10);
  t.begin(b, 10);
  t.begin(x, 11);
  t.end(14);
  t.end(20);
  EXPECT_EQ(t.totals("x").calls, 2u);
  EXPECT_EQ(t.totals("x").self_ns, 8);
  // The written spans keep one entry per parent.
  std::ostringstream json;
  t.write_json(json);
  EXPECT_NE(json.str().find("{\"name\": \"x\", \"parent\": \"a\", \"calls\": 1, "
                            "\"total_ns\": 5"),
            std::string::npos);
  EXPECT_NE(json.str().find("{\"name\": \"x\", \"parent\": \"b\", \"calls\": 1, "
                            "\"total_ns\": 3"),
            std::string::npos);
  EXPECT_THROW(t.end(30), std::logic_error);
}

TEST(Seeds, ZeroKeepsProfileSeedsAndOthersDiffer) {
  EXPECT_EQ(derive_seed(0, 107), 107u);
  EXPECT_NE(derive_seed(1, 107), derive_seed(2, 107));
  EXPECT_NE(derive_seed(1, 107), derive_seed(1, 108));
  EXPECT_EQ(derive_seed(5, 107), derive_seed(5, 107));
}

TEST(Serve, SingleThreadClientFinishes) {
  sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  cfg.geometry.channels = 4;
  cfg.geometry.validate();
  const trace::Trace tr = short_trace("milc", 4000);
  const ServeStreams streams = split_by_channel(tr, cfg, 4);
  ASSERT_EQ(streams.total_frames, tr.records.size());

  Tracer tracer;
  const ServeOutcome o = serve_stream(streams, cfg, &tracer);
  EXPECT_TRUE(o.completed);
  EXPECT_TRUE(o.stats_ok);
  EXPECT_EQ(o.errors, 0u);
  EXPECT_EQ(o.answered, o.frames);
  EXPECT_GT(o.seconds, 0.0);
  EXPECT_GT(tracer.totals("sock.send").calls, 0u);
  EXPECT_GT(tracer.totals("frame.decode").calls, 0u);

  fgnvm::tile::TopologyConfig serial;
  serial.shards = 1;
  serial.worker_threads = false;
  const sim::RunResult want = fgnvm::tile::run_sharded(tr, cfg, serial).run;
  EXPECT_EQ(sim::diff_results(want, o.result), "");

  Tracer direct;
  const DirectOutcome d = direct_replay(tr, cfg, direct);
  EXPECT_EQ(sim::diff_results(want, d.result), "");
  EXPECT_EQ(d.completions, want.reads);
  EXPECT_GT(decode_batch_ns_per_frame(streams), 0.0);
}

TEST(Workloads, EveryNameBuilds) {
  for (const std::string& name : workload_names()) {
    EXPECT_NE(make_workload(name), nullptr) << name;
  }
  EXPECT_EQ(make_workload("nope"), nullptr);
}

}  // namespace

// Benchmark-side copies of the runner's event-skip loops, with spans.
//
// traced_run_workload and traced_run_memory_only reproduce the skip loops
// of sim::run_workload and sim::run_memory_only (src/sim/runner.cpp) from
// the public RobCpu and MemorySystem API only, and record a span around
// every call into the cpu and sys layers. Their results must equal the
// runner's exactly (sim::diff_results empty); the benchmark checks that on
// every traced run and the tests check it on short traces.
#pragma once

#include <cstdint>

#include "cpu/rob_cpu.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "trace/trace.hpp"
#include "tracer.hpp"

namespace perfbench {

/// A MemorySystem that records a "sys.<call>" span around every
/// loop-facing virtual call, including the ones RobCpu makes itself, and
/// counts can_accept answers that were true ("sys.can_accept.true").
/// advance_channels_to is not virtual; traced_advance_channels_to wraps it.
class TracedMemorySystem final : public fgnvm::sys::MemorySystem {
 public:
  TracedMemorySystem(const fgnvm::sys::SystemConfig& cfg, Tracer& tracer);

  bool can_accept(fgnvm::Addr addr, fgnvm::OpType op) const override;
  fgnvm::RequestId submit(fgnvm::Addr addr, fgnvm::OpType op, fgnvm::Cycle now,
                          std::uint64_t cpu_tag = 0) override;
  void tick(fgnvm::Cycle now) override;
  void drain_completed(std::vector<fgnvm::mem::MemRequest>& out) override;
  fgnvm::Cycle next_event(fgnvm::Cycle now) const override;
  fgnvm::Cycle completion_bound(fgnvm::Cycle now) const override;
  fgnvm::Cycle accept_event(fgnvm::Addr addr) const override;
  fgnvm::Cycle advance_until_accept(fgnvm::Addr addr, fgnvm::OpType op,
                                    fgnvm::Cycle limit) override;
  bool idle() const override;
  void traced_advance_channels_to(fgnvm::Cycle horizon);

 private:
  struct Ids {
    Tracer::Id can_accept, can_accept_true, submit, tick, drain_completed,
        next_event, completion_bound, accept_event, advance_until_accept,
        idle, advance_channels_to;
  };
  Tracer& t_;
  Ids ids_;
};

/// Copy of sim::run_workload's event-skip loop (one core, one trace).
/// Spans: "sim.loop" around the run, "cpu.<call>" around every RobCpu call,
/// "sys.<call>" from TracedMemorySystem. Counts loop iterations in
/// "loop.iterations" and simulated cycles in "loop.cycles".
fgnvm::sim::RunResult traced_run_workload(
    const fgnvm::trace::Trace& trace, const fgnvm::sys::SystemConfig& cfg,
    Tracer& tracer, const fgnvm::cpu::CpuParams& cpu_params = {},
    fgnvm::Cycle max_mem_cycles = 500'000'000);

/// Copy of sim::run_memory_only's event-skip loop; same spans and counters.
fgnvm::sim::RunResult traced_run_memory_only(
    const fgnvm::trace::Trace& trace, const fgnvm::sys::SystemConfig& cfg,
    Tracer& tracer, fgnvm::Cycle max_mem_cycles = 500'000'000);

}  // namespace perfbench

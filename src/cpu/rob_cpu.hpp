// ROB-occupancy CPU model (USIMM-style), substituting for the paper's gem5
// Nehalem-like core.
//
// The model captures exactly what a memory-architecture study needs from the
// core: a 4-wide fetch/commit front-end, a reorder buffer that bounds
// memory-level parallelism, loads that block retirement at the ROB head
// until the memory system answers, and posted stores that only stall the
// core through write-queue backpressure. IPC falls out as instructions
// retired per core cycle.
#pragma once

#include <cstdint>
#include <deque>

#include "common/types.hpp"
#include "sys/memory_system.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace fgnvm::cpu {

struct CpuParams {
  std::uint64_t rob_entries = 128;
  std::uint64_t fetch_width = 4;   // also the commit width
  std::uint64_t cpu_per_mem_clock = 8;  // 3.2 GHz core / 400 MHz memory

  static CpuParams from_config(const Config& cfg);
};

class RobCpu {
 public:
  /// The source must outlive the CPU, which takes over its cursor (the
  /// constructor consumes the first record; construct over a freshly
  /// reset() source). The memory system is shared with the simulation
  /// driver, which ticks it separately. `hart` identifies this core when
  /// several share one memory system: submissions are tagged with it and
  /// complete() ignores other harts' requests.
  RobCpu(trace::RecordSource& source, const CpuParams& params,
         sys::MemorySystem& mem, std::uint64_t hart = 0);

  /// Marks this hart's read requests answered by the memory as complete.
  void complete(const std::vector<mem::MemRequest>& done);

  std::uint64_t hart() const { return hart_; }

  /// Runs `cpu_per_mem_clock` core cycles; memory submissions are stamped
  /// with `mem_now`. No-op once finished.
  void tick_mem_cycle(Cycle mem_now);

  /// How the core next touches the outside world (DESIGN.md §10).
  enum class ActionKind : std::uint8_t {
    kActs,           ///< ticks at `cycle`: submission attempt or finish
    kBackpressured,  ///< at the next record now, but its queue is full
    kStalled,        ///< only a read completion can change anything
  };

  /// Result of next_action(): the exact future of a purely compute-bound
  /// core. For kActs, `cycle` is the memory cycle at which the core next
  /// interacts with the memory system (reaches the can_accept probe of the
  /// next trace record) or retires its final instruction; it is exact, not
  /// a bound, assuming no completion is delivered before it. For
  /// kBackpressured, `addr`/`op` identify the blocked record so the driver
  /// can wake the core at that channel's next event. For kStalled the core
  /// is — or deterministically becomes, with no interaction on the way —
  /// blocked until a read completion arrives (`cycle` is kNeverCycle).
  struct Action {
    Cycle cycle = kNeverCycle;
    ActionKind kind = ActionKind::kStalled;
    Addr addr = 0;
    OpType op = OpType::kRead;
  };

  /// Analytically fast-forwards the deterministic retire/fetch schedule
  /// from memory cycle `now` (state as of after tick_mem_cycle(now - 1))
  /// and classifies the core's next externally visible action. O(answered
  /// prefix + phase transitions), independent of the gap length. The result
  /// is invalidated by any completion delivery: recompute after complete().
  Action next_action(Cycle now) const;

  /// Jumps the core over memory cycles [now, target) in one step,
  /// bit-identical to ticking them one at a time: instruction/cycle
  /// counters, fetch-stall and backpressure accounting all advance exactly
  /// as the per-cycle loop would. Preconditions: no completion is delivered
  /// inside the span, and the span contains no submission — either it ends
  /// at or before next_action().cycle, or the core is backpressured at the
  /// next record for the whole span (the driver wakes it no later than the
  /// blocked channel's next event, so the queue-full answer cannot change
  /// mid-span).
  void advance_to(Cycle now, Cycle target);

  bool finished() const;

  std::uint64_t instructions_retired() const { return retired_; }
  std::uint64_t total_instructions() const { return total_insts_; }
  std::uint64_t cpu_cycles() const { return cpu_cycles_; }
  double ipc() const;

  std::uint64_t fetch_stall_cycles() const { return fetch_stalls_; }
  std::uint64_t mem_backpressure_stalls() const { return backpressure_; }

 private:
  void run_cpu_cycle(Cycle mem_now);
  void do_retire();
  void do_fetch(Cycle mem_now);

  /// Scalar image of the state run_cpu_cycle mutates during a pure-compute
  /// span (no submissions, no completions). The loads_ deque reduces to the
  /// `fence`: during such a span nothing is pushed, only the initially
  /// answered prefix pops, and the first unanswered load's index is the
  /// only thing retirement reads.
  struct GapState {
    std::uint64_t fetched = 0;
    std::uint64_t retired = 0;
    std::uint64_t cpu_cycles = 0;
    std::uint64_t fetch_stalls = 0;
    std::uint64_t backpressure = 0;
    std::uint64_t fence = 0;     // first unanswered load's index, or kNoFence
    std::uint64_t rec_inst = 0;  // next_mem_inst_, or kNoFence if trace done
  };
  enum class GapStop : std::uint8_t {
    kBudget,    // ran `budget` cycles without an interaction
    kRecord,    // the next cycle reaches the trace record (not committed)
    kFinished,  // the last committed cycle retired the final instruction
    kStalled,   // no further change possible without a completion
  };

  GapState gap_state() const;
  /// Runs up to `budget` pure-compute core cycles on `s`, bit-identical to
  /// run_cpu_cycle minus the memory interaction, in O(phase transitions).
  /// With `assume_backpressure`, reaching the trace record charges one
  /// backpressure stall per cycle and keeps going (the caller guarantees
  /// the queue stays full for the whole span); otherwise the walk stops
  /// *before* the record cycle and reports kRecord. `cycles_run` counts
  /// committed cycles (the finishing cycle included, a kRecord cycle not).
  GapStop run_gap(GapState& s, std::uint64_t budget, bool assume_backpressure,
                  std::uint64_t& cycles_run) const;

  struct PendingLoad {
    std::uint64_t inst_index;  // global index of the load instruction
    RequestId request;
    bool answered = false;  // memory answered; retires when it reaches head
  };

  trace::RecordSource* src_;
  CpuParams params_;
  sys::MemorySystem& mem_;
  std::uint64_t hart_ = 0;

  std::uint64_t total_insts_ = 0;
  trace::TraceRecord cur_{};          // next record to issue, if has_cur_
  bool has_cur_ = false;
  std::uint64_t next_mem_inst_ = 0;   // instruction index of that record
  std::uint64_t fetched_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t cpu_cycles_ = 0;
  std::uint64_t fetch_stalls_ = 0;
  std::uint64_t backpressure_ = 0;

  // In program order; request ids are strictly increasing (MemorySystem
  // allocates ids from one monotonic counter), so complete() finds an
  // answered load by binary search instead of a hash-set lookup.
  std::deque<PendingLoad> loads_;
};

}  // namespace fgnvm::cpu

// Experiment runner: executes one (trace, memory system) pair to
// completion and collects the numbers the paper's figures are built from.
// There is one entry per run kind (full system, memory-only,
// multiprogrammed), each taking a SystemSpec; the plain and hybrid memory
// systems share every loop and the paranoid cross-check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "cpu/rob_cpu.hpp"
#include "nvm/energy.hpp"
#include "obs/observer.hpp"
#include "sys/hybrid.hpp"
#include "sys/memory_system.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace fgnvm::sim {

/// How the simulation loops advance time.
///  * kCycleAccurate — tick every memory cycle (the reference semantics).
///  * kEventSkip     — jump from event to event via MemorySystem::next_event
///                     and RobCpu::next_action/advance_to (DESIGN.md §10);
///                     produces bit-identical results by construction
///                     (neither side ever overshoots an actionable cycle).
///  * kAuto          — kEventSkip, unless the FGNVM_PARANOID environment
///                     variable is set non-empty (and not "0"), in which
///                     case every run executes BOTH loops and throws
///                     std::runtime_error on any stat difference.
enum class LoopMode : std::uint8_t { kAuto, kCycleAccurate, kEventSkip };

struct RunResult {
  std::string workload;
  std::string config;
  std::uint64_t instructions = 0;
  std::uint64_t cpu_cycles = 0;
  std::uint64_t mem_cycles = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double ipc = 0.0;
  double avg_read_latency = 0.0;  // memory cycles
  double p50_read_latency = 0.0;
  double p95_read_latency = 0.0;
  double p99_read_latency = 0.0;
  std::uint64_t fetch_stall_cycles = 0;     // ROB full
  std::uint64_t backpressure_stalls = 0;    // memory queues full
  nvm::EnergyBreakdown energy;
  nvm::BankStats banks;
  StatSet controller;
  /// Request traces / time-series, when obs_trace was enabled; else null.
  /// Never part of diff_results — observability must not gate equivalence.
  std::shared_ptr<const obs::Observer> obs;

  /// Energy per memory operation in pJ (the Figure-5 normalization basis).
  double energy_per_op_pj() const;
};

/// The memory system a run drives: the channel array of one bank kind
/// (FgNVM or DRAM), or the RBLA hybrid of a DRAM partition in front of an
/// FgNVM backend (DESIGN.md §13). Both config types convert implicitly, so
/// callers pass either one where a SystemSpec is expected.
using SystemSpec = std::variant<sys::SystemConfig, sys::HybridSystemConfig>;

// One entry per run kind takes a trace::RecordSource (a streamed FGS1
// trace, a cursor over a shared Trace, ...); each has a thin Trace wrapper.
// Sources are reset() before every loop run, so a paranoid double-run
// replays the identical stream. Every run throws std::runtime_error if it
// exceeds `max_mem_cycles` (deadlock guard).

/// Full-system run: ROB CPU in front of the memory system. This is the
/// one-core run of the loop behind run_multiprogrammed, so alone and shared
/// IPCs come from the same engine.
RunResult run_workload(trace::RecordSource& source, const SystemSpec& spec,
                       const cpu::CpuParams& cpu_params = {},
                       Cycle max_mem_cycles = 500'000'000,
                       LoopMode mode = LoopMode::kAuto);
RunResult run_workload(const trace::Trace& trace, const SystemSpec& spec,
                       const cpu::CpuParams& cpu_params = {},
                       Cycle max_mem_cycles = 500'000'000,
                       LoopMode mode = LoopMode::kAuto);

/// Memory-only closed-loop run: submits the trace as fast as backpressure
/// allows, in order against one clock (a record blocked on a full channel
/// holds back every later one). Measures achievable bandwidth and service
/// latency without a core model. `instructions` and `ipc` are zero in the
/// result. The event-skip run of a plain system without an observer
/// replays that schedule on the tile shards (tile::run_head_of_line); the
/// hybrid and observed runs, and the cycle-accurate reference, run the
/// MemorySystem loop.
RunResult run_memory_only(trace::RecordSource& source, const SystemSpec& spec,
                          Cycle max_mem_cycles = 500'000'000,
                          LoopMode mode = LoopMode::kAuto);
RunResult run_memory_only(const trace::Trace& trace, const SystemSpec& spec,
                          Cycle max_mem_cycles = 500'000'000,
                          LoopMode mode = LoopMode::kAuto);

/// Fills the avg/p50/p95/p99 read latencies of `r` from the read_latency
/// distribution and histogram of its merged `controller` stats.
void fill_read_latency(RunResult& r);

/// Describes the first difference between two runs of the same experiment,
/// or returns the empty string when every stat matches exactly: cycle
/// counts, IPC, latencies (including distribution moments and histogram
/// buckets), energy, bank activity, and all controller counters. Used by
/// the FGNVM_PARANOID cross-check and the equivalence tests.
std::string diff_results(const RunResult& a, const RunResult& b);

/// Result of a multi-programmed run: several cores, one memory system.
struct MultiProgramResult {
  std::vector<std::string> workloads;
  std::vector<double> ipc;        // per core, under sharing
  std::vector<Cycle> cpu_cycles;  // per core (cycles to finish its slice)
  Cycle mem_cycles = 0;           // until the last core finished
  nvm::EnergyBreakdown energy;
  StatSet controller;
  std::shared_ptr<const obs::Observer> obs;  // see RunResult::obs

  /// Sum over cores of shared_ipc / alone_ipc (the usual weighted-speedup
  /// metric); `alone` must be same-order per-core isolated IPCs.
  double weighted_speedup(const std::vector<double>& alone) const;

  /// Per-tenant slowdown alone_ipc / shared_ipc (>= 1 under contention);
  /// `alone` must be same-order per-core isolated IPCs. Cores with a
  /// non-positive alone or shared IPC report 0.
  std::vector<double> slowdowns(const std::vector<double>& alone) const;
  /// Largest per-tenant slowdown (the QoS worst case).
  double max_slowdown(const std::vector<double>& alone) const;
  /// min/max slowdown in [0, 1]: 1 means perfectly even degradation.
  double fairness(const std::vector<double>& alone) const;
  /// Harmonic mean of per-core speedups, n / sum(slowdown_i) — the
  /// fairness-weighted counterpart of weighted_speedup.
  double harmonic_speedup(const std::vector<double>& alone) const;
};

/// Runs one trace per core against a shared memory system. Cores that
/// finish early idle while the rest complete. One source per core: sources
/// must be non-null and outlive the call, and since each is reset() before
/// every loop run, several cores may NOT share one source object (use one
/// TraceSource cursor per core over a shared Trace instead). This is the
/// thousand-core entry point: per-core memory is the source's window, not
/// the trace length. On a hybrid system, injected migration requests carry
/// sys::HybridMemorySystem::kMigrationTag and never reach a core.
///
/// The skip loop's wake schedule is the indexed wake calendar
/// (src/sim/wake_calendar.hpp); FGNVM_PARANOID cross-checks it against the
/// cycle-accurate loop. run_workload is the one-core run of the same loop.
MultiProgramResult run_multiprogrammed(
    const std::vector<trace::RecordSource*>& sources, const SystemSpec& spec,
    const cpu::CpuParams& cpu_params = {},
    Cycle max_mem_cycles = 500'000'000, LoopMode mode = LoopMode::kAuto);
MultiProgramResult run_multiprogrammed(
    const std::vector<trace::Trace>& traces, const SystemSpec& spec,
    const cpu::CpuParams& cpu_params = {},
    Cycle max_mem_cycles = 500'000'000, LoopMode mode = LoopMode::kAuto);

/// diff_results for multi-programmed runs.
std::string diff_results(const MultiProgramResult& a,
                         const MultiProgramResult& b);

}  // namespace fgnvm::sim

#include "traced_loops.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "trace/stream.hpp"

namespace perfbench {

using fgnvm::Addr;
using fgnvm::Cycle;
using fgnvm::kNeverCycle;
using fgnvm::OpType;
using fgnvm::RequestId;
namespace cpu = fgnvm::cpu;
namespace mem = fgnvm::mem;
namespace sim = fgnvm::sim;
namespace sys = fgnvm::sys;

TracedMemorySystem::TracedMemorySystem(const sys::SystemConfig& cfg,
                                       Tracer& tracer)
    : sys::MemorySystem(cfg), t_(tracer) {
  ids_.can_accept = t_.intern("sys.can_accept");
  ids_.can_accept_true = t_.intern("sys.can_accept.true");
  ids_.submit = t_.intern("sys.submit");
  ids_.tick = t_.intern("sys.tick");
  ids_.drain_completed = t_.intern("sys.drain_completed");
  ids_.next_event = t_.intern("sys.next_event");
  ids_.completion_bound = t_.intern("sys.completion_bound");
  ids_.accept_event = t_.intern("sys.accept_event");
  ids_.advance_until_accept = t_.intern("sys.advance_until_accept");
  ids_.idle = t_.intern("sys.idle");
  ids_.advance_channels_to = t_.intern("sys.advance_channels_to");
}

bool TracedMemorySystem::can_accept(Addr addr, OpType op) const {
  const Span s(t_, ids_.can_accept);
  const bool ok = sys::MemorySystem::can_accept(addr, op);
  if (ok) t_.add(ids_.can_accept_true);
  return ok;
}

RequestId TracedMemorySystem::submit(Addr addr, OpType op, Cycle now,
                                     std::uint64_t cpu_tag) {
  const Span s(t_, ids_.submit);
  return sys::MemorySystem::submit(addr, op, now, cpu_tag);
}

void TracedMemorySystem::tick(Cycle now) {
  const Span s(t_, ids_.tick);
  sys::MemorySystem::tick(now);
}

void TracedMemorySystem::drain_completed(std::vector<mem::MemRequest>& out) {
  const Span s(t_, ids_.drain_completed);
  sys::MemorySystem::drain_completed(out);
}

Cycle TracedMemorySystem::next_event(Cycle now) const {
  const Span s(t_, ids_.next_event);
  return sys::MemorySystem::next_event(now);
}

Cycle TracedMemorySystem::completion_bound(Cycle now) const {
  const Span s(t_, ids_.completion_bound);
  return sys::MemorySystem::completion_bound(now);
}

Cycle TracedMemorySystem::accept_event(Addr addr) const {
  const Span s(t_, ids_.accept_event);
  return sys::MemorySystem::accept_event(addr);
}

Cycle TracedMemorySystem::advance_until_accept(Addr addr, OpType op,
                                               Cycle limit) {
  const Span s(t_, ids_.advance_until_accept);
  return sys::MemorySystem::advance_until_accept(addr, op, limit);
}

bool TracedMemorySystem::idle() const {
  const Span s(t_, ids_.idle);
  return sys::MemorySystem::idle();
}

void TracedMemorySystem::traced_advance_channels_to(Cycle horizon) {
  const Span s(t_, ids_.advance_channels_to);
  advance_channels_to(horizon);
}

namespace {

/// The runner's result assembly (sim::finalize), from public accessors.
sim::RunResult finalize(const std::string& workload, sys::MemorySystem& m,
                        Cycle mem_cycles) {
  sim::RunResult r;
  r.workload = workload;
  r.config = m.config().name;
  r.mem_cycles = mem_cycles;
  r.reads = m.submitted_reads();
  r.writes = m.submitted_writes();
  r.energy = m.energy(mem_cycles);
  r.banks = m.bank_totals();
  r.controller = m.controller_stats();
  r.avg_read_latency = r.controller.distribution("read_latency").mean();
  const fgnvm::Histogram& hist = r.controller.histogram("read_latency_hist");
  r.p50_read_latency = hist.percentile(0.50);
  r.p95_read_latency = hist.percentile(0.95);
  r.p99_read_latency = hist.percentile(0.99);
  m.finalize_obs(mem_cycles);
  return r;
}

struct LoopIds {
  explicit LoopIds(Tracer& t)
      : loop(t.intern("sim.loop")),
        iterations(t.intern("loop.iterations")),
        cycles(t.intern("loop.cycles")),
        next_action(t.intern("cpu.next_action")),
        advance_to(t.intern("cpu.advance_to")),
        tick_mem_cycle(t.intern("cpu.tick_mem_cycle")),
        complete(t.intern("cpu.complete")) {}
  Tracer::Id loop, iterations, cycles, next_action, advance_to,
      tick_mem_cycle, complete;
};

}  // namespace

sim::RunResult traced_run_workload(const fgnvm::trace::Trace& trace,
                                   const sys::SystemConfig& cfg,
                                   Tracer& tracer,
                                   const cpu::CpuParams& cpu_params,
                                   Cycle max_mem_cycles) {
  const LoopIds ids(tracer);
  const Span run_span(tracer, ids.loop);
  TracedMemorySystem m(cfg, tracer);
  fgnvm::trace::TraceSource source(trace);
  cpu::RobCpu core(source, cpu_params, m);
  const bool windows = m.lazy_scheduling();
  std::vector<mem::MemRequest> done;
  using ActionKind = cpu::RobCpu::ActionKind;

  Cycle t = 0;
  std::uint64_t iterations = 0;
  while (!core.finished() || !m.idle()) {
    if (t >= max_mem_cycles) {
      throw std::runtime_error("traced_run_workload: exceeded max_mem_cycles");
    }
    ++iterations;
    m.drain_completed(done);
    {
      const Span s(tracer, ids.complete);
      core.complete(done);
    }
    {
      const Span s(tracer, ids.tick_mem_cycle);
      core.tick_mem_cycle(t);
    }
    m.tick(t);
    Cycle next = t + 1;
    cpu::RobCpu::Action act;
    if (!core.finished()) {
      const Span s(tracer, ids.next_action);
      act = core.next_action(next);
    }
    if (!(act.kind == ActionKind::kActs && act.cycle <= next)) {
      bool advanced = false;
      if (windows) {
        Cycle horizon = m.completion_bound(t);
        if (act.kind == ActionKind::kBackpressured) {
          horizon = std::min(horizon, m.accept_event(act.addr));
        } else if (act.kind == ActionKind::kActs) {
          horizon = std::min(horizon, act.cycle);
        }
        if (horizon != kNeverCycle &&
            std::min(horizon, max_mem_cycles) > next) {
          next = std::min(horizon, max_mem_cycles);
          m.traced_advance_channels_to(next);
          if (!core.finished()) {
            const Span s(tracer, ids.advance_to);
            core.advance_to(t + 1, next);
          }
          advanced = true;
        }
      }
      if (!advanced) {
        Cycle event = m.next_event(t);
        if (act.kind == ActionKind::kActs) event = std::min(event, act.cycle);
        if (event > next && event != kNeverCycle) {
          next = std::min(event, max_mem_cycles);
          if (!core.finished()) {
            const Span s(tracer, ids.advance_to);
            core.advance_to(t + 1, next);
          }
        }
      }
    }
    t = next;
  }
  tracer.add(ids.iterations, iterations);
  tracer.add(ids.cycles, t);

  sim::RunResult r = finalize(source.name(), m, t);
  r.instructions = core.instructions_retired();
  r.cpu_cycles = core.cpu_cycles();
  r.ipc = core.ipc();
  r.fetch_stall_cycles = core.fetch_stall_cycles();
  r.backpressure_stalls = core.mem_backpressure_stalls();
  return r;
}

sim::RunResult traced_run_memory_only(const fgnvm::trace::Trace& trace,
                                      const sys::SystemConfig& cfg,
                                      Tracer& tracer, Cycle max_mem_cycles) {
  const LoopIds ids(tracer);
  const Span run_span(tracer, ids.loop);
  TracedMemorySystem m(cfg, tracer);
  const bool windows = m.lazy_scheduling();
  fgnvm::trace::TraceSource source(trace);
  fgnvm::trace::TraceRecord rec;
  bool pending = source.next(rec);
  std::vector<mem::MemRequest> done;

  Cycle t = 0;
  std::uint64_t iterations = 0;
  while (pending || !m.idle()) {
    if (t >= max_mem_cycles) {
      throw std::runtime_error(
          "traced_run_memory_only: exceeded max_mem_cycles");
    }
    ++iterations;
    m.drain_completed(done);
    while (pending && m.can_accept(rec.addr, rec.op)) {
      m.submit(rec.addr, rec.op, t);
      pending = source.next(rec);
    }
    m.tick(t);
    Cycle next = t + 1;
    const bool blocked = !pending || !m.can_accept(rec.addr, rec.op);
    if (blocked) {
      bool advanced = false;
      if (windows && pending) {
        const Cycle resume =
            m.advance_until_accept(rec.addr, rec.op, max_mem_cycles);
        if (std::min(resume, max_mem_cycles) > next) {
          next = std::min(resume, max_mem_cycles);
          m.traced_advance_channels_to(next);
          advanced = true;
        }
      }
      if (!advanced) {
        const Cycle event = m.next_event(t);
        if (event > next && event != kNeverCycle) {
          next = std::min(event, max_mem_cycles);
        }
      }
    }
    t = next;
  }
  tracer.add(ids.iterations, iterations);
  tracer.add(ids.cycles, t);
  return finalize(source.name(), m, t);
}

}  // namespace perfbench

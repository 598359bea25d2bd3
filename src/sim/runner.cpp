#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sched/controller.hpp"
#include "sim/wake_calendar.hpp"
#include "tile/topology.hpp"

namespace fgnvm::sim {

double RunResult::energy_per_op_pj() const {
  const std::uint64_t ops = reads + writes;
  return ops == 0 ? 0.0 : energy.total_pj() / static_cast<double>(ops);
}

namespace {

/// Builds a fresh system for one loop run (the paranoid cross-check runs
/// each loop twice, so every run starts from its own system).
std::unique_ptr<sys::MemorySystem> make_system(const SystemSpec& spec) {
  if (const auto* hybrid = std::get_if<sys::HybridSystemConfig>(&spec)) {
    return std::make_unique<sys::HybridMemorySystem>(*hybrid);
  }
  return std::make_unique<sys::MemorySystem>(
      std::get<sys::SystemConfig>(spec));
}

const std::string& system_name(const SystemSpec& spec) {
  if (const auto* hybrid = std::get_if<sys::HybridSystemConfig>(&spec)) {
    return hybrid->nvm.name;
  }
  return std::get<sys::SystemConfig>(spec).name;
}

RunResult finalize(const std::string& workload, sys::MemorySystem& mem,
                   Cycle mem_cycles) {
  RunResult r;
  r.workload = workload;
  r.config = mem.config().name;
  r.mem_cycles = mem_cycles;
  r.reads = mem.submitted_reads();
  r.writes = mem.submitted_writes();
  r.energy = mem.energy(mem_cycles);
  r.banks = mem.bank_totals();
  r.controller = mem.controller_stats();
  fill_read_latency(r);
  mem.finalize_obs(mem_cycles);
  if (obs::Observer* o = mem.observer()) {
    o->set_run_info(workload, mem.config().name);
    // The instruction source captures loop-local state; the observer itself
    // outlives the run through the shared_ptr below.
    o->set_instruction_source(nullptr);
  }
  r.obs = mem.observer_ptr();
  return r;
}

// ------------------------------------------------------------ diff helpers

class Differ {
 public:
  bool num(const char* name, double a, double b) {
    // Bit-level comparison: the two loops must execute the identical
    // floating-point operations in the identical order.
    if (a == b || (std::isnan(a) && std::isnan(b))) return false;
    record(name, a, b);
    return true;
  }
  bool num(const char* name, std::uint64_t a, std::uint64_t b) {
    if (a == b) return false;
    record(name, a, b);
    return true;
  }

  void stats(const StatSet& a, const StatSet& b) {
    if (!diff_.empty()) return;
    if (a.counters().size() != b.counters().size() ||
        a.distributions().size() != b.distributions().size() ||
        a.histograms().size() != b.histograms().size()) {
      diff_ = "controller stat-set shape differs";
      return;
    }
    for (const auto& [name, value] : a.counters()) {
      if (num(name.c_str(), value, b.counter(name))) return;
    }
    for (const auto& [name, d] : a.distributions()) {
      const Distribution& e = b.distribution(name);
      if (num((name + ".count").c_str(), d.count(), e.count()) ||
          num((name + ".sum").c_str(), d.sum(), e.sum()) ||
          num((name + ".min").c_str(), d.min(), e.min()) ||
          num((name + ".max").c_str(), d.max(), e.max()) ||
          num((name + ".var").c_str(), d.variance(), e.variance())) {
        return;
      }
    }
    for (const auto& [name, h] : a.histograms()) {
      const Histogram& g = b.histogram(name);
      if (num((name + ".total").c_str(), h.total(), g.total()) ||
          num((name + ".overflow").c_str(), h.overflow(), g.overflow())) {
        return;
      }
      for (std::size_t i = 0; i < h.num_buckets(); ++i) {
        if (num((name + ".bucket" + std::to_string(i)).c_str(), h.bucket(i),
                g.bucket(i))) {
          return;
        }
      }
    }
  }

  const std::string& diff() const { return diff_; }

 private:
  template <typename T>
  void record(const char* name, T a, T b) {
    if (!diff_.empty()) return;
    std::ostringstream os;
    os << name << ": " << a << " vs " << b;
    diff_ = os.str();
  }

  std::string diff_;
};

// ------------------------------------------------------------ loop bodies

using Cores = std::vector<std::unique_ptr<cpu::RobCpu>>;

/// The full-system loop: one ROB core per source in front of one memory
/// system. run_workload is its one-core run and run_multiprogrammed its
/// n-core run; `assemble(mem, cores, mem_cycles)` turns the finished system
/// and cores into the entry's result. `label` names the run (source or core
/// count, then config) in the overrun error of `entry`.
template <typename Assemble>
auto run_cores_loop(const std::vector<trace::RecordSource*>& sources,
                    const SystemSpec& spec, const cpu::CpuParams& cpu_params,
                    Cycle max_mem_cycles, bool skip, const char* entry,
                    const std::string& label, const Assemble& assemble) {
  const std::unique_ptr<sys::MemorySystem> mem_ptr = make_system(spec);
  sys::MemorySystem& mem = *mem_ptr;
  if (!skip) mem.set_eager_ticking(true);
  Cores cores;
  cores.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i]->reset();  // every loop run replays the stream from the top
    cores.push_back(
        std::make_unique<cpu::RobCpu>(*sources[i], cpu_params, mem, i));
  }
  if (obs::Observer* o = mem.observer()) {
    o->set_instruction_source([&cores] {
      std::uint64_t n = 0;
      for (const auto& c : cores) n += c->instructions_retired();
      return n;
    });
  }
  const auto overrun = [&]() {
    return std::runtime_error(std::string(entry) +
                              ": exceeded max_mem_cycles on " + label);
  };

  const std::size_t n = cores.size();
  // Completions routed by cpu_tag, so each core scans only its own
  // requests instead of every core scanning the full drain. `touched`
  // lists the non-empty buckets, so clearing costs O(touched) rather than
  // O(cores) per drain.
  std::vector<mem::MemRequest> done;
  std::vector<std::vector<mem::MemRequest>> per_core(n);
  std::vector<std::uint32_t> touched;
  const auto route_completions = [&]() {
    for (const std::uint32_t i : touched) per_core[i].clear();
    touched.clear();
    mem.drain_completed(done);
    if (done.empty()) return false;
    for (const mem::MemRequest& r : done) {
      if (r.is_read() && r.cpu_tag < n) {
        if (per_core[r.cpu_tag].empty()) {
          touched.push_back(static_cast<std::uint32_t>(r.cpu_tag));
        }
        per_core[r.cpu_tag].push_back(r);
      }
    }
    return true;
  };

  if (!skip) {
    // Cycle-accurate reference: every core ticks every cycle.
    const auto all_finished = [&]() {
      return std::all_of(cores.begin(), cores.end(),
                         [](const auto& c) { return c->finished(); });
    };
    Cycle t = 0;
    while (!all_finished() || !mem.idle()) {
      if (t >= max_mem_cycles) throw overrun();
      if (route_completions()) {
        for (std::size_t i = 0; i < cores.size(); ++i) {
          cores[i]->complete(per_core[i]);
        }
      }
      for (auto& core : cores) {
        core->tick_mem_cycle(t);
      }
      mem.tick(t);
      ++t;
    }
    return assemble(mem, cores, t);
  }

  // Wake-calendar schedule (DESIGN.md §16). Each core carries a synced
  // watermark (the first memory cycle it has not yet executed) and is
  //  * armed   — next action is a known submission cycle; indexed in the
  //    calendar, woken by collect_due(t);
  //  * blocked — backpressured at its next record; kept in a dense
  //    `bp_list` whose dues (its channel's due) are refreshed every
  //    iteration (another core's submission can pull the blocked channel's
  //    tick earlier, so these dues are not stable enough to index);
  //  * stalled — wakes only on a read completion; tracked nowhere.
  // An iteration ticks the woken set ({completion-touched} ∪ {due <= t}) in
  // ascending core order (submission order feeds the memory side), touching
  // O(woken + backpressured) cores; everyone else is fast-forwarded lazily
  // when next woken (`advance_to` is bit-identical to ticking).
  //
  // With an observer attached, two conditions change: every unfinished
  // core is woken each iteration, so the instruction source reads exact
  // values, and no skip passes the observer's next epoch sample, so the
  // time series lands on the cycles the cycle-accurate loop samples.
  using ActionKind = cpu::RobCpu::ActionKind;
  const bool windows = mem.lazy_scheduling();
  const obs::Observer* const observer = mem.observer();
  std::vector<Cycle> due(n, 0);     // backpressured cores' retry cycles
  std::vector<Cycle> synced(n, 0);  // first cycle not yet executed
  std::vector<cpu::RobCpu::Action> acts(n);  // last classified action
  std::size_t unfinished = n;
  const auto catch_up = [&](std::size_t i, Cycle c) {
    if (synced[i] < c) {
      cores[i]->advance_to(synced[i], c);
      synced[i] = c;
    }
  };

  WakeCalendar cal;
  cal.reset(n);
  std::vector<std::uint32_t> woken_list;  // woken set, sorted before ticks
  std::vector<std::uint32_t> due_now;     // collect_due output
  std::vector<std::uint8_t> stamp(n, 0);  // woken-set dedup
  constexpr std::uint32_t kNpos = ~std::uint32_t{0};
  std::vector<std::uint32_t> bp_list;          // dense backpressured cores
  std::vector<std::uint32_t> bp_pos(n, kNpos);  // core -> bp_list index
  const auto wake = [&](std::uint32_t i) {
    if (!stamp[i]) {
      stamp[i] = 1;
      woken_list.push_back(i);
    }
  };
  const auto bp_remove = [&](std::uint32_t i) {
    const std::uint32_t pos = bp_pos[i];
    if (pos == kNpos) return;
    const std::uint32_t last = bp_list.back();
    bp_list[pos] = last;
    bp_pos[last] = pos;
    bp_list.pop_back();
    bp_pos[i] = kNpos;
  };
  // Everyone starts due at cycle 0.
  for (std::uint32_t i = 0; i < n; ++i) cal.schedule(i, 0);

  Cycle t = 0;
  while (unfinished > 0 || !mem.idle()) {
    if (t >= max_mem_cycles) throw overrun();
    route_completions();
    woken_list.clear();
    for (const std::uint32_t i : touched) {
      if (!cores[i]->finished()) wake(i);
    }
    due_now.clear();
    cal.collect_due(t, due_now);
    for (const std::uint32_t i : due_now) {
      if (!cores[i]->finished()) wake(i);
    }
    for (const std::uint32_t i : bp_list) {
      if (due[i] <= t) wake(i);
    }
    if (observer != nullptr) {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!cores[i]->finished()) wake(i);
      }
    }
    std::sort(woken_list.begin(), woken_list.end());
    for (const std::uint32_t i : woken_list) {
      stamp[i] = 0;
      // A completion invalidates the cached action (retirement unblocks, so
      // the core may reach its next record sooner); catch up to the present
      // first so the answered flag lands in a state identical to eager.
      if (!per_core[i].empty()) {
        catch_up(i, t);
        cores[i]->complete(per_core[i]);
      }
      catch_up(i, t);
      cores[i]->tick_mem_cycle(t);
      synced[i] = t + 1;
    }
    mem.tick(t);
    for (const std::uint32_t i : woken_list) {
      if (cores[i]->finished()) {
        --unfinished;
        cal.cancel(i);
        bp_remove(i);
        acts[i].kind = ActionKind::kStalled;
        continue;
      }
      acts[i] = cores[i]->next_action(t + 1);
      if (acts[i].kind == ActionKind::kActs) {
        cal.schedule(i, acts[i].cycle);
        bp_remove(i);
      } else if (acts[i].kind == ActionKind::kBackpressured) {
        cal.cancel(i);
        if (bp_pos[i] == kNpos) {
          bp_pos[i] = static_cast<std::uint32_t>(bp_list.size());
          bp_list.push_back(i);
        }
      } else {  // kStalled: only a read completion can wake it
        cal.cancel(i);
        bp_remove(i);
      }
    }
    // Refresh every backpressured core: its record's channel may have been
    // re-armed this cycle, so its wake is that channel's due. No can_accept
    // probe is needed. A woken core was classified in this memory state. A
    // core not woken has due > t, so its channel could not free capacity
    // on its own before t + 1. A submission of the other op to that
    // channel only delays the blocked one. A hybrid remap moves a record
    // to another channel only in the engine step that injects a request
    // there, which arms that channel at t + 1.
    Cycle bp_min = kNeverCycle;
    for (const std::uint32_t i : bp_list) {
      due[i] = windows ? std::max(mem.accept_event(acts[i].addr), t + 1)
                       : t + 1;
      bp_min = std::min(bp_min, due[i]);
    }
    const Cycle min_due = std::min(cal.min_due(), bp_min);
    Cycle next = t + 1;
    // Every due is > t, so min_due == t + 1 pins the next cycle: neither
    // bound below could move it, and they are not asked.
    if (min_due > next) {
      bool advanced = false;
      if (windows) {
        // Windowed advance: run every channel along its own event chain up
        // to the earliest cycle any core could be disturbed or act. Valid
        // bounds only — during pure write drain with every core stalled or
        // finished, fall through to the event path so the final mem_cycles
        // matches the per-event schedule.
        const Cycle horizon = std::min(mem.completion_bound(t), min_due);
        if (horizon != kNeverCycle &&
            std::min(horizon, max_mem_cycles) > next) {
          next = std::min(horizon, max_mem_cycles);
          mem.advance_channels_to(next);
          advanced = true;
        }
      }
      if (!advanced) {
        const Cycle event = std::min(mem.next_event(t), min_due);
        if (event > next && event != kNeverCycle) {
          next = std::min(event, max_mem_cycles);
        }
      }
    }
    // An observer turns windows off (no channel was advanced), and its next
    // sample lies past t, so the cap keeps next > t.
    if (observer != nullptr) next = std::min(next, observer->next_sample());
    t = next;
  }
  return assemble(mem, cores, t);
}

RunResult run_memory_only_loop(trace::RecordSource& source,
                               const SystemSpec& spec, Cycle max_mem_cycles,
                               bool skip) {
  const auto overrun = [&]() {
    return std::runtime_error("run_memory_only: exceeded max_mem_cycles on " +
                              source.name() + " / " + system_name(spec));
  };
  // A plain system without an observer replays the same schedule on the
  // tile shards, each channel owned by one thread (DESIGN.md §9, §14).
  const auto* plain = std::get_if<sys::SystemConfig>(&spec);
  if (skip && plain != nullptr && !plain->obs.enabled) {
    try {
      return tile::run_head_of_line(source, *plain, max_mem_cycles).run;
    } catch (const tile::CycleLimitExceeded&) {
      throw overrun();
    }
  }
  const std::unique_ptr<sys::MemorySystem> mem_ptr = make_system(spec);
  sys::MemorySystem& mem = *mem_ptr;
  if (!skip) mem.set_eager_ticking(true);
  const bool windows = skip && mem.lazy_scheduling();
  const obs::Observer* const observer = mem.observer();
  source.reset();
  trace::TraceRecord rec;
  bool pending = source.next(rec);
  std::vector<mem::MemRequest> done;

  Cycle t = 0;
  while (pending || !mem.idle()) {
    if (t >= max_mem_cycles) throw overrun();
    mem.drain_completed(done);
    while (pending && mem.can_accept(rec.addr, rec.op)) {
      mem.submit(rec.addr, rec.op, t);
      pending = source.next(rec);
    }
    mem.tick(t);
    Cycle next = t + 1;
    if (skip) {
      const bool blocked = !pending || !mem.can_accept(rec.addr, rec.op);
      if (blocked) {
        bool advanced = false;
        // Windowed advance: the next record is blocked on its target
        // channel, whose can_accept answer can only change at that channel's
        // own tick cycles. advance_until_accept runs the target channel
        // along its event chain until capacity frees and brings every other
        // channel up to the same resume cycle — while blocked no channel
        // receives submissions, so the chains are independent and the
        // result matches the serial per-event schedule bit for bit. After
        // trace exhaustion, stick to the event path so the final drain-out
        // cycle (and hence mem_cycles) matches the per-event schedule.
        if (windows && pending) {
          const Cycle resume =
              mem.advance_until_accept(rec.addr, rec.op, max_mem_cycles);
          if (std::min(resume, max_mem_cycles) > next) {
            next = std::min(resume, max_mem_cycles);
            advanced = true;
          }
        }
        if (!advanced) {
          const Cycle event = mem.next_event(t);
          if (event > next && event != kNeverCycle) {
            next = std::min(event, max_mem_cycles);
          }
        }
        // As in the full-system loop: no skip passes an epoch sample.
        if (observer != nullptr) {
          next = std::min(next, observer->next_sample());
        }
      }
    }
    t = next;
  }
  return finalize(source.name(), mem, t);
}

}  // namespace

// ------------------------------------------------------------ diffs

std::string diff_results(const RunResult& a, const RunResult& b) {
  Differ d;
  if (d.num("instructions", a.instructions, b.instructions) ||
      d.num("cpu_cycles", a.cpu_cycles, b.cpu_cycles) ||
      d.num("mem_cycles", a.mem_cycles, b.mem_cycles) ||
      d.num("reads", a.reads, b.reads) ||
      d.num("writes", a.writes, b.writes) || d.num("ipc", a.ipc, b.ipc) ||
      d.num("avg_read_latency", a.avg_read_latency, b.avg_read_latency) ||
      d.num("p50_read_latency", a.p50_read_latency, b.p50_read_latency) ||
      d.num("p95_read_latency", a.p95_read_latency, b.p95_read_latency) ||
      d.num("p99_read_latency", a.p99_read_latency, b.p99_read_latency) ||
      d.num("fetch_stall_cycles", a.fetch_stall_cycles,
            b.fetch_stall_cycles) ||
      d.num("backpressure_stalls", a.backpressure_stalls,
            b.backpressure_stalls) ||
      d.num("energy.sense_pj", a.energy.sense_pj, b.energy.sense_pj) ||
      d.num("energy.write_pj", a.energy.write_pj, b.energy.write_pj) ||
      d.num("energy.background_pj", a.energy.background_pj,
            b.energy.background_pj) ||
      d.num("banks.acts_for_read", a.banks.acts_for_read,
            b.banks.acts_for_read) ||
      d.num("banks.acts_for_write", a.banks.acts_for_write,
            b.banks.acts_for_write) ||
      d.num("banks.underfetch_acts", a.banks.underfetch_acts,
            b.banks.underfetch_acts) ||
      d.num("banks.reads", a.banks.reads, b.banks.reads) ||
      d.num("banks.writes", a.banks.writes, b.banks.writes) ||
      d.num("banks.bits_sensed", a.banks.bits_sensed, b.banks.bits_sensed) ||
      d.num("banks.bits_written", a.banks.bits_written,
            b.banks.bits_written)) {
    return d.diff();
  }
  d.stats(a.controller, b.controller);
  return d.diff();
}

std::string diff_results(const MultiProgramResult& a,
                         const MultiProgramResult& b) {
  if (a.workloads != b.workloads) return "workload lists differ";
  Differ d;
  if (d.num("mem_cycles", a.mem_cycles, b.mem_cycles) ||
      d.num("energy.sense_pj", a.energy.sense_pj, b.energy.sense_pj) ||
      d.num("energy.write_pj", a.energy.write_pj, b.energy.write_pj) ||
      d.num("energy.background_pj", a.energy.background_pj,
            b.energy.background_pj)) {
    return d.diff();
  }
  for (std::size_t i = 0; i < a.ipc.size(); ++i) {
    if (d.num(("ipc[" + std::to_string(i) + "]").c_str(), a.ipc[i],
              b.ipc[i]) ||
        d.num(("cpu_cycles[" + std::to_string(i) + "]").c_str(),
              a.cpu_cycles[i], b.cpu_cycles[i])) {
      return d.diff();
    }
  }
  d.stats(a.controller, b.controller);
  return d.diff();
}

void fill_read_latency(RunResult& r) {
  r.avg_read_latency = r.controller.distribution("read_latency").mean();
  const Histogram& hist = r.controller.histogram("read_latency_hist");
  r.p50_read_latency = hist.percentile(0.50);
  r.p95_read_latency = hist.percentile(0.95);
  r.p99_read_latency = hist.percentile(0.99);
}

double MultiProgramResult::weighted_speedup(
    const std::vector<double>& alone) const {
  if (alone.size() != ipc.size()) {
    throw std::invalid_argument("weighted_speedup: arity mismatch");
  }
  double ws = 0.0;
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    if (alone[i] > 0) ws += ipc[i] / alone[i];
  }
  return ws;
}

std::vector<double> MultiProgramResult::slowdowns(
    const std::vector<double>& alone) const {
  if (alone.size() != ipc.size()) {
    throw std::invalid_argument("slowdowns: arity mismatch");
  }
  std::vector<double> s(ipc.size(), 0.0);
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    if (alone[i] > 0 && ipc[i] > 0) s[i] = alone[i] / ipc[i];
  }
  return s;
}

double MultiProgramResult::max_slowdown(
    const std::vector<double>& alone) const {
  double m = 0.0;
  for (const double s : slowdowns(alone)) m = std::max(m, s);
  return m;
}

double MultiProgramResult::fairness(const std::vector<double>& alone) const {
  double lo = 0.0, hi = 0.0;
  bool first = true;
  for (const double s : slowdowns(alone)) {
    if (s <= 0) continue;
    lo = first ? s : std::min(lo, s);
    hi = first ? s : std::max(hi, s);
    first = false;
  }
  return hi > 0 ? lo / hi : 0.0;
}

double MultiProgramResult::harmonic_speedup(
    const std::vector<double>& alone) const {
  double sum = 0.0;
  std::size_t counted = 0;
  for (const double s : slowdowns(alone)) {
    if (s <= 0) continue;
    sum += s;
    ++counted;
  }
  return sum > 0 ? static_cast<double>(counted) / sum : 0.0;
}

// ------------------------------------------------------------ entry points

namespace {

/// Runs `loop(skip)` once, skipping events unless `mode` asks for cycle
/// accuracy. Under kAuto with FGNVM_PARANOID set, runs it again as the
/// cycle-accurate reference and throws on any stat difference.
template <typename Loop>
auto checked_run(const Loop& loop, LoopMode mode, const std::string& label) {
  auto r = loop(mode != LoopMode::kCycleAccurate);
  if (mode == LoopMode::kAuto && sched::detail::paranoid_env()) {
    const std::string diff = diff_results(loop(/*skip=*/false), r);
    if (!diff.empty()) {
      throw std::runtime_error("FGNVM_PARANOID: event-skip run of " + label +
                               " diverged from the cycle-accurate loop: " +
                               diff);
    }
  }
  return r;
}

}  // namespace

RunResult run_workload(trace::RecordSource& source, const SystemSpec& spec,
                       const cpu::CpuParams& cpu_params, Cycle max_mem_cycles,
                       LoopMode mode) {
  const std::vector<trace::RecordSource*> sources{&source};
  const std::string label = source.name() + " / " + system_name(spec);
  const auto assemble = [&](sys::MemorySystem& mem, const Cores& cores,
                            Cycle mem_cycles) {
    const cpu::RobCpu& core = *cores.front();
    RunResult r = finalize(source.name(), mem, mem_cycles);
    r.instructions = core.instructions_retired();
    r.cpu_cycles = core.cpu_cycles();
    r.ipc = core.ipc();
    r.fetch_stall_cycles = core.fetch_stall_cycles();
    r.backpressure_stalls = core.mem_backpressure_stalls();
    return r;
  };
  return checked_run(
      [&](bool skip) {
        return run_cores_loop(sources, spec, cpu_params, max_mem_cycles, skip,
                              "run_workload", label, assemble);
      },
      mode, label);
}

RunResult run_workload(const trace::Trace& trace, const SystemSpec& spec,
                       const cpu::CpuParams& cpu_params, Cycle max_mem_cycles,
                       LoopMode mode) {
  trace::TraceSource source(trace);
  return run_workload(source, spec, cpu_params, max_mem_cycles, mode);
}

RunResult run_memory_only(trace::RecordSource& source, const SystemSpec& spec,
                          Cycle max_mem_cycles, LoopMode mode) {
  return checked_run(
      [&](bool skip) {
        return run_memory_only_loop(source, spec, max_mem_cycles, skip);
      },
      mode, source.name() + " / " + system_name(spec) + " (memory-only)");
}

RunResult run_memory_only(const trace::Trace& trace, const SystemSpec& spec,
                          Cycle max_mem_cycles, LoopMode mode) {
  trace::TraceSource source(trace);
  return run_memory_only(source, spec, max_mem_cycles, mode);
}

MultiProgramResult run_multiprogrammed(
    const std::vector<trace::RecordSource*>& sources, const SystemSpec& spec,
    const cpu::CpuParams& cpu_params, Cycle max_mem_cycles, LoopMode mode) {
  if (sources.empty()) {
    throw std::invalid_argument("run_multiprogrammed: no traces");
  }
  const std::string label =
      std::to_string(sources.size()) + " cores / " + system_name(spec);
  const auto assemble = [&](sys::MemorySystem& mem, const Cores& cores,
                            Cycle mem_cycles) {
    MultiProgramResult r;
    r.mem_cycles = mem_cycles;
    r.energy = mem.energy(mem_cycles);
    r.controller = mem.controller_stats();
    for (std::size_t i = 0; i < cores.size(); ++i) {
      r.workloads.push_back(sources[i]->name());
      r.ipc.push_back(cores[i]->ipc());
      r.cpu_cycles.push_back(cores[i]->cpu_cycles());
    }
    mem.finalize_obs(mem_cycles);
    if (obs::Observer* o = mem.observer()) {
      o->set_run_info("multiprogram", mem.config().name);
      o->set_instruction_source(nullptr);  // captures the loop-local cores
    }
    r.obs = mem.observer_ptr();
    return r;
  };
  return checked_run(
      [&](bool skip) {
        return run_cores_loop(sources, spec, cpu_params, max_mem_cycles, skip,
                              "run_multiprogrammed", label, assemble);
      },
      mode, label);
}

MultiProgramResult run_multiprogrammed(const std::vector<trace::Trace>& traces,
                                       const SystemSpec& spec,
                                       const cpu::CpuParams& cpu_params,
                                       Cycle max_mem_cycles, LoopMode mode) {
  std::vector<trace::TraceSource> cursors;
  cursors.reserve(traces.size());
  for (const trace::Trace& t : traces) cursors.emplace_back(t);
  std::vector<trace::RecordSource*> sources;
  sources.reserve(cursors.size());
  for (trace::TraceSource& c : cursors) sources.push_back(&c);
  return run_multiprogrammed(sources, spec, cpu_params, max_mem_cycles, mode);
}

}  // namespace fgnvm::sim

#include "cpu/rob_cpu.hpp"

#include <algorithm>

namespace fgnvm::cpu {

CpuParams CpuParams::from_config(const Config& cfg) {
  CpuParams p;
  p.rob_entries = cfg.get_u64("rob_entries", p.rob_entries);
  p.fetch_width = cfg.get_u64("fetch_width", p.fetch_width);
  p.cpu_per_mem_clock = cfg.get_u64("cpu_per_mem_clock", p.cpu_per_mem_clock);
  return p;
}

RobCpu::RobCpu(trace::RecordSource& source, const CpuParams& params,
               sys::MemorySystem& mem, std::uint64_t hart)
    : src_(&source), params_(params), mem_(mem), hart_(hart) {
  total_insts_ = src_->total_instructions();
  has_cur_ = src_->next(cur_);
  if (has_cur_) next_mem_inst_ = cur_.icount_gap;
}

void RobCpu::complete(const std::vector<mem::MemRequest>& done) {
  for (const mem::MemRequest& r : done) {
    if (!r.is_read() || r.cpu_tag != hart_) continue;
    // loads_ is sorted by request id (ids are allocated monotonically and
    // submitted in program order), so the answered load is a binary search.
    const auto it = std::lower_bound(
        loads_.begin(), loads_.end(), r.id,
        [](const PendingLoad& p, RequestId id) { return p.request < id; });
    if (it != loads_.end() && it->request == r.id) it->answered = true;
  }
}

bool RobCpu::finished() const { return retired_ >= total_insts_; }

double RobCpu::ipc() const {
  return cpu_cycles_ == 0 ? 0.0
                          : static_cast<double>(retired_) /
                                static_cast<double>(cpu_cycles_);
}

void RobCpu::do_retire() {
  // Instructions retire in order up to the commit width; the oldest
  // unanswered load fences retirement at its index.
  while (!loads_.empty() && loads_.front().answered) {
    loads_.pop_front();
  }
  const std::uint64_t fence =
      loads_.empty() ? fetched_ : loads_.front().inst_index;
  const std::uint64_t limit = std::min(fence, fetched_);
  retired_ = std::min(retired_ + params_.fetch_width, limit);
}

void RobCpu::do_fetch(Cycle mem_now) {
  std::uint64_t budget = params_.fetch_width;
  while (budget > 0 && fetched_ < total_insts_) {
    if (fetched_ - retired_ >= params_.rob_entries) {
      ++fetch_stalls_;
      return;  // ROB full
    }
    if (has_cur_ && fetched_ == next_mem_inst_) {
      if (!mem_.can_accept(cur_.addr, cur_.op)) {
        ++backpressure_;
        return;  // memory queue backpressure stalls fetch
      }
      const RequestId id = mem_.submit(cur_.addr, cur_.op, mem_now, hart_);
      if (cur_.op == OpType::kRead) {
        loads_.push_back(PendingLoad{fetched_, id});
      }
      ++fetched_;
      --budget;
      has_cur_ = src_->next(cur_);
      if (has_cur_) {
        next_mem_inst_ = fetched_ + cur_.icount_gap;
      }
      continue;
    }
    // Bulk-fetch plain instructions up to the next memory op.
    const std::uint64_t until_mem =
        has_cur_ ? next_mem_inst_ - fetched_ : total_insts_ - fetched_;
    const std::uint64_t rob_space =
        params_.rob_entries - (fetched_ - retired_);
    const std::uint64_t n = std::min({budget, until_mem, rob_space});
    fetched_ += n;
    budget -= n;
    if (n == 0) return;
  }
}

void RobCpu::run_cpu_cycle(Cycle mem_now) {
  do_retire();
  do_fetch(mem_now);
  ++cpu_cycles_;
}

void RobCpu::tick_mem_cycle(Cycle mem_now) {
  for (std::uint64_t i = 0; i < params_.cpu_per_mem_clock; ++i) {
    if (finished()) return;
    run_cpu_cycle(mem_now);
  }
}

namespace {
// "No fence" / "no further record": larger than any instruction index.
constexpr std::uint64_t kNoFence = ~std::uint64_t{0};
}  // namespace

RobCpu::GapState RobCpu::gap_state() const {
  GapState s;
  s.fetched = fetched_;
  s.retired = retired_;
  s.cpu_cycles = cpu_cycles_;
  s.fetch_stalls = fetch_stalls_;
  s.backpressure = backpressure_;
  s.fence = kNoFence;
  // The fence is the first *unanswered* load: do_retire pops the answered
  // prefix before reading the front, and no flag changes inside a span.
  for (const PendingLoad& p : loads_) {
    if (!p.answered) {
      s.fence = p.inst_index;
      break;
    }
  }
  s.rec_inst = has_cur_ ? next_mem_inst_ : kNoFence;
  return s;
}

RobCpu::GapStop RobCpu::run_gap(GapState& s, std::uint64_t budget,
                                bool assume_backpressure,
                                std::uint64_t& cycles_run) const {
  const std::uint64_t W = params_.fetch_width;
  const std::uint64_t R = params_.rob_entries;
  const std::uint64_t N = total_insts_;
  cycles_run = 0;

  // One exact core cycle: run_cpu_cycle with the record branch hooked.
  // Returns false when the cycle would reach the trace record and
  // `assume_backpressure` is off (nothing committed in that case).
  const auto step = [&]() -> bool {
    s.retired = std::min(s.retired + W, std::min(s.fence, s.fetched));
    std::uint64_t fetch_budget = W;
    while (fetch_budget > 0 && s.fetched < N) {
      if (s.fetched - s.retired >= R) {
        ++s.fetch_stalls;
        break;
      }
      if (s.fetched == s.rec_inst) {
        if (!assume_backpressure) return false;
        ++s.backpressure;
        break;
      }
      const std::uint64_t until_mem =
          std::min(s.rec_inst, N) - s.fetched;
      const std::uint64_t rob_space = R - (s.fetched - s.retired);
      const std::uint64_t n = std::min({fetch_budget, until_mem, rob_space});
      s.fetched += n;
      fetch_budget -= n;
      if (n == 0) break;
    }
    ++s.cpu_cycles;
    ++cycles_run;
    return true;
  };

  while (true) {
    if (s.retired >= N) return GapStop::kFinished;
    if (cycles_run >= budget) return GapStop::kBudget;
    const std::uint64_t rem = budget - cycles_run;
    const std::uint64_t limit = std::min(s.fence, s.fetched);

    if (s.retired >= limit) {
      // Retirement is stuck at the fence; the ROB occupancy seen by fetch is
      // static, so the cycle shape repeats until fetch moves the state.
      if (s.fetched >= N) {
        // Trace exhausted behind an unanswered load: pure cpu_cycles burn.
        if (!assume_backpressure) return GapStop::kStalled;
        s.cpu_cycles += rem;
        cycles_run += rem;
        return GapStop::kBudget;
      }
      if (s.fetched - s.retired >= R) {
        // ROB full behind the fence: one fetch stall per cycle, forever.
        if (!assume_backpressure) return GapStop::kStalled;
        s.cpu_cycles += rem;
        s.fetch_stalls += rem;
        cycles_run += rem;
        return GapStop::kBudget;
      }
      if (s.fetched == s.rec_inst) {
        // Parked at the record with retirement stuck.
        if (!assume_backpressure) return GapStop::kRecord;
        s.cpu_cycles += rem;
        s.backpressure += rem;
        cycles_run += rem;
        return GapStop::kBudget;
      }
      // Fetch-only streaming: W clean instructions per cycle while neither
      // the record/trace end nor the ROB cap is within one fetch.
      const std::uint64_t L =
          std::min({rem, (std::min(s.rec_inst, N) - s.fetched) / W,
                    (R - (s.fetched - s.retired)) / W});
      if (L == 0) {
        if (!step()) return GapStop::kRecord;
        continue;
      }
      s.fetched += W * L;
      s.cpu_cycles += L;
      cycles_run += L;
      continue;
    }

    // Retirement progressing. Bulk the steady phase where both retire and
    // fetch move a full W per cycle with no counters: needs a full-W retire
    // (r + W within the fence and at or below the pre-fetch fetched_ — the
    // gap between them is then invariant) and a full-W clean fetch (at
    // least W instructions before the record/trace end; the ROB can never
    // bind, since occupancy is invariant and already at most R).
    const std::uint64_t T = std::min(s.rec_inst, N);
    if (s.retired + W <= limit && T >= s.fetched + W) {
      std::uint64_t L = std::min(rem, (T - s.fetched) / W);
      if (s.fence != kNoFence) {
        L = std::min(L, (s.fence - s.retired) / W);
      } else {
        // limit == fetched_: full retire needs r + W <= f at every cycle,
        // and both advance W, so the entry check covers the whole run.
      }
      if (L >= 1) {
        s.retired += W * L;
        s.fetched += W * L;
        s.cpu_cycles += L;
        cycles_run += L;
        continue;
      }
    }
    if (!step()) return GapStop::kRecord;
  }
}

RobCpu::Action RobCpu::next_action(Cycle now) const {
  Action a;
  if (finished()) return a;  // kStalled/kNeverCycle: the core is inert
  GapState s = gap_state();
  std::uint64_t run = 0;
  const GapStop stop =
      run_gap(s, kNoFence, /*assume_backpressure=*/false, run);
  const std::uint64_t k = params_.cpu_per_mem_clock;
  switch (stop) {
    case GapStop::kRecord: {
      a.cycle = now + run / k;
      if (a.cycle == now) {
        // The attempt happens this very memory cycle, so the queue-full
        // answer is decided by the memory state as of now: classify it.
        if (!mem_.can_accept(cur_.addr, cur_.op)) {
          a.kind = ActionKind::kBackpressured;
          a.addr = cur_.addr;
          a.op = cur_.op;
          return a;
        }
      }
      a.kind = ActionKind::kActs;
      return a;
    }
    case GapStop::kFinished:
      // cycles_run includes the finishing cycle; wake the driver at the
      // memory cycle containing it so finished() flips under a real tick.
      a.cycle = now + (run - 1) / k;
      a.kind = ActionKind::kActs;
      return a;
    case GapStop::kStalled:
      return a;
    case GapStop::kBudget:
      break;  // unreachable: the budget is unbounded
  }
  return a;
}

void RobCpu::advance_to(Cycle now, Cycle target) {
  if (target <= now || finished()) return;
  // The first do_retire of the span pops the answered prefix; doing it here
  // keeps loads_ consistent with the scalar image run_gap evolves.
  while (!loads_.empty() && loads_.front().answered) loads_.pop_front();
  GapState s = gap_state();
  std::uint64_t run = 0;
  run_gap(s, (target - now) * params_.cpu_per_mem_clock,
          /*assume_backpressure=*/true, run);
  fetched_ = s.fetched;
  retired_ = s.retired;
  cpu_cycles_ = s.cpu_cycles;
  fetch_stalls_ = s.fetch_stalls;
  backpressure_ = s.backpressure;
}

}  // namespace fgnvm::cpu

#include "tile/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace fgnvm::tile {

namespace {

/// Pop attempts on an empty ring before yielding the core. Small: on a
/// single-core host the producer cannot make progress while we spin.
constexpr int kSpinLimit = 64;

/// Commands drained per try_pop_n batch in the worker loop.
constexpr std::size_t kCmdBatch = 64;

/// Chain cycles a threaded head-of-line walk advances between two
/// publications of its position.
constexpr Cycle kMarkStride = 2;

Cycle add_sat(Cycle a, Cycle b) {
  return a > kNeverCycle - b ? kNeverCycle : a + b;
}

}  // namespace

Shard::Shard(std::uint32_t index, std::size_t ring_capacity, Cycle max_cycles)
    : index_(index),
      max_cycles_(max_cycles),
      ingress_(ring_capacity),
      egress_(ring_capacity) {}

void Shard::add_channel(std::unique_ptr<sched::ControllerBase> ctrl,
                        std::uint32_t global_ch) {
  Channel c;
  c.ctrl = std::move(ctrl);
  c.global_ch = global_ch;
  c.departed = std::make_unique<Departures>();
  chan_.push_back(std::move(c));
}

void Shard::run() {
  // Batched ingress drain: one fseq release store acknowledges the whole
  // batch, so a saturated producer sees the consumer's cache line ping once
  // per kCmdBatch commands instead of once per command.
  TileCmd batch[kCmdBatch];
  int spins = 0;
  SpinBudget idle;
  bool stopping = false;
  while (!stopping && !stop_.load(std::memory_order_relaxed)) {
    if (!try_claim()) {
      // The coordinator is running this shard's commands (head-of-line
      // mode, see Topology::run_claimed).
      std::this_thread::yield();
      continue;
    }
    // The horizon is loaded before the ring is checked: a command the
    // coordinator pushed before the horizon rose past its not_before is
    // then visible below, so no channel runs ahead of a pending submit.
    const Cycle horizon =
        horizon_ != nullptr ? horizon_->load(std::memory_order_acquire) : 0;
    const std::size_t got = ingress_.try_pop_n(batch, kCmdBatch);
    const bool worked = got > 0 || horizon > reached_;
    if (got > 0) {
      for (std::size_t i = 0; i < got; ++i) {
        if (batch[i].kind == TileCmd::Kind::kStop) {
          // kStop is the last command the coordinator ever pushes; anything
          // popped after it in this batch is undefined traffic and dropped.
          stopping = true;
          break;
        }
        handle(batch[i]);
      }
    } else if (horizon > reached_) {
      advance_to_horizon(horizon);
    }
    release_claim();
    if (worked) {
      spins = 0;
      idle.reset();
      continue;
    }
    cpu_relax();
    if (++spins >= kSpinLimit) {
      spins = 0;
      if (idle.yield_then_expired()) {
        // The coordinator rings after every push; a parked head-of-line
        // worker skips the horizon and catches up at its next command.
        doorbell_.park([&] { return !ingress_.empty() || stop_requested(); });
        idle.reset();
      }
    }
  }
}

std::size_t Shard::process_pending() {
  std::size_t handled = 0;
  TileCmd cmd;
  while (ingress_.try_pop(cmd)) {
    ++handled;
    if (cmd.kind == TileCmd::Kind::kStop) break;
    handle(cmd);
  }
  return handled;
}

void Shard::handle(const TileCmd& cmd) {
  switch (cmd.kind) {
    case TileCmd::Kind::kSubmit:
      handle_submit(cmd);
      break;
    case TileCmd::Kind::kFlush: {
      flush_channels();
      TileEvt evt;
      evt.kind = TileEvt::Kind::kFlushDone;
      evt.channel = index_;  // flush acks carry the shard, not a channel
      evt.tag = cmd.tag;
      push_evt(evt);
      break;
    }
    case TileCmd::Kind::kStop:
      break;  // handled by the callers' loops
  }
}

void Shard::handle_submit(const TileCmd& cmd) {
  Channel& c = chan_.at(cmd.local_ch);

  // The request enters the channel's timeline no earlier than its own clock
  // (per-channel time is monotone) and the client's not_before.
  Cycle t = cmd.not_before > c.clock ? cmd.not_before : c.clock;

  // Run the channel's event chain up to t — the exact ticks the serial
  // event-skipping loop would execute before a submission at t.
  if (c.due < t) {
    c.due = c.ctrl->advance_to(c.due, t);
  }

  // Backpressure: walk the chain until the channel frees capacity.
  // advance_until_accept returns the cycle after the capacity-freeing tick;
  // a blocked channel always has in-flight work, so a dead chain
  // (kNeverCycle) here means a wedged controller, and reaching max_cycles_
  // means the run overflowed.
  if (!c.ctrl->can_accept(cmd.op)) {
    const Cycle resume = walk_until_accept(c, cmd.op);
    if (resume == kNeverCycle || resume >= max_cycles_) {
      throw CycleLimitExceeded(
          "tile::Shard: channel never accepted a request (max_cycles hit)");
    }
    c.due = resume;
    if (resume > t) t = resume;
  }
  if (hol_ && !cmd.ask && t != cmd.not_before) {
    // The coordinator's credits promised acceptance at not_before; a later
    // cycle would silently shift every later submission.
    throw std::logic_error(
        "tile::Shard: a head-of-line submit without an ask was not accepted "
        "at its cycle");
  }

  mem::MemRequest req;
  req.id = cmd.id;
  req.op = cmd.op;
  req.addr = cmd.addr;
  req.cpu_tag = cmd.tag;
  c.ctrl->enqueue(req, t);  // stamps arrival = t and the sched_seq

  // The serial loop ticks at the submission cycle (a request may issue the
  // cycle it arrives), so arm the chain there. t <= c.due always holds.
  c.due = t;
  c.clock = t;

  ++metrics_.ops;
  if (cmd.op == OpType::kRead) {
    ++metrics_.reads;
    ++c.entered_reads;
  } else {
    ++metrics_.writes;
    ++c.entered_writes;
  }
  publish_completions(c);
  if (!hol_) return;
  publish_departures(c);
  if (cmd.ask) ++metrics_.asks;
}

Cycle Shard::walk_until_accept(Channel& c, OpType op) {
  if (horizon_ == nullptr) {
    return c.ctrl->advance_until_accept(c.due, op, max_cycles_);
  }
  // Every chain cycle below the walk's position ticked without freeing
  // capacity, so the coordinator's next submission cycle is at least that
  // position: the other shards may run their channels up to it while the
  // walk goes on. A walk split at intermediate horizons ticks exactly the
  // cycles of one walk.
  Cycle pos = c.due;
  for (;;) {
    pos = c.ctrl->advance_until_accept(
        pos, op, std::min(max_cycles_, add_sat(pos, kMarkStride)));
    if (pos >= max_cycles_ || c.ctrl->can_accept(op)) return pos;
    horizon_->store(pos, std::memory_order_release);
    ++metrics_.marks;
  }
}

void Shard::advance_to_horizon(Cycle horizon) {
  for (Channel& c : chan_) {
    if (c.due < horizon) {
      c.due = c.ctrl->advance_to(c.due, horizon);
      publish_completions(c);
      publish_departures(c);
    }
  }
  reached_ = horizon;
  ++metrics_.horizon_advances;
}

void Shard::publish_departures(const Channel& c) {
  c.departed->reads.store(c.entered_reads - c.ctrl->pending_reads(),
                          std::memory_order_relaxed);
  c.departed->writes.store(c.entered_writes - c.ctrl->write_queue().size(),
                           std::memory_order_relaxed);
}

void Shard::flush_channels() {
  for (Channel& c : chan_) {
    // Step the chain one event at a time so the channel's exact death cycle
    // is observed: end = last executed tick + 1 is this channel's
    // contribution to mem_cycles. The tail is bounded by the queue caps.
    while (c.due != kNeverCycle) {
      if (c.due >= max_cycles_) {
        throw CycleLimitExceeded(
            "tile::Shard: channel did not drain before max_cycles");
      }
      c.end = c.due + 1;
      c.due = c.ctrl->advance_to(c.due, c.due + 1);
    }
    if (c.end > c.clock) c.clock = c.end;
    publish_completions(c);
  }
}

void Shard::publish_completions(Channel& c) {
  done_.clear();
  c.ctrl->drain_completed(done_);  // appends (controller-level contract)
  if (hol_) return;  // head-of-line replays keep no completion stream
  for (const mem::MemRequest& r : done_) {
    TileEvt evt;
    evt.kind = TileEvt::Kind::kCompletion;
    evt.channel = c.global_ch;
    evt.id = r.id;
    evt.tag = r.cpu_tag;
    evt.submitted = r.arrival;
    evt.completed = r.completion;
    push_evt(evt);
    ++metrics_.completions;
  }
}

void Shard::push_evt(const TileEvt& evt) {
  int spins = 0;
  while (!egress_.try_push(evt)) {
    // Teardown valve: once the coordinator requested an emergency stop
    // nobody drains egress anymore, so blocking here would wedge join().
    // Dropping the event is fine — the topology is being destroyed.
    if (stop_.load(std::memory_order_relaxed)) return;
    if (drain_hook_) {
      drain_hook_();  // serial mode: the coordinator empties its own ring
    } else {
      cpu_relax();
      if (++spins >= kSpinLimit) {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }
}

}  // namespace fgnvm::tile

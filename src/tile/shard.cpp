#include "tile/shard.hpp"

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
  chan_.push_back(std::move(c));
}

void Shard::run() {
  // Batched ingress drain: one fseq release store acknowledges the whole
  // batch, so a saturated producer sees the consumer's cache line ping once
  // per kCmdBatch commands instead of once per command.
  TileCmd batch[kCmdBatch];
  int spins = 0;
  bool stopping = false;
  while (!stopping) {
    if (stop_.load(std::memory_order_relaxed)) break;
    const std::size_t got = ingress_.try_pop_n(batch, kCmdBatch);
    if (got > 0) {
      spins = 0;
      const std::uint64_t depth =
          static_cast<std::uint64_t>(ingress_.size()) + got;
      if (depth > metrics_.ingress_peak) metrics_.ingress_peak = depth;
      for (std::size_t i = 0; i < got; ++i) {
        if (batch[i].kind == TileCmd::Kind::kStop) {
          // kStop is the last command the coordinator ever pushes; anything
          // popped after it in this batch is undefined traffic and dropped.
          ++metrics_.cmds;
          stopping = true;
          break;
        }
        handle(batch[i]);
      }
    } else {
      ++metrics_.ingress_empty;
      ++metrics_.idle_spins;
      cpu_relax();
      if (++spins >= kSpinLimit) {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }
}

std::size_t Shard::process_pending() {
  std::size_t handled = 0;
  TileCmd cmd;
  while (ingress_.try_pop(cmd)) {
    ++handled;
    if (cmd.kind == TileCmd::Kind::kStop) {
      ++metrics_.cmds;
      break;
    }
    handle(cmd);
  }
  return handled;
}

void Shard::handle(const TileCmd& cmd) {
  ++metrics_.cmds;
  switch (cmd.kind) {
    case TileCmd::Kind::kSubmit:
      handle_submit(cmd);
      break;
    case TileCmd::Kind::kFlush: {
      flush_channels();
      ++metrics_.flushes;
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
    ++metrics_.advance_calls;
  }

  // Backpressure: walk the chain until the channel frees capacity.
  // advance_until_accept returns the cycle after the capacity-freeing tick;
  // a blocked channel always has in-flight work, so a dead chain
  // (kNeverCycle) here means a wedged controller, and reaching max_cycles_
  // means the run overflowed.
  if (!c.ctrl->can_accept(cmd.op)) {
    const Cycle resume = c.ctrl->advance_until_accept(c.due, cmd.op,
                                                      max_cycles_);
    ++metrics_.advance_calls;
    if (resume == kNeverCycle || resume >= max_cycles_) {
      throw std::runtime_error(
          "tile::Shard: channel never accepted a request (max_cycles hit)");
    }
    c.due = resume;
    if (resume > t) t = resume;
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
  } else {
    ++metrics_.writes;
  }
  publish_completions(c);
}

void Shard::flush_channels() {
  for (Channel& c : chan_) {
    // Step the chain one event at a time so the channel's exact death cycle
    // is observed: end = last executed tick + 1 is this channel's
    // contribution to mem_cycles. The tail is bounded by the queue caps.
    while (c.due != kNeverCycle) {
      if (c.due >= max_cycles_) {
        throw std::runtime_error(
            "tile::Shard: channel did not drain before max_cycles");
      }
      c.end = c.due + 1;
      c.due = c.ctrl->advance_to(c.due, c.due + 1);
      ++metrics_.advance_calls;
    }
    if (c.end > c.clock) c.clock = c.end;
    publish_completions(c);
  }
}

void Shard::publish_completions(Channel& c) {
  done_.clear();
  c.ctrl->drain_completed(done_);  // appends (controller-level contract)
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
  if (egress_.try_push(evt)) return;
  ++metrics_.egress_stalls;
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

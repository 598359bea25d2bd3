#include "tile/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/sweep.hpp"

namespace fgnvm::tile {

Topology::Topology(const sys::SystemConfig& cfg, const TopologyConfig& tcfg)
    : cfg_(cfg),
      tcfg_(tcfg),
      decoder_(cfg.geometry, cfg.mapping),
      energy_model_(cfg.energy) {
  const std::uint64_t channels = cfg_.geometry.channels;
  if (channels == 0) {
    throw std::invalid_argument("tile::Topology: config has zero channels");
  }
  if (cfg_.obs.enabled) {
    throw std::invalid_argument(
        "tile::Topology: request tracing (obs) is not supported; use the sim "
        "runners for traced experiments");
  }
  std::uint64_t n = sim::clamp_thread_count(tcfg_.shards, "tile.shards");
  if (n > channels) n = channels;
  tcfg_.shards = n;

  route_.resize(channels);
  const std::uint64_t base = channels / n;
  const std::uint64_t rem = channels % n;
  std::uint64_t ch = 0;
  for (std::uint64_t s = 0; s < n; ++s) {
    auto shard = std::make_unique<Shard>(static_cast<std::uint32_t>(s),
                                         tcfg_.ring_capacity,
                                         tcfg_.max_cycles);
    const std::uint64_t take = base + (s < rem ? 1 : 0);
    for (std::uint64_t k = 0; k < take; ++k, ++ch) {
      shard->add_channel(
          sys::make_channel_controller(cfg_.bank_kind, cfg_.geometry,
                                       cfg_.timing, cfg_.controller,
                                       cfg_.modes),
          static_cast<std::uint32_t>(ch));
      route_[ch] = Route{static_cast<std::uint32_t>(s),
                         static_cast<std::uint32_t>(k)};
    }
    if (!tcfg_.worker_threads) {
      shard->set_egress_drain_hook([this] { drain_egress(); });
    }
    shards_.push_back(std::move(shard));
  }
  errors_.resize(n);
  failed_.reset(new std::atomic<bool>[n]);
  for (std::uint64_t s = 0; s < n; ++s) {
    failed_[s].store(false, std::memory_order_relaxed);
  }
}

Topology::~Topology() {
  if (threads_.empty()) return;
  // finish() was never reached (early destruction, or exception unwind out
  // of flush()/submit() with healthy workers mid-publish). No ring traffic:
  // request_stop() makes every worker — healthy, parked-after-failure, or
  // blocked in push_evt on a full egress ring — exit its loop, so join()
  // cannot wedge on a consumer that no longer exists.
  for (auto& shard : shards_) shard->request_stop();
  for (std::thread& th : threads_) {
    if (th.joinable()) th.join();
  }
}

void Topology::start() {
  if (started_) throw std::logic_error("tile::Topology: start() called twice");
  started_ = true;
  if (!tcfg_.worker_threads) return;
  threads_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_body(i); });
  }
}

void Topology::worker_body(std::size_t i) {
  try {
    shards_[i]->run();
    return;
  } catch (...) {
    errors_[i] = std::current_exception();
    failed_[i].store(true, std::memory_order_release);
  }
  // Keep the rings flowing after a failure so the coordinator's blocking
  // loops never wedge: discard submits, ack flushes, exit on stop (the
  // kStop command or an emergency request_stop). The stored exception
  // surfaces at the next flush()/finish().
  TileCmd cmd;
  while (!shards_[i]->stop_requested()) {
    if (!shards_[i]->ingress().try_pop(cmd)) {
      std::this_thread::yield();
      continue;
    }
    if (cmd.kind == TileCmd::Kind::kStop) break;
    if (cmd.kind == TileCmd::Kind::kFlush) {
      TileEvt ack;
      ack.kind = TileEvt::Kind::kFlushDone;
      ack.channel = static_cast<std::uint32_t>(i);
      ack.tag = cmd.tag;
      while (!shards_[i]->egress().try_push(ack)) {
        if (shards_[i]->stop_requested()) return;  // teardown: drop the ack
        std::this_thread::yield();
      }
    }
  }
}

void Topology::push_cmd(std::size_t shard, const TileCmd& cmd) {
  while (!shards_[shard]->ingress().try_push(cmd)) make_progress();
  shards_[shard]->doorbell().ring();
}

void Topology::drain_egress() {
  TileEvt evt;
  for (auto& shard : shards_) {
    while (shard->egress().try_pop(evt)) {
      if (evt.kind == TileEvt::Kind::kFlushDone) {
        ++flush_acks_;
      } else {
        ready_.push_back(Completion{evt.channel, evt.id, evt.tag,
                                    evt.submitted, evt.completed});
      }
    }
  }
}

void Topology::make_progress() {
  if (!tcfg_.worker_threads) {
    for (auto& shard : shards_) shard->process_pending();
    drain_egress();
    return;
  }
  drain_egress();
  rethrow_worker_error();
  std::this_thread::yield();
}

void Topology::rethrow_worker_error() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (failed_[i].load(std::memory_order_acquire)) {
      std::rethrow_exception(errors_[i]);
    }
  }
}

Cycle Topology::run_claimed(std::size_t shard, std::uint32_t local) {
  Shard& s = *shards_[shard];
  if (!tcfg_.worker_threads) {
    s.process_pending();
    return s.channels()[local].clock;
  }
  // A worker that threw keeps its claim; its error ends the wait.
  while (!s.try_claim()) {
    rethrow_worker_error();
    std::this_thread::yield();
  }
  s.process_pending();
  const Cycle clock = s.channels()[local].clock;
  s.release_claim();
  return clock;
}

void Topology::push_replay_cmd(std::size_t shard, const TileCmd& cmd) {
  while (!shards_[shard]->ingress().try_push(cmd)) {
    run_claimed(shard, cmd.local_ch);
  }
  shards_[shard]->doorbell().ring();
}

bool Topology::try_submit(Addr addr, OpType op, std::uint64_t tag,
                          Cycle not_before, RequestId* id_out) {
  if (!started_ || finished_) {
    throw std::logic_error("tile::Topology: submit outside start()..finish()");
  }
  const mem::DecodedAddr d = decoder_.decode(addr);
  const Route r = route_.at(d.channel);
  TileCmd cmd;
  cmd.kind = TileCmd::Kind::kSubmit;
  cmd.op = op;
  cmd.local_ch = r.local;
  cmd.id = next_id_;
  cmd.tag = tag;
  cmd.not_before = not_before;
  cmd.addr = d;
  if (!shards_[r.shard]->ingress().try_push(cmd)) return false;
  shards_[r.shard]->doorbell().ring();
  ++next_id_;
  if (op == OpType::kRead) {
    ++reads_;
  } else {
    ++writes_;
  }
  if (id_out) *id_out = cmd.id;
  return true;
}

RequestId Topology::submit(Addr addr, OpType op, std::uint64_t tag,
                           Cycle not_before) {
  RequestId id = 0;
  while (!try_submit(addr, op, tag, not_before, &id)) make_progress();
  return id;
}

std::size_t Topology::try_submit_batch(SubmitItem* items, std::size_t n) {
  if (!started_ || finished_) {
    throw std::logic_error("tile::Topology: submit outside start()..finish()");
  }
  stage_cmds_.resize(shards_.size());
  stage_idx_.resize(shards_.size());
  for (auto& v : stage_cmds_) v.clear();
  for (auto& v : stage_idx_) v.clear();

  // Stage in stream order: per-channel FIFO inside each shard's staging
  // vector, because channel -> shard routing is fixed.
  for (std::size_t i = 0; i < n; ++i) {
    items[i].accepted = false;
    items[i].id = 0;
    const mem::DecodedAddr d = decoder_.decode(items[i].addr);
    const Route r = route_.at(d.channel);
    TileCmd cmd;
    cmd.kind = TileCmd::Kind::kSubmit;
    cmd.op = items[i].op;
    cmd.local_ch = r.local;
    cmd.tag = items[i].tag;
    cmd.not_before = items[i].not_before;
    cmd.addr = d;
    stage_cmds_[r.shard].push_back(cmd);
    stage_idx_[r.shard].push_back(i);
  }

  std::size_t accepted = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& cmds = stage_cmds_[s];
    if (cmds.empty()) continue;
    // Ids are assigned immediately before the push and next_id_ advances
    // only by the admitted prefix, so the rejected tail's ids were never
    // published anywhere and are simply reissued later — no gaps, no reuse
    // of a live id.
    for (std::size_t k = 0; k < cmds.size(); ++k) {
      cmds[k].id = next_id_ + static_cast<RequestId>(k);
    }
    const std::size_t pushed =
        shards_[s]->ingress().try_push_n(cmds.data(), cmds.size());
    if (pushed > 0) shards_[s]->doorbell().ring();
    next_id_ += pushed;
    for (std::size_t k = 0; k < pushed; ++k) {
      SubmitItem& it = items[stage_idx_[s][k]];
      it.accepted = true;
      it.id = cmds[k].id;
      if (it.op == OpType::kRead) {
        ++reads_;
      } else {
        ++writes_;
      }
    }
    accepted += pushed;
  }
  return accepted;
}

std::uint64_t Topology::ring_free(Addr addr) {
  const mem::DecodedAddr d = decoder_.decode(addr);
  const Route r = route_.at(d.channel);
  SpscRing<TileCmd>& ring = shards_[r.shard]->ingress();
  return ring.capacity() - ring.size();
}

std::size_t Topology::poll_completions(std::vector<Completion>& out) {
  drain_egress();
  const std::size_t n = ready_.size();
  out.insert(out.end(), ready_.begin(), ready_.end());
  ready_.clear();
  return n;
}

void Topology::flush() {
  if (!started_ || finished_) {
    throw std::logic_error("tile::Topology: flush outside start()..finish()");
  }
  flush_acks_ = 0;
  TileCmd cmd;
  cmd.kind = TileCmd::Kind::kFlush;
  for (std::size_t s = 0; s < shards_.size(); ++s) push_cmd(s, cmd);
  while (flush_acks_ < shards_.size()) make_progress();
  rethrow_worker_error();
}

sim::RunResult Topology::finish(const std::string& workload) {
  flush();
  TileCmd stop;
  stop.kind = TileCmd::Kind::kStop;
  for (std::size_t s = 0; s < shards_.size(); ++s) push_cmd(s, stop);
  if (tcfg_.worker_threads) {
    for (std::thread& th : threads_) th.join();
    threads_.clear();
  } else {
    for (auto& shard : shards_) shard->process_pending();
  }
  drain_egress();
  rethrow_worker_error();
  finished_ = true;

  // Channel-order merge: identical fold order to MemorySystem::energy /
  // bank_totals / controller_stats, so the result is bit-comparable against
  // the serial reference (shards own contiguous channel ranges, so visiting
  // shards in order visits channels in global order).
  sim::RunResult r;
  r.workload = workload;
  r.config = cfg_.name;
  r.reads = reads_;
  r.writes = writes_;
  for (const auto& shard : shards_) {
    for (const Shard::Channel& c : shard->channels()) {
      if (c.end > r.mem_cycles) r.mem_cycles = c.end;
    }
  }
  for (const auto& shard : shards_) {
    for (const Shard::Channel& c : shard->channels()) {
      r.energy += c.ctrl->energy(energy_model_, r.mem_cycles);
      r.banks += c.ctrl->bank_totals();
      r.controller.merge(c.ctrl->stats());
    }
  }
  sim::fill_read_latency(r);
  return r;
}

Cycle Topology::drained_cycles() const {
  Cycle end = 0;
  for (const auto& shard : shards_) {
    for (const Shard::Channel& c : shard->channels()) {
      if (c.end > end) end = c.end;
    }
  }
  return end;
}

std::vector<ShardMetrics> Topology::shard_metrics() const {
  std::vector<ShardMetrics> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->metrics());
  return out;
}

sim::RunResult Topology::replay_head_of_line(trace::RecordSource& source) {
  for (auto& shard : shards_) {
    shard->follow_head_of_line(tcfg_.worker_threads ? &horizon_.cycle
                                                    : nullptr);
  }
  start();
  // Credits (DESIGN.md §14): per channel and op, the requests sent minus
  // the departures the shard last published bound the queue's occupancy
  // from above — a queue only drains between two submissions — so while
  // that bound is below the cap the record is accepted at `now` and the
  // coordinator need not wait for it.
  struct Credit {
    std::uint64_t sent[2] = {0, 0};
    std::uint64_t departed[2] = {0, 0};
  };
  std::vector<Credit> credits(channels());
  const std::uint64_t caps[2] = {cfg_.controller.read_queue_cap,
                                 cfg_.controller.write_queue_cap};
  source.reset();
  trace::TraceRecord rec;
  Cycle now = 0;  // the submission cycle of the previous record
  while (source.next(rec)) {
    const mem::DecodedAddr d = decoder_.decode(rec.addr);
    const Route r = route_[d.channel];
    const int k = rec.op == OpType::kRead ? 0 : 1;
    Credit& credit = credits[d.channel];
    bool ask = credit.sent[k] - credit.departed[k] >= caps[k];
    if (ask) {
      credit.departed[k] = shards_[r.shard]->departed(r.local, rec.op);
      ask = credit.sent[k] - credit.departed[k] >= caps[k];
    }
    TileCmd cmd;
    cmd.kind = TileCmd::Kind::kSubmit;
    cmd.op = rec.op;
    cmd.ask = ask;
    cmd.local_ch = r.local;
    cmd.id = next_id_++;
    cmd.not_before = now;
    cmd.addr = d;
    push_replay_cmd(r.shard, cmd);
    ++credit.sent[k];
    ++(rec.op == OpType::kRead ? reads_ : writes_);
    if (ask) {
      now = run_claimed(r.shard, r.local);
      // Released after every command with an earlier not_before was
      // pushed: a shard that reads this horizon also sees those commands.
      horizon_.cycle.store(now, std::memory_order_release);
    }
  }
  return finish(source.name());
}

HeadOfLineRun run_head_of_line(trace::RecordSource& source,
                               const sys::SystemConfig& cfg,
                               Cycle max_cycles) {
  const std::uint64_t channels = cfg.geometry.channels;
  TopologyConfig tcfg;
  // A sweep item leaves the cores to the sweep.
  tcfg.shards = sim::SweepRunner::in_item()
                    ? 1
                    : std::min<std::uint64_t>(channels,
                                              sim::sweep_thread_count());
  tcfg.worker_threads = tcfg.shards > 1;
  // The coordinator rarely runs more than a few dozen commands ahead of a
  // shard before an ask stops it, and a full ring only makes it wait for
  // the shard it would wait for anyway; small rings keep the replay's
  // footprint near the serial loop's.
  tcfg.ring_capacity = 64;
  tcfg.max_cycles = max_cycles;
  Topology topo(cfg, tcfg);
  HeadOfLineRun out;
  out.run = topo.replay_head_of_line(source);
  out.shards = topo.shard_metrics();
  out.threaded = topo.threaded();
  return out;
}

namespace {

ShardedRunResult run_sharded_once(const trace::Trace& trace,
                                  const sys::SystemConfig& cfg,
                                  const TopologyConfig& tcfg) {
  Topology topo(cfg, tcfg);
  topo.start();
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    topo.submit(trace.records[i].addr, trace.records[i].op,
                /*tag=*/static_cast<std::uint64_t>(i));
  }
  topo.flush();
  std::vector<Completion> got;
  topo.poll_completions(got);

  ShardedRunResult out;
  out.run = topo.finish(trace.name);
  out.shards = topo.shard_metrics();

  // Deterministic merge: per-channel completion order is a function of that
  // channel's request subsequence alone; concatenating the channel buckets
  // in global order removes the thread-timing interleave.
  std::vector<std::vector<Completion>> buckets(topo.channels());
  for (const Completion& c : got) buckets.at(c.channel).push_back(c);
  for (const auto& bucket : buckets) {
    out.completions.insert(out.completions.end(), bucket.begin(),
                           bucket.end());
  }
  return out;
}

}  // namespace

ShardedRunResult run_sharded(const trace::Trace& trace,
                             const sys::SystemConfig& cfg,
                             const TopologyConfig& tcfg) {
  ShardedRunResult got = run_sharded_once(trace, cfg, tcfg);
  const bool is_reference = !tcfg.worker_threads && tcfg.shards <= 1;
  if (sched::detail::paranoid_env() && !is_reference) {
    TopologyConfig ref = tcfg;
    ref.shards = 1;
    ref.worker_threads = false;
    const ShardedRunResult want = run_sharded_once(trace, cfg, ref);
    const std::string diff = diff_sharded(got, want);
    if (!diff.empty()) {
      throw std::runtime_error(
          "FGNVM_PARANOID: sharded run of " + trace.name +
          " diverged from the serial tile reference: " + diff);
    }
  }
  return got;
}

std::string diff_sharded(const ShardedRunResult& a,
                         const ShardedRunResult& b) {
  const std::string d = sim::diff_results(a.run, b.run);
  if (!d.empty()) return d;
  if (a.completions.size() != b.completions.size()) {
    return "completion counts differ: " +
           std::to_string(a.completions.size()) + " vs " +
           std::to_string(b.completions.size());
  }
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    if (!(a.completions[i] == b.completions[i])) {
      return "completion[" + std::to_string(i) + "] differs (channel " +
             std::to_string(a.completions[i].channel) + ", id " +
             std::to_string(a.completions[i].id) + " vs channel " +
             std::to_string(b.completions[i].channel) + ", id " +
             std::to_string(b.completions[i].id) + ")";
    }
  }
  return "";
}

}  // namespace fgnvm::tile

// Tile topology: N shard workers + a coordinator-side merge stage
// (DESIGN.md §14).
//
// The topology owns one Shard per worker, partitions the system's channels
// contiguously across them, and routes decoded requests to the owning
// shard's ingress ring. Each channel runs on its own clock inside its
// shard (see shard.hpp), so simulated state and stats depend only on the
// per-channel request subsequences — byte-identical results at any shard
// count, which run_sharded() proves on demand against an inline serial
// reference (FGNVM_PARANOID, or the equivalence tests).
//
// Two modes share all of the code:
//  * worker_threads=true  — one std::thread per shard consuming its ring.
//  * worker_threads=false — the serial reference: the coordinator runs
//    Shard::process_pending inline; command order (hence everything) is
//    identical, no threads exist.
//
// replay_head_of_line() drives the same shards with one global submission
// cycle instead: the event-skip engine of sim::run_memory_only.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "mem/geometry.hpp"
#include "nvm/energy.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "tile/shard.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace fgnvm::tile {

struct TopologyConfig {
  /// Worker shards. Validated through sim::clamp_thread_count and capped by
  /// the channel count (a shard must own at least one channel).
  std::uint64_t shards = 1;
  /// False runs every shard inline on the caller's thread — the serial
  /// reference schedule the paranoid cross-check compares against.
  bool worker_threads = true;
  /// Slots per ring (power of two >= 2); one ingress + one egress per shard.
  std::size_t ring_capacity = 1024;
  /// Deadlock guard, as in the sim runners.
  Cycle max_cycles = 500'000'000;
};

/// A read completion as delivered to topology clients.
struct Completion {
  std::uint32_t channel = 0;
  RequestId id = 0;
  std::uint64_t tag = 0;
  Cycle submitted = 0;
  Cycle completed = 0;

  friend bool operator==(const Completion&, const Completion&) = default;
};

class Topology {
 public:
  Topology(const sys::SystemConfig& cfg, const TopologyConfig& tcfg);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  std::uint64_t channels() const { return route_.size(); }
  std::uint64_t shards() const { return shards_.size(); }
  bool threaded() const { return tcfg_.worker_threads; }
  const sys::SystemConfig& config() const { return cfg_; }

  /// Spawns the shard workers (no-op in serial mode). Call once.
  void start();

  /// Routes one request. Returns false (and consumes nothing) when the
  /// owning shard's ingress ring is full — poll_completions() and retry.
  /// `not_before` is the earliest submission cycle on the target channel's
  /// clock; 0 = as soon as the channel can take it.
  bool try_submit(Addr addr, OpType op, std::uint64_t tag = 0,
                  Cycle not_before = 0, RequestId* id_out = nullptr);

  /// Blocking try_submit: drains completions while waiting for ring space,
  /// so it cannot deadlock against a backpressured shard.
  RequestId submit(Addr addr, OpType op, std::uint64_t tag = 0,
                   Cycle not_before = 0);

  /// One request of a submit batch. addr/op/tag/not_before are inputs;
  /// accepted/id are outputs (id stays 0 when not admitted).
  struct SubmitItem {
    Addr addr = 0;
    OpType op = OpType::kRead;
    std::uint64_t tag = 0;
    Cycle not_before = 0;
    RequestId id = 0;
    bool accepted = false;
  };

  /// Batched try_submit: routes `n` items and publishes each shard's share
  /// with a single release store (SpscRing::try_push_n), so the steady-state
  /// cost drops from one seq handoff per request to one per batch. Items are
  /// staged per shard in stream order, which preserves per-channel FIFO —
  /// the invariant the byte-identity guarantee rests on. When a shard's ring
  /// fills mid-batch, that shard admits a prefix and the rest of its items
  /// are left accepted=false (ids for the rejected tail are never consumed);
  /// other shards are unaffected. Returns the number admitted. The caller
  /// must re-offer each rejected item before any later request for the same
  /// channel (the front tier parks the client to guarantee this).
  std::size_t try_submit_batch(SubmitItem* items, std::size_t n);

  /// Free-slot watermark of the ingress ring owning `addr`'s channel — the
  /// pacing hint carried by the 'B' busy frame. Approximate while the shard
  /// is actively draining (monotonically stale-low).
  std::uint64_t ring_free(Addr addr);

  /// One unit of coordinator-side progress: drains egress and, in serial
  /// mode, runs pending shard work inline (threaded mode yields instead).
  /// Event-loop callers (the front tier) invoke this between socket events
  /// so serial-mode shards advance without a blocking submit.
  void pump() { make_progress(); }

  /// Appends all read completions received since the last call. Returns
  /// the number appended. Writes are posted and never appear here.
  std::size_t poll_completions(std::vector<Completion>& out);

  /// Drains every channel to idle and waits for all shards to acknowledge.
  /// After it returns, every completion for previously submitted requests
  /// has been received (fetch them via poll_completions).
  void flush();

  /// Flushes, stops and joins the workers, and merges the final simulated
  /// state into a sim::RunResult (channel-order merge, same fold order as
  /// the serial MemorySystem path). The topology is dead afterwards.
  sim::RunResult finish(const std::string& workload);

  std::uint64_t submitted_reads() const { return reads_; }
  std::uint64_t submitted_writes() const { return writes_; }

  /// Max per-channel end cycle executed so far. Valid only while the shards
  /// are quiescent: immediately after flush() (the flush acks synchronize
  /// the channel state) or after finish().
  Cycle drained_cycles() const;

  /// Per-shard host telemetry. Stable only while the shards are quiescent
  /// (serial mode, or after finish()).
  std::vector<ShardMetrics> shard_metrics() const;

  /// Replays `source` in head-of-line order (DESIGN.md §14), the schedule of
  /// sim::run_memory_only: record i enters its channel at the first cycle
  /// >= record i-1's at which that channel accepts it. Starts, runs and
  /// finishes the topology (call it instead of start()). A channel that
  /// would pass max_cycles throws CycleLimitExceeded.
  sim::RunResult replay_head_of_line(trace::RecordSource& source);

 private:
  struct Route {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;
  };

  /// Pushes `cmd`, making progress (egress included) while the ring is
  /// full: a serve worker can block on a full egress ring while it holds
  /// its claim.
  void push_cmd(std::size_t shard, const TileCmd& cmd);
  /// Pops every available egress event into ready_ / flush_acks_.
  void drain_egress();
  /// In serial mode, runs pending shard work inline; in threaded mode,
  /// yields. The wait step of every blocking loop.
  void make_progress();
  void rethrow_worker_error();
  /// Head-of-line only: waits for `shard`'s claim, runs its pending
  /// commands and returns local channel `local`'s clock, read before the
  /// claim is released. After an asking push that clock is the cycle the
  /// command was accepted at, whichever thread ran it: a worker holds the
  /// claim for the whole batch it popped. Never drains egress, since in
  /// this mode a shard publishes only flush acks, which finish() collects.
  Cycle run_claimed(std::size_t shard, std::uint32_t local);
  /// Head-of-line push: runs the shard's commands while its ring is full.
  void push_replay_cmd(std::size_t shard, const TileCmd& cmd);
  void worker_body(std::size_t i);

  sys::SystemConfig cfg_;
  TopologyConfig tcfg_;
  mem::AddressDecoder decoder_;
  nvm::EnergyModel energy_model_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Route> route_;  // global channel -> owning shard slot

  std::vector<std::thread> threads_;
  std::vector<std::exception_ptr> errors_;  // slot i written by worker i
  std::unique_ptr<std::atomic<bool>[]> failed_;

  RequestId next_id_ = 1;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::size_t flush_acks_ = 0;
  // Head-of-line submission horizon, on its own line: the shards poll it.
  struct alignas(64) Horizon {
    std::atomic<Cycle> cycle{0};
  };
  Horizon horizon_;
  std::vector<Completion> ready_;  // drained, not yet handed to the client
  // try_submit_batch scratch (per-shard staging + original item indices),
  // reused across calls so the hot path stays allocation-free.
  std::vector<std::vector<TileCmd>> stage_cmds_;
  std::vector<std::vector<std::size_t>> stage_idx_;
  bool started_ = false;
  bool finished_ = false;
};

/// Batch result: the merged run plus the deterministic completion stream
/// (per-channel completion order, channels concatenated in global order —
/// independent of shard count and thread timing).
struct ShardedRunResult {
  sim::RunResult run;
  std::vector<Completion> completions;
  std::vector<ShardMetrics> shards;
};

/// Replays a trace through a tile topology as fast as backpressure allows
/// (the sharded counterpart of sim::run_memory_only). Under FGNVM_PARANOID
/// every call also runs the serial inline reference and throws
/// std::runtime_error on any stat or completion divergence.
ShardedRunResult run_sharded(const trace::Trace& trace,
                             const sys::SystemConfig& cfg,
                             const TopologyConfig& tcfg);

/// First difference between two sharded runs ("" when byte-identical):
/// sim::diff_results on the merged runs, then the completion streams.
std::string diff_sharded(const ShardedRunResult& a, const ShardedRunResult& b);

/// A head-of-line replay and the host telemetry of the shards that ran it.
struct HeadOfLineRun {
  sim::RunResult run;
  std::vector<ShardMetrics> shards;
  bool threaded = false;
};

/// The event-skip engine of sim::run_memory_only for a plain system
/// without an observer: Topology::replay_head_of_line on
/// min(channels, sweep_thread_count()) worker shards, or on one inline
/// shard at one channel, at FGNVM_THREADS=1 or inside a SweepRunner item.
HeadOfLineRun run_head_of_line(trace::RecordSource& source,
                               const sys::SystemConfig& cfg, Cycle max_cycles);

}  // namespace fgnvm::tile

// One tile-runtime shard: a worker that owns a group of channels and runs
// them on their own clocks (DESIGN.md §14).
//
// A shard's channels are plain sched::ControllerT instances — the same
// construction sys::MemorySystem performs (sys::make_channel_controller) —
// advanced exclusively through the event-chain API (advance_to /
// advance_until_accept), never ticked cycle by cycle. All shard state sits
// behind 64-byte alignment so two shards never share a cache line; the only
// cross-thread traffic is the inbound command ring (coordinator -> shard)
// and the outbound event ring (shard -> coordinator), both lock-free SPSC
// rings.
//
// Per-channel clock semantics: every channel advances independently. A
// request routed to channel c enters its queue at
//     t = max(not_before, clock_c, first cycle >= those at which c accepts)
// where the acceptance cycle is found by walking c's own event chain — the
// exact tick schedule the serial event-skipping loop would run. Channel
// state and stats therefore depend only on the subsequence of requests
// routed to that channel (in stream order), not on the shard partition or
// thread interleaving — the root of the any-shard-count byte-identity
// guarantee. For a single channel this reduces exactly to the
// run_memory_only submission schedule (anchored by a tier-1 test).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mem/request.hpp"
#include "sched/controller.hpp"
#include "tile/spsc_ring.hpp"

namespace fgnvm::tile {

/// Inbound command. Addresses arrive pre-decoded: the coordinator owns the
/// address decoder and the channel routing decision.
struct TileCmd {
  enum class Kind : std::uint8_t {
    kSubmit,  ///< enqueue one request on a channel of this shard
    kFlush,   ///< drain every channel to idle, publish, ack with kFlushDone
    kStop,    ///< exit the worker loop (after processing prior commands)
  };
  Kind kind = Kind::kSubmit;
  OpType op = OpType::kRead;
  std::uint32_t local_ch = 0;  ///< channel index within the shard
  RequestId id = 0;
  std::uint64_t tag = 0;       ///< opaque client token (MemRequest::cpu_tag)
  Cycle not_before = 0;        ///< earliest submission cycle (channel clock)
  mem::DecodedAddr addr;
};

/// Outbound event: a read completion (writes are posted — the coordinator
/// acks them at submission) or a flush acknowledgment.
struct TileEvt {
  enum class Kind : std::uint8_t { kCompletion, kFlushDone };
  Kind kind = Kind::kCompletion;
  std::uint32_t channel = 0;  ///< global channel id
  RequestId id = 0;
  std::uint64_t tag = 0;
  Cycle submitted = 0;  ///< cycle the request entered the channel
  Cycle completed = 0;  ///< cycle the read data returned
};

/// Inline per-shard metrics, published with the shard (read by the
/// coordinator only after the worker joined / went quiescent). Host-side
/// telemetry only — never part of the simulated stats the equivalence
/// suites compare.
struct alignas(64) ShardMetrics {
  std::uint64_t cmds = 0;           ///< commands consumed
  std::uint64_t ops = 0;            ///< requests enqueued
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t completions = 0;    ///< read completions published
  std::uint64_t flushes = 0;
  std::uint64_t ingress_empty = 0;  ///< pop attempts that found no work
  std::uint64_t idle_spins = 0;     ///< cpu_relax pauses in the idle poll
  std::uint64_t egress_stalls = 0;  ///< pushes that waited for ring space
  std::uint64_t ingress_peak = 0;   ///< high-water inbound occupancy
  std::uint64_t advance_calls = 0;  ///< event-chain advances executed
};

class alignas(64) Shard {
 public:
  /// One owned channel and its clocks. `due` caches the channel's next
  /// event-chain cycle (kNeverCycle = idle) and never overshoots it;
  /// `clock` is the latest submission cycle (per-channel time is monotone);
  /// `end` is the cycle after the channel's last executed tick, maintained
  /// by flush (the channel's contribution to mem_cycles).
  struct Channel {
    std::unique_ptr<sched::ControllerBase> ctrl;
    std::uint32_t global_ch = 0;
    Cycle clock = 0;
    Cycle due = kNeverCycle;
    Cycle end = 0;
  };

  Shard(std::uint32_t index, std::size_t ring_capacity, Cycle max_cycles);
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Construction-time wiring (before start): hands the shard one channel.
  void add_channel(std::unique_ptr<sched::ControllerBase> ctrl,
                   std::uint32_t global_ch);

  std::uint32_t index() const { return index_; }
  SpscRing<TileCmd>& ingress() { return ingress_; }
  SpscRing<TileEvt>& egress() { return egress_; }

  /// Worker-thread body: consumes commands until kStop. Spins briefly on an
  /// empty ring, then yields (single-core hosts must let the coordinator
  /// run).
  void run();

  /// Inline alternative (serial mode / the reference schedule): processes
  /// every command currently in the ring on the calling thread. Returns the
  /// number of commands handled. Never called concurrently with run().
  std::size_t process_pending();

  /// Valid once the worker joined (or in serial mode, any time).
  const ShardMetrics& metrics() const { return metrics_; }
  const std::vector<Channel>& channels() const { return chan_; }

  /// Serial mode only: called when the egress ring is full so the (same
  /// thread) coordinator can drain it instead of deadlocking. Must not be
  /// set on a threaded shard.
  void set_egress_drain_hook(std::function<void()> hook) {
    drain_hook_ = std::move(hook);
  }

  /// Emergency shutdown (coordinator destruction without finish()): makes
  /// run() exit at its next loop iteration and turns a push_evt blocked on
  /// a full egress ring into a drop, so the worker always terminates even
  /// with no consumer left to drain egress. Simulated state is garbage
  /// afterwards — only safe when the topology is being torn down.
  void request_stop() { stop_.store(true, std::memory_order_release); }
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  void handle(const TileCmd& cmd);
  void handle_submit(const TileCmd& cmd);
  void flush_channels();
  void publish_completions(Channel& c);
  void push_evt(const TileEvt& evt);

  const std::uint32_t index_;
  const Cycle max_cycles_;
  SpscRing<TileCmd> ingress_;
  SpscRing<TileEvt> egress_;
  ShardMetrics metrics_;
  std::vector<Channel> chan_;
  std::vector<mem::MemRequest> done_;  // drain scratch, reused
  std::function<void()> drain_hook_;   // serial-mode egress overflow valve
  std::atomic<bool> stop_{false};      // emergency teardown (see request_stop)
};

}  // namespace fgnvm::tile

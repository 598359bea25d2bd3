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
//
// Head-of-line mode (Topology::replay_head_of_line, DESIGN.md §14) keeps
// that per-channel walk but lets the coordinator carry one global
// submission cycle in not_before: the shard publishes each channel's queue
// departures (the coordinator's credits), advances idle channels to a
// shared horizon, and drains completions without publishing them. The
// coordinator reads a blocked command's accepted cycle from the channel's
// clock under the shard's claim (try_claim).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "mem/request.hpp"
#include "sched/controller.hpp"
#include "tile/doorbell.hpp"
#include "tile/spsc_ring.hpp"

namespace fgnvm::tile {

/// Thrown by a shard whose channel would run past TopologyConfig::max_cycles
/// (a blocked walk or the final drain); the deadlock guard of the runners.
class CycleLimitExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
  /// Head-of-line mode: the coordinator reads the cycle the request entered
  /// its channel (Topology::run_claimed). Without an ask the coordinator's
  /// credits guarantee that cycle is not_before.
  bool ask = false;
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

/// Per-channel queue departures of one op type, published by the shard in
/// head-of-line mode: requests entered minus requests still queued. It only
/// rises, so the coordinator's sent-minus-departed is an upper bound on the
/// queue's occupancy (DESIGN.md §14).
struct alignas(64) Departures {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
};

/// Inline per-shard metrics, published with the shard (read by the
/// coordinator only after the worker joined / went quiescent). Host-side
/// telemetry only — never part of the simulated stats the equivalence
/// suites compare.
struct alignas(64) ShardMetrics {
  std::uint64_t ops = 0;          ///< requests enqueued
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t completions = 0;  ///< read completions published
  // Head-of-line mode only.
  std::uint64_t asks = 0;              ///< asking commands handled
  std::uint64_t horizon_advances = 0;  ///< idle advances to the horizon
  std::uint64_t marks = 0;             ///< walk positions published
};

class alignas(64) Shard {
 public:
  /// One owned channel and its clocks. `due` caches the channel's next
  /// event-chain cycle (kNeverCycle = idle) and never overshoots it;
  /// `clock` is the latest submission cycle (per-channel time is monotone);
  /// `end` is the cycle after the channel's last executed tick, maintained
  /// by flush (the channel's contribution to mem_cycles). `entered_*`
  /// count the requests enqueued, `departed` publishes how many of them
  /// left the queues (head-of-line mode).
  struct Channel {
    std::unique_ptr<sched::ControllerBase> ctrl;
    std::uint32_t global_ch = 0;
    Cycle clock = 0;
    Cycle due = kNeverCycle;
    Cycle end = 0;
    std::uint64_t entered_reads = 0;
    std::uint64_t entered_writes = 0;
    std::unique_ptr<Departures> departed;
  };

  Shard(std::uint32_t index, std::size_t ring_capacity, Cycle max_cycles);
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Construction-time wiring (before start): hands the shard one channel.
  void add_channel(std::unique_ptr<sched::ControllerBase> ctrl,
                   std::uint32_t global_ch);

  /// Construction-time wiring: switches the shard to head-of-line mode.
  /// `horizon` is the shared submission horizon of a threaded replay (null
  /// inline): the idle worker advances its channels to it, and a blocked
  /// walk publishes its chain position into it.
  void follow_head_of_line(std::atomic<Cycle>* horizon) {
    hol_ = true;
    horizon_ = horizon;
  }

  /// Rung by the coordinator after every push to ingress() (and by
  /// request_stop), so a worker parked on an empty ring wakes.
  Doorbell& doorbell() { return doorbell_; }

  /// The worker holds this claim while it processes a batch or advances
  /// its channels, and drops it in between. A head-of-line coordinator
  /// that waits for an ask claims the shard, runs process_pending() itself
  /// and reads the channel's clock before it releases the claim
  /// (Topology::run_claimed): the release/acquire pair publishes the state
  /// of whichever thread ran the command, and a worker that is parked or
  /// not scheduled never holds up an ask. A worker that throws keeps its
  /// claim.
  bool try_claim() {
    return !claimed_.load(std::memory_order_relaxed) &&
           !claimed_.exchange(true, std::memory_order_acquire);
  }
  void release_claim() { claimed_.store(false, std::memory_order_release); }

  /// Queue departures of `op` on local channel `local` (head-of-line mode);
  /// any thread may read them while the shard runs.
  std::uint64_t departed(std::uint32_t local, OpType op) const {
    const Departures& d = *chan_[local].departed;
    return (op == OpType::kRead ? d.reads : d.writes)
        .load(std::memory_order_relaxed);
  }

  std::uint32_t index() const { return index_; }
  SpscRing<TileCmd>& ingress() { return ingress_; }
  SpscRing<TileEvt>& egress() { return egress_; }

  /// Worker-thread body: consumes commands until kStop. Spins briefly on an
  /// empty ring, then yields (single-core hosts must let the coordinator
  /// run), and parks on doorbell() once the ring stayed empty for
  /// kSpinBeforePark. In head-of-line mode an empty ring first advances
  /// the channels to the horizon.
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
  void request_stop() {
    stop_.store(true, std::memory_order_release);
    doorbell_.ring();
  }
  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

 private:
  void handle(const TileCmd& cmd);
  void handle_submit(const TileCmd& cmd);
  /// Walks `c` until it accepts `op`; returns the resume cycle (see
  /// ControllerBase::advance_until_accept). A threaded head-of-line walk
  /// publishes its chain position to the horizon as it goes.
  Cycle walk_until_accept(Channel& c, OpType op);
  /// Head-of-line mode: runs every channel's chain up to `horizon`.
  void advance_to_horizon(Cycle horizon);
  void publish_departures(const Channel& c);
  void flush_channels();
  /// Drains `c`'s completions; publishes them outside head-of-line mode.
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
  std::atomic<bool> claimed_{false};   // see try_claim
  Doorbell doorbell_;                  // wakes a parked worker
  bool hol_ = false;                   // head-of-line mode
  std::atomic<Cycle>* horizon_ = nullptr;  // threaded head-of-line only
  Cycle reached_ = 0;                  // horizon the channels last ran to
};

}  // namespace fgnvm::tile

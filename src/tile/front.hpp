// Multi-client epoll front tier for the tile runtime (DESIGN.md §15).
//
// The FrontTier owns the socket side of fgnvm_serve: a level-triggered
// epoll loop over one optional listener plus any number of connected
// clients (Unix or TCP — the tier only sees connected stream fds). Every
// decoded request is tagged with the owning client's id through a tag
// indirection pool, batched per recv() (FrameReader::decode_batch ->
// Topology::try_submit_batch, one ring release store per shard per batch),
// and every read completion is routed back to the right client's socket.
//
// Backpressure (park/unpark): when a shard's ingress ring rejects part of
// a client's batch, the tier parks that client — it stops polling the
// socket for read (EPOLL_CTL_MOD drops EPOLLIN), holds the rejected items
// in submission order, and emits one 'B' (busy) frame carrying the ring's
// free-slot watermark. Each loop iteration re-offers the held items; once
// they all admit, the client is unparked and reading resumes. Because a
// parked client's buffered bytes are not even decoded until unpark,
// per-channel request order is preserved exactly — the invariant the
// byte-identity guarantee rests on.
//
// Robustness: EINTR retries and ECONNRESET/EPIPE handling on every socket
// syscall; a malformed or oversized frame draws an 'E' frame and closes
// only that client; completions whose tag no longer maps to a live client
// are counted and dropped, never fatal. The server never aborts on client
// misbehavior.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/observer.hpp"
#include "tile/frame.hpp"
#include "tile/topology.hpp"

namespace fgnvm::tile {

/// Per-client QoS counters (satellite of the 'S' stats frame). Host-side
/// telemetry only; latency samples are simulated memory cycles.
struct ClientQoS {
  std::uint64_t requests = 0;  ///< decoded R/W frames
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t completions = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;  ///< bytes actually written to the socket
  std::uint64_t busy_frames = 0;
  std::uint64_t park_ns = 0;  ///< host time spent parked (backpressure)
  obs::Log2Histogram read_latency;  ///< completed - submitted, mem cycles
};

class FrontTier {
 public:
  struct Config {
    /// run() returns once at least one client has connected and all of
    /// them have since closed (tests / selftest). False serves forever.
    bool exit_when_idle = false;
    /// epoll_wait timeout when nothing is pending (ms).
    int idle_timeout_ms = 10;
  };

  /// Aggregate host telemetry across all clients served.
  struct Totals {
    std::uint64_t clients_served = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t completions_routed = 0;
    std::uint64_t completions_dropped = 0;  ///< owner disconnected first
    std::uint64_t parks = 0;
    std::uint64_t busy_frames = 0;
    std::uint64_t protocol_errors = 0;  ///< malformed/oversized frames
  };

  /// The topology must be started; the tier never calls finish().
  explicit FrontTier(Topology& topo) : FrontTier(topo, Config()) {}
  FrontTier(Topology& topo, Config cfg);
  ~FrontTier();
  FrontTier(const FrontTier&) = delete;
  FrontTier& operator=(const FrontTier&) = delete;

  /// Optional listening socket; accepted connections become clients. The
  /// tier takes ownership (closes it in the destructor).
  void set_listener(int fd);

  /// Adopts a connected stream socket as a client (socketpair tests, or
  /// an externally accepted fd). Takes ownership of the fd.
  void add_client(int fd);

  /// Event loop: serves until stop() or (exit_when_idle) until every
  /// client has disconnected. Throws only on programming errors or a
  /// failed worker shard — never on client misbehavior.
  void run();

  /// Makes run() return at its next iteration. Safe from another thread
  /// or a signal handler: a lock-free atomic flag, checked each loop.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

  const Totals& totals() const { return totals_; }

 private:
  struct Client {
    int fd = -1;
    std::uint32_t id = 0;
    FrameReader reader;
    std::vector<std::uint8_t> outbuf;  // encoded, not yet written
    std::size_t out_off = 0;
    // Rejected submissions awaiting ring space, in submission order.
    std::vector<Topology::SubmitItem> retry;
    bool parked = false;
    bool epollout = false;    // currently registered for EPOLLOUT
    bool want_close = false;  // close once outbuf drains (post-Q / error)
    std::chrono::steady_clock::time_point park_start{};
    ClientQoS qos;
  };

  /// One tag-pool slot: maps an in-flight read's ring tag back to the
  /// issuing client and its wire tag. Slot index == TileCmd/TileEvt tag.
  struct TagSlot {
    std::uint32_t client = 0;
    std::uint64_t user_tag = 0;
  };

  std::uint64_t alloc_tag(std::uint32_t client, std::uint64_t user_tag);
  Client* find_client(std::uint32_t id);

  void accept_ready();
  void on_readable(Client& c);
  void process_frames(Client& c);
  void handle_request(Client& c, const Request& req);
  void submit_items(Client& c, std::vector<Topology::SubmitItem>& items);
  /// Bookkeeping for an item the rings admitted: the client's QoS counts
  /// and, for a posted write, its 'A' ack.
  void on_admitted(Client& c, const Topology::SubmitItem& it);
  void park(Client& c, Addr first_rejected);
  void retry_parked();
  void dispatch_completions();
  void flush_outputs();
  void try_write(Client& c);
  void update_epollout(Client& c, bool want);
  void protocol_error(Client& c, const std::string& what);
  void close_client(int fd);
  bool output_pending() const;

  Topology& topo_;
  Config cfg_;
  int ep_ = -1;
  int listener_ = -1;
  std::atomic<bool> stop_{false};
  bool seen_client_ = false;

  std::unordered_map<int, std::unique_ptr<Client>> clients_;  // by fd
  std::unordered_map<std::uint32_t, Client*> by_id_;
  std::uint32_t next_client_id_ = 1;

  std::vector<TagSlot> tags_;
  std::vector<std::uint32_t> free_tags_;

  // Loop scratch, reused every iteration (allocation-free steady state).
  std::vector<FrameView> views_;
  std::vector<Topology::SubmitItem> items_;
  std::vector<Topology::SubmitItem> still_rejected_;
  std::vector<Completion> comps_;
  std::vector<int> dead_;

  Totals totals_;
};

}  // namespace fgnvm::tile

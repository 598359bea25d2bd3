// Loopback serve harness (DESIGN.md §15): the end-to-end proof that
// serving a trace through the FrontTier changes no simulated result.
//
// serve_loopback() splits a trace into per-client frame streams by channel
// ownership (client c carries every record whose channel % clients == c,
// in trace order, so each channel sees exactly the trace's per-channel
// subsequence whatever the client interleaving). It then runs a FrontTier
// over a started Topology with one thread per client on a socketpair. Each
// client sends its stream in random splits while draining responses, then
// fences with a 'P' ping; once every pong has arrived, client 0 sends the
// one global flush, and every client quits (collecting its 'S' frame) only
// after the flush completed. loopback_problem() checks the outcome against
// the serial single-stream reference.
//
// fgnvm_serve --selftest, the TileFrontMultiClient tests and perf_smoke's
// serve scenario all drive the tier through this one client.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "tile/front.hpp"
#include "trace/trace.hpp"

namespace fgnvm::tile {

struct LoopbackOptions {
  unsigned clients = 1;
  /// Bytes per send(), drawn uniformly from [send_min, send_max]: frames
  /// split at arbitrary boundaries reach the tier's incremental reader.
  std::size_t send_min = 1;
  std::size_t send_max = 256;
  /// Client c draws its send sizes from std::mt19937(seed + c).
  unsigned seed = 0;
};

/// What one client sent and what it saw on the wire.
struct LoopbackClient {
  std::uint64_t reads_sent = 0;
  std::uint64_t writes_sent = 0;
  std::uint64_t write_acks = 0;
  std::uint64_t read_done = 0;
  std::uint64_t busy_frames = 0;
  std::uint64_t flush_cycles = 0;  ///< client 0 only: the 'F' reply
  bool got_stats = false;
  ClientStatsWire stats;
  std::string error;  ///< empty when the client finished cleanly
};

struct LoopbackRun {
  std::vector<LoopbackClient> clients;
  FrontTier::Totals totals;
  sim::RunResult served;  ///< Topology::finish after the tier exited
  std::uint64_t shards = 0;
};

/// Serves `trace` over `opts.clients` socketpair clients. Throws on a
/// socket setup failure or a failed tier; a client that fails records its
/// error and stops every other client, so the run never hangs on it.
LoopbackRun serve_loopback(const trace::Trace& trace,
                           const sys::SystemConfig& cfg,
                           const TopologyConfig& tcfg,
                           const LoopbackOptions& opts);

/// The first failed check of a loopback run, or "" when it is clean: no
/// client error; per client, every read completed and every write acked,
/// and its 'S' frame counts exactly its own traffic (p50 <= p99 > 0 when
/// it read); the flush reported the served mem_cycles; the tier served
/// every client with no protocol error and no dropped completion; and the
/// served run is byte-identical to `reference`.
std::string loopback_problem(const LoopbackRun& run,
                             const sim::RunResult& reference);

}  // namespace fgnvm::tile

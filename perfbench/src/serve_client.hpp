// The serve_stream workload's client and its socket-free counterpart.
//
// serve_stream() puts a tile::FrontTier over a serial-shard tile::Topology
// on one server thread and drives it from the calling thread: one client
// multiplexes every socketpair with poll(), sends its channel's R/W frames,
// fences with ping, lets client 0 flush once every pong is in, quits, and
// reads each 'S' stats frame until the server closes. direct_replay() pushes
// the same stream through the Topology API with no sockets or codec.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "tile/front.hpp"
#include "trace/trace.hpp"
#include "tracer.hpp"

namespace perfbench {

/// A trace split by channel across clients, encoded as R/W request frames.
/// Frame tags are record indices into the trace.
struct ServeStreams {
  std::vector<std::vector<std::uint8_t>> bytes;  // per client
  std::vector<std::uint64_t> frames;             // per client
  std::vector<std::uint8_t> owner;               // per record: its client
  std::uint64_t total_frames = 0;
};

ServeStreams split_by_channel(const fgnvm::trace::Trace& trace,
                              const fgnvm::sys::SystemConfig& cfg,
                              unsigned clients);

struct ServeOutcome {
  std::uint64_t frames = 0;    // R/W frames sent
  std::uint64_t answered = 0;  // frames answered exactly once ('A' or 'C')
  std::uint64_t errors = 0;    // 'E' frames, undecodable or stray answers
  bool stats_ok = false;       // each 'S' frame counts what its client sent
  bool completed = false;      // every client reached its 'S' frame and EOF
  double seconds = 0.0;        // first byte sent .. last 'S' frame received
  fgnvm::sim::RunResult result;          // Topology::finish
  fgnvm::tile::FrontTier::Totals front;  // server-side totals
};

/// One served stream. With a tracer, records "sock.send", "sock.recv" and
/// "frame.decode" spans inside a "serve.client" span.
ServeOutcome serve_stream(const ServeStreams& streams,
                          const fgnvm::sys::SystemConfig& cfg,
                          Tracer* tracer = nullptr);

struct DirectOutcome {
  std::uint64_t frames = 0;
  std::uint64_t completions = 0;
  double seconds = 0.0;
  fgnvm::sim::RunResult result;
};

/// The same requests through Topology::try_submit_batch, pump,
/// poll_completions, flush and finish, each inside a "tile.<call>" span
/// under "serve.direct".
DirectOutcome direct_replay(const fgnvm::trace::Trace& trace,
                            const fgnvm::sys::SystemConfig& cfg,
                            Tracer& tracer);

/// Host ns per frame of FrameReader::decode_batch plus decode_request over
/// the encoded streams, fed in 64 KiB chunks as the server reads them.
double decode_batch_ns_per_frame(const ServeStreams& streams);

}  // namespace perfbench

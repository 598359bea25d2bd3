// Wire protocol for the fgnvm_serve request front end.
//
// Frames are length-prefixed binary: a 4-byte little-endian payload length,
// then the payload, whose first byte is the frame type. All multi-byte
// integers are little-endian, encoded bytewise (host-endianness agnostic).
//
// Client -> server (requests):
//   'R' addr:u64 tag:u64 not_before:u64   read at addr
//   'W' addr:u64 tag:u64 not_before:u64   write at addr (posted)
//   'F' tag:u64                           flush: drain all channels
//   'P' tag:u64                           ping/fence: replied to with 'P'
//                                         only once every frame this client
//                                         sent before it has been admitted
//                                         into the shard rings (the pong is
//                                         an admission barrier — clients
//                                         coordinating a global flush fence
//                                         first, so the flush cannot
//                                         overtake still-buffered traffic)
//   'Q'                                   quit: close the connection
//
// Server -> client (responses):
//   'A' tag id                             write accepted (posted ack)
//   'C' tag id submitted completed channel read completion (cycles are the
//                                          target channel's own clock;
//                                          channel:u32 names it)
//   'D' tag mem_cycles:u64                 flush done; mem_cycles is the
//                                          max per-channel end cycle so far
//   'P' tag:u64                            pong: every earlier frame from
//                                          this client has been admitted
//   'E' tag errlen:u32 msg[errlen]         request rejected
//   'B' tag free_slots:u64                 busy: the target shard's ingress
//                                          ring is full; the server parked
//                                          this client's socket and will
//                                          resume reading once the request
//                                          admits. free_slots is the ring's
//                                          free-slot watermark at park time
//                                          (pacing hint; 0 = fully full).
//                                          At most one B per park episode.
//   'S' 9 x u64                            per-client QoS stats, sent in
//                                          reply to 'Q' just before close:
//                                          requests, reads, writes,
//                                          completions, bytes_in, bytes_out,
//                                          p50_read_latency,
//                                          p99_read_latency (memory cycles,
//                                          log2-bucket interpolated),
//                                          park_ns (host time spent parked)
//
// The codec is header-only and socket-free so it unit-tests without I/O:
// encode_* append one complete frame to a byte vector (one resize, then
// stores at fixed offsets); FrameReader incrementally splits a byte stream
// back into payloads.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fgnvm::tile {

enum class ReqFrame : std::uint8_t {
  kRead = 'R',
  kWrite = 'W',
  kFlush = 'F',
  kPing = 'P',
  kQuit = 'Q',
};

enum class RespFrame : std::uint8_t {
  kWriteAck = 'A',
  kReadDone = 'C',
  kFlushDone = 'D',
  kError = 'E',
  kBusy = 'B',
  kStats = 'S',
  kPong = 'P',
};

/// Per-client QoS counters carried by the 'S' frame (field order is the
/// wire order). Latencies are in memory cycles, interpolated from the
/// log2-bucket read-latency histogram; park_ns is host wall time the
/// server spent with this client's socket parked for backpressure.
struct ClientStatsWire {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t completions = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t p50_read_latency = 0;
  std::uint64_t p99_read_latency = 0;
  std::uint64_t park_ns = 0;
};

/// Decoded client request.
struct Request {
  ReqFrame kind = ReqFrame::kRead;
  Addr addr = 0;
  std::uint64_t tag = 0;
  Cycle not_before = 0;
};

/// Decoded server response.
struct Response {
  RespFrame kind = RespFrame::kWriteAck;
  std::uint64_t tag = 0;
  RequestId id = 0;
  Cycle submitted = 0;
  Cycle completed = 0;
  std::uint32_t channel = 0;
  std::uint64_t mem_cycles = 0;
  std::uint64_t free_slots = 0;  ///< kBusy: ring free-slot watermark
  ClientStatsWire stats;         ///< kStats payload
  std::string error;
};

namespace wire {

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  store_u32(out.data() + at, v);
}

/// Bounds-unchecked reads; callers verify payload sizes first.
inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Grows `out` by one whole frame whose payload is the type byte plus
/// `fields` bytes, writes the length prefix and the type, and returns where
/// the fields go.
inline std::uint8_t* append_frame(std::vector<std::uint8_t>& out,
                                  std::uint8_t type, std::size_t fields) {
  const std::size_t at = out.size();
  out.resize(at + 5 + fields);
  std::uint8_t* p = out.data() + at;
  store_u32(p, static_cast<std::uint32_t>(1 + fields));
  p[4] = type;
  return p + 5;
}

}  // namespace wire

inline void encode_request(const Request& r, std::vector<std::uint8_t>& out) {
  const auto type = static_cast<std::uint8_t>(r.kind);
  switch (r.kind) {
    case ReqFrame::kRead:
    case ReqFrame::kWrite: {
      std::uint8_t* p = wire::append_frame(out, type, 24);
      wire::store_u64(p, r.addr);
      wire::store_u64(p + 8, r.tag);
      wire::store_u64(p + 16, r.not_before);
      return;
    }
    case ReqFrame::kFlush:
    case ReqFrame::kPing:
      wire::store_u64(wire::append_frame(out, type, 8), r.tag);
      return;
    case ReqFrame::kQuit:
      break;
  }
  wire::append_frame(out, type, 0);
}

inline void encode_response(const Response& r,
                            std::vector<std::uint8_t>& out) {
  const auto type = static_cast<std::uint8_t>(r.kind);
  switch (r.kind) {
    case RespFrame::kWriteAck: {
      std::uint8_t* p = wire::append_frame(out, type, 16);
      wire::store_u64(p, r.tag);
      wire::store_u64(p + 8, r.id);
      return;
    }
    case RespFrame::kReadDone: {
      std::uint8_t* p = wire::append_frame(out, type, 36);
      wire::store_u64(p, r.tag);
      wire::store_u64(p + 8, r.id);
      wire::store_u64(p + 16, r.submitted);
      wire::store_u64(p + 24, r.completed);
      wire::store_u32(p + 32, r.channel);
      return;
    }
    case RespFrame::kFlushDone: {
      std::uint8_t* p = wire::append_frame(out, type, 16);
      wire::store_u64(p, r.tag);
      wire::store_u64(p + 8, r.mem_cycles);
      return;
    }
    case RespFrame::kError: {
      std::uint8_t* p = wire::append_frame(out, type, 12 + r.error.size());
      wire::store_u64(p, r.tag);
      wire::store_u32(p + 8, static_cast<std::uint32_t>(r.error.size()));
      std::memcpy(p + 12, r.error.data(), r.error.size());
      return;
    }
    case RespFrame::kBusy: {
      std::uint8_t* p = wire::append_frame(out, type, 16);
      wire::store_u64(p, r.tag);
      wire::store_u64(p + 8, r.free_slots);
      return;
    }
    case RespFrame::kPong:
      wire::store_u64(wire::append_frame(out, type, 8), r.tag);
      return;
    case RespFrame::kStats: {
      std::uint8_t* p = wire::append_frame(out, type, 72);
      const std::uint64_t fields[9] = {
          r.stats.requests,         r.stats.reads,    r.stats.writes,
          r.stats.completions,      r.stats.bytes_in, r.stats.bytes_out,
          r.stats.p50_read_latency, r.stats.p99_read_latency,
          r.stats.park_ns};
      for (int i = 0; i < 9; ++i) wire::store_u64(p + 8 * i, fields[i]);
      return;
    }
  }
  wire::append_frame(out, type, 0);
}

/// Decodes one complete payload (no length prefix). nullopt = malformed.
inline std::optional<Request> decode_request(const std::uint8_t* p,
                                             std::size_t n) {
  if (n < 1) return std::nullopt;
  Request r;
  r.kind = static_cast<ReqFrame>(p[0]);
  switch (r.kind) {
    case ReqFrame::kRead:
    case ReqFrame::kWrite:
      if (n != 1 + 24) return std::nullopt;
      r.addr = wire::get_u64(p + 1);
      r.tag = wire::get_u64(p + 9);
      r.not_before = wire::get_u64(p + 17);
      return r;
    case ReqFrame::kFlush:
    case ReqFrame::kPing:
      if (n != 1 + 8) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      return r;
    case ReqFrame::kQuit:
      if (n != 1) return std::nullopt;
      return r;
  }
  return std::nullopt;
}

inline std::optional<Response> decode_response(const std::uint8_t* p,
                                               std::size_t n) {
  if (n < 1) return std::nullopt;
  Response r;
  r.kind = static_cast<RespFrame>(p[0]);
  switch (r.kind) {
    case RespFrame::kWriteAck:
      if (n != 1 + 16) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      r.id = wire::get_u64(p + 9);
      return r;
    case RespFrame::kReadDone:
      if (n != 1 + 36) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      r.id = wire::get_u64(p + 9);
      r.submitted = wire::get_u64(p + 17);
      r.completed = wire::get_u64(p + 25);
      r.channel = wire::get_u32(p + 33);
      return r;
    case RespFrame::kFlushDone:
      if (n != 1 + 16) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      r.mem_cycles = wire::get_u64(p + 9);
      return r;
    case RespFrame::kError: {
      if (n < 1 + 12) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      const std::uint32_t len = wire::get_u32(p + 9);
      if (n != 1 + 12 + static_cast<std::size_t>(len)) return std::nullopt;
      r.error.assign(reinterpret_cast<const char*>(p + 13), len);
      return r;
    }
    case RespFrame::kBusy:
      if (n != 1 + 16) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      r.free_slots = wire::get_u64(p + 9);
      return r;
    case RespFrame::kPong:
      if (n != 1 + 8) return std::nullopt;
      r.tag = wire::get_u64(p + 1);
      return r;
    case RespFrame::kStats:
      if (n != 1 + 72) return std::nullopt;
      r.stats.requests = wire::get_u64(p + 1);
      r.stats.reads = wire::get_u64(p + 9);
      r.stats.writes = wire::get_u64(p + 17);
      r.stats.completions = wire::get_u64(p + 25);
      r.stats.bytes_in = wire::get_u64(p + 33);
      r.stats.bytes_out = wire::get_u64(p + 41);
      r.stats.p50_read_latency = wire::get_u64(p + 49);
      r.stats.p99_read_latency = wire::get_u64(p + 57);
      r.stats.park_ns = wire::get_u64(p + 65);
      return r;
  }
  return std::nullopt;
}

/// Borrowed view of one complete frame payload inside a FrameReader's
/// buffer. Valid only until the reader's next feed() (which may compact or
/// reallocate the buffer) — decode before feeding again. `off` is the
/// frame's start offset (length prefix included), an opaque token for
/// FrameReader::rewind_to with the same lifetime as the view.
struct FrameView {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
  std::size_t off = 0;
};

/// Incremental frame splitter: feed() raw stream bytes, then either next()
/// (one copied payload at a time) or decode_batch() (all complete payloads
/// as zero-copy views). Frames above `max_frame` bytes are rejected (a
/// malformed or hostile length prefix must not balloon the buffer).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = 1 << 20)
      : max_frame_(max_frame) {}

  void feed(const std::uint8_t* data, std::size_t n) {
    // Compacting before the insert (rather than after a failed next())
    // keeps the amortized O(1) bound and guarantees feed() is the only
    // call that moves the buffer — FrameViews from decode_batch() stay
    // valid across everything except the next feed().
    compact();
    buf_.insert(buf_.end(), data, data + n);
  }

  /// Drains every complete frame currently buffered into `out` (cleared
  /// first) as views into the internal buffer. Returns out.size(). The
  /// views are invalidated by the next feed(). Throws std::runtime_error
  /// on an oversized length prefix; frames already placed in `out` before
  /// the bad prefix remain valid (decode-then-reject mid-batch).
  std::size_t decode_batch(std::vector<FrameView>& out) {
    out.clear();
    while (true) {
      if (buf_.size() - pos_ < 4) break;
      const std::uint32_t len = wire::get_u32(buf_.data() + pos_);
      if (len > max_frame_) {
        throw std::runtime_error("FrameReader: oversized frame (" +
                                 std::to_string(len) + " bytes)");
      }
      if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) break;
      out.push_back(FrameView{buf_.data() + pos_ + 4, len, pos_});
      pos_ += 4 + len;
    }
    return out.size();
  }

  /// Un-consumes a suffix of the current decode_batch pass: rewinds the
  /// cursor to a view's `off`, so that frame and everything after it are
  /// returned again by the next decode_batch/next call. The front tier uses
  /// this to put a control frame back when the batch before it parked the
  /// client (the frame must not act until the held requests admit). Valid
  /// only until the next feed(), like the views themselves.
  void rewind_to(std::size_t off) {
    if (off > pos_) {
      throw std::logic_error("FrameReader: rewind past the consume cursor");
    }
    pos_ = off;
  }

  /// True when a complete frame was extracted into `payload`. Throws
  /// std::runtime_error on an oversized length prefix. (Reclaiming consumed
  /// bytes happens in feed(), so next() never moves the buffer either.)
  bool next(std::vector<std::uint8_t>& payload) {
    if (buf_.size() - pos_ < 4) return false;
    const std::uint32_t len = wire::get_u32(buf_.data() + pos_);
    if (len > max_frame_) {
      throw std::runtime_error("FrameReader: oversized frame (" +
                               std::to_string(len) + " bytes)");
    }
    if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) return false;
    payload.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4),
                   buf_.begin() +
                       static_cast<std::ptrdiff_t>(pos_ + 4 + len));
    pos_ += 4 + len;
    return true;
  }

  /// Bytes currently held, unconsumed tail plus any not-yet-reclaimed
  /// consumed prefix. compact() bounds the prefix by the tail, so this
  /// never exceeds ~2x the unconsumed data (plus the last feed).
  std::size_t buffered_bytes() const { return buf_.size(); }

 private:
  /// Reclaims consumed bytes: wholesale when everything was consumed,
  /// otherwise by erasing the consumed prefix once it is at least as large
  /// as the unconsumed tail. Each erase then moves no more bytes than were
  /// consumed since the last one (amortized O(1) per byte), and a
  /// long-lived stream whose recv boundaries keep landing mid-frame cannot
  /// retain more than ~2x its unconsumed tail.
  void compact() {
    if (pos_ == buf_.size()) {
      buf_.clear();
      pos_ = 0;
    } else if (pos_ >= buf_.size() - pos_) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
    }
  }

  const std::size_t max_frame_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace fgnvm::tile

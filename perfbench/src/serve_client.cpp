#include "serve_client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "mem/geometry.hpp"
#include "tile/frame.hpp"
#include "tile/topology.hpp"

namespace perfbench {

namespace sys = fgnvm::sys;
namespace tile = fgnvm::tile;
using Clock = std::chrono::steady_clock;

namespace {

tile::TopologyConfig serial_shards(const sys::SystemConfig& cfg) {
  tile::TopologyConfig t;
  t.shards = cfg.geometry.channels;
  t.worker_threads = false;
  return t;
}

/// Client-side state of one socket.
struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;  // frames not yet sent
  std::size_t sent = 0;
  bool pinged = false, ponged = false, quit = false, stats = false;
  bool eof = false;
  tile::FrameReader reader;
  tile::ClientStatsWire wire;
};

void append(std::vector<std::uint8_t>& out, tile::ReqFrame kind) {
  tile::Request r;
  r.kind = kind;
  tile::encode_request(r, out);
}

}  // namespace

ServeStreams split_by_channel(const fgnvm::trace::Trace& trace,
                              const sys::SystemConfig& cfg, unsigned clients) {
  ServeStreams s;
  s.bytes.resize(clients);
  s.frames.assign(clients, 0);
  s.owner.resize(trace.records.size());
  const fgnvm::mem::AddressDecoder dec(cfg.geometry, cfg.mapping);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const fgnvm::trace::TraceRecord& rec = trace.records[i];
    const auto c =
        static_cast<unsigned>(dec.decode(rec.addr).channel % clients);
    tile::Request req;
    req.kind = rec.op == fgnvm::OpType::kRead ? tile::ReqFrame::kRead
                                              : tile::ReqFrame::kWrite;
    req.addr = rec.addr;
    req.tag = i;
    tile::encode_request(req, s.bytes[c]);
    s.owner[i] = static_cast<std::uint8_t>(c);
    ++s.frames[c];
  }
  s.total_frames = trace.records.size();
  return s;
}

ServeOutcome serve_stream(const ServeStreams& streams,
                          const sys::SystemConfig& cfg, Tracer* tracer) {
  const std::size_t n = streams.bytes.size();
  Tracer::Id client_id = 0, send_id = 0, recv_id = 0, decode_id = 0;
  if (tracer) {
    client_id = tracer->intern("serve.client");
    send_id = tracer->intern("sock.send");
    recv_id = tracer->intern("sock.recv");
    decode_id = tracer->intern("frame.decode");
  }

  ServeOutcome out;
  out.frames = streams.total_frames;
  tile::Topology topo(cfg, serial_shards(cfg));
  topo.start();
  tile::FrontTier::Config fcfg;
  fcfg.exit_when_idle = true;
  tile::FrontTier front(topo, fcfg);

  std::vector<Conn> conns(n);
  for (std::size_t c = 0; c < n; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      for (std::size_t k = 0; k < c; ++k) ::close(conns[k].fd);
      throw std::runtime_error("serve_stream: socketpair failed");
    }
    front.add_client(sv[0]);
    conns[c].fd = sv[1];
    conns[c].out = streams.bytes[c];
  }

  std::exception_ptr server_error;
  std::thread server([&] {
    try {
      front.run();
    } catch (...) {
      server_error = std::current_exception();
    }
  });

  std::vector<std::uint8_t> answered(streams.total_frames, 0);
  std::vector<std::uint8_t> payload;
  std::vector<pollfd> pfds(n);
  std::uint8_t rbuf[65536];
  bool flush_sent = false, flushed = false;
  std::size_t open = n;
  const Clock::time_point start = Clock::now();
  Clock::time_point last_stats = start;
  Clock::time_point last_progress = start;
  std::exception_ptr client_error;
  try {
    const Span client_span(tracer, client_id);
    while (open > 0) {
      // Protocol steps once the data is out: ping per socket; flush on
      // socket 0 once every pong is in; quit everywhere after the flush.
      bool all_ponged = true;
      for (Conn& k : conns) {
        if (!k.pinged && k.sent == k.out.size()) {
          append(k.out, tile::ReqFrame::kPing);
          k.pinged = true;
        }
        all_ponged = all_ponged && k.ponged;
      }
      if (all_ponged && !flush_sent) {
        append(conns[0].out, tile::ReqFrame::kFlush);
        flush_sent = true;
      }
      if (flushed) {
        for (Conn& k : conns) {
          if (!k.quit) {
            append(k.out, tile::ReqFrame::kQuit);
            k.quit = true;
          }
        }
      }

      for (std::size_t c = 0; c < n; ++c) {
        pfds[c].fd = conns[c].eof ? -1 : conns[c].fd;
        pfds[c].events = POLLIN;
        if (conns[c].sent < conns[c].out.size()) pfds[c].events |= POLLOUT;
        pfds[c].revents = 0;
      }
      const int pr = ::poll(pfds.data(), pfds.size(), 100);
      if (pr < 0 && errno != EINTR) break;
      if (Clock::now() - last_progress > std::chrono::seconds(20)) break;
      if (pr <= 0) continue;

      for (std::size_t c = 0; c < n; ++c) {
        Conn& k = conns[c];
        if ((pfds[c].revents & POLLOUT) && k.sent < k.out.size()) {
          ssize_t w;
          {
            const Span s(tracer, send_id);
            w = ::send(k.fd, k.out.data() + k.sent, k.out.size() - k.sent,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
          }
          if (w > 0) {
            k.sent += static_cast<std::size_t>(w);
            last_progress = Clock::now();
          }
        }
        if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        ssize_t r;
        {
          const Span s(tracer, recv_id);
          r = ::recv(k.fd, rbuf, sizeof(rbuf), MSG_DONTWAIT);
        }
        if (r < 0) {
          if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
            continue;
          }
          r = 0;  // reset: treat as closed
        }
        last_progress = Clock::now();
        if (r == 0) {
          k.eof = true;
          --open;
          continue;
        }
        const Span s(tracer, decode_id);
        k.reader.feed(rbuf, static_cast<std::size_t>(r));
        while (k.reader.next(payload)) {
          const std::optional<tile::Response> resp =
              tile::decode_response(payload.data(), payload.size());
          if (!resp) {
            ++out.errors;
            continue;
          }
          switch (resp->kind) {
            case tile::RespFrame::kWriteAck:
            case tile::RespFrame::kReadDone:
              if (resp->tag < answered.size() &&
                  streams.owner[resp->tag] == c && !answered[resp->tag]) {
                answered[resp->tag] = 1;
                ++out.answered;
              } else {
                ++out.errors;
              }
              break;
            case tile::RespFrame::kPong:
              k.ponged = true;
              break;
            case tile::RespFrame::kFlushDone:
              flushed = true;
              break;
            case tile::RespFrame::kStats:
              k.stats = true;
              k.wire = resp->stats;
              last_stats = Clock::now();
              break;
            case tile::RespFrame::kBusy:
              break;  // the server parked us; it resumes by itself
            case tile::RespFrame::kError:
              ++out.errors;
              break;
          }
        }
      }
    }
  } catch (...) {
    client_error = std::current_exception();
  }
  out.seconds = std::chrono::duration<double>(last_stats - start).count();

  // Closing our ends lets an unfinished server see EOF everywhere and
  // return (exit_when_idle), so the join below cannot hang.
  for (Conn& k : conns) ::close(k.fd);
  server.join();
  if (client_error) std::rethrow_exception(client_error);
  if (server_error) std::rethrow_exception(server_error);

  out.completed = open == 0;
  out.stats_ok = true;
  for (std::size_t c = 0; c < n; ++c) {
    const Conn& k = conns[c];
    out.completed = out.completed && k.stats;
    out.stats_ok = out.stats_ok && k.stats &&
                   k.wire.requests == streams.frames[c] &&
                   k.wire.reads + k.wire.writes == streams.frames[c];
  }
  out.front = front.totals();
  out.result = topo.finish("serve");
  return out;
}

DirectOutcome direct_replay(const fgnvm::trace::Trace& trace,
                            const sys::SystemConfig& cfg, Tracer& tracer) {
  const Tracer::Id direct_id = tracer.intern("serve.direct");
  const Tracer::Id submit_id = tracer.intern("tile.try_submit_batch");
  const Tracer::Id pump_id = tracer.intern("tile.pump");
  const Tracer::Id poll_id = tracer.intern("tile.poll_completions");
  const Tracer::Id flush_id = tracer.intern("tile.flush");
  const Tracer::Id finish_id = tracer.intern("tile.finish");
  constexpr std::size_t kBatch = 64;

  DirectOutcome out;
  out.frames = trace.records.size();
  tile::Topology topo(cfg, serial_shards(cfg));
  topo.start();
  std::vector<tile::Topology::SubmitItem> items;
  std::vector<tile::Topology::SubmitItem> rejected;
  std::vector<tile::Completion> comps;

  const Clock::time_point start = Clock::now();
  {
    const Span direct(tracer, direct_id);
    std::size_t next = 0;
    while (next < trace.records.size() || !items.empty()) {
      if (items.empty()) {
        const std::size_t end = std::min(next + kBatch, trace.records.size());
        for (; next < end; ++next) {
          tile::Topology::SubmitItem it;
          it.addr = trace.records[next].addr;
          it.op = trace.records[next].op;
          it.tag = next;
          items.push_back(it);
        }
      }
      {
        const Span s(tracer, submit_id);
        topo.try_submit_batch(items.data(), items.size());
      }
      // Rejected items keep their order and are offered again before any
      // later request, which preserves every channel's FIFO order.
      rejected.clear();
      for (const tile::Topology::SubmitItem& it : items) {
        if (!it.accepted) {
          rejected.push_back(it);
          rejected.back().id = 0;
        }
      }
      items.swap(rejected);
      {
        const Span s(tracer, pump_id);
        topo.pump();
      }
      const Span s(tracer, poll_id);
      out.completions += topo.poll_completions(comps);
      comps.clear();
    }
    {
      const Span s(tracer, flush_id);
      topo.flush();
    }
    {
      const Span s(tracer, poll_id);
      out.completions += topo.poll_completions(comps);
    }
    const Span s(tracer, finish_id);
    out.result = topo.finish("serve");
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

double decode_batch_ns_per_frame(const ServeStreams& streams) {
  constexpr std::size_t kChunk = 65536;
  std::vector<tile::FrameView> views;
  std::uint64_t frames = 0, bad = 0, passes = 0;
  const Clock::time_point start = Clock::now();
  // Whole passes until at least 50 ms have been measured.
  while (passes == 0 || Clock::now() - start < std::chrono::milliseconds(50)) {
    ++passes;
    for (const std::vector<std::uint8_t>& bytes : streams.bytes) {
      tile::FrameReader reader;
      for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
        reader.feed(bytes.data() + off, std::min(kChunk, bytes.size() - off));
        reader.decode_batch(views);
        for (const tile::FrameView& v : views) {
          if (tile::decode_request(v.data, v.len)) {
            ++frames;
          } else {
            ++bad;
          }
        }
      }
    }
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  if (bad != 0 || frames != passes * streams.total_frames) {
    throw std::runtime_error("decode_batch: frames lost or malformed");
  }
  return ns / static_cast<double>(frames);
}

}  // namespace perfbench

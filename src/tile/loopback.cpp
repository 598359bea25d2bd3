#include "tile/loopback.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <functional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mem/geometry.hpp"

namespace fgnvm::tile {

namespace {

constexpr std::size_t kReadBuffer = 8192;

/// State the client threads share: the ping fence, the flush latch, and
/// the abort flag that stops every client once one fails (or the tier
/// does), so no client waits forever on a flush that cannot come.
struct Shared {
  std::atomic<unsigned> admitted{0};
  std::atomic<bool> flushed{false};
  std::atomic<bool> abort{false};
};

/// The clients' socket ends, closed on every path out of serve_loopback.
struct ClientFds {
  std::vector<int> fds;
  ClientFds() = default;
  ClientFds(const ClientFds&) = delete;
  ClientFds& operator=(const ClientFds&) = delete;
  ~ClientFds() { close_all(); }
  void close_all() {
    for (const int fd : fds) ::close(fd);
    fds.clear();
  }
};

/// One client: streams its partition in random splits while draining
/// responses, then fences with a 'P' ping — the pong proves every request
/// was admitted into the shard rings, not merely written to the socket.
/// Only once every client's pong arrived does client 0 send the single
/// global flush (a flush overtaking still-buffered traffic would perturb
/// the channel clocks and break byte-identity with the reference). Every
/// client quits, and collects its 'S' frame, only after the flush.
void run_client(int fd, std::vector<std::uint8_t> pending, unsigned index,
                const LoopbackOptions& opts, Shared& shared,
                LoopbackClient& res) {
  std::mt19937 rng(opts.seed + index);
  const std::size_t send_span = opts.send_max - opts.send_min + 1;
  FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::size_t sent = 0;
  bool sent_ping = false, sent_flush = false, sent_quit = false;
  std::uint8_t rbuf[kReadBuffer];
  const auto fail = [&](std::string what) {
    res.error = std::move(what);
    shared.abort.store(true, std::memory_order_relaxed);
  };
  const auto send_control = [&](ReqFrame kind, std::uint64_t tag) {
    Request r;
    r.kind = kind;
    r.tag = tag;
    encode_request(r, pending);
  };

  while (res.error.empty() && !shared.abort.load(std::memory_order_relaxed)) {
    if (sent == pending.size()) {
      if (!sent_ping) {
        send_control(ReqFrame::kPing, 0xfeu);
        sent_ping = true;
      } else if (index == 0 && !sent_flush &&
                 shared.admitted.load(std::memory_order_acquire) ==
                     opts.clients) {
        send_control(ReqFrame::kFlush, 0xf1u);
        sent_flush = true;
      } else if (!sent_quit && shared.flushed.load(std::memory_order_acquire)) {
        send_control(ReqFrame::kQuit, 0);
        sent_quit = true;
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    if (sent < pending.size()) pfd.events |= POLLOUT;
    const int pr = ::poll(&pfd, 1, 20);
    if (pr < 0) {
      if (errno == EINTR) continue;
      fail(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if (pr == 0) continue;  // timeout: re-check the flush/quit conditions
    if ((pfd.revents & POLLOUT) && sent < pending.size()) {
      std::size_t chunk = opts.send_min + rng() % send_span;
      if (chunk > pending.size() - sent) chunk = pending.size() - sent;
      const ssize_t n = ::send(fd, pending.data() + sent, chunk, MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        fail(std::string("send: ") + std::strerror(errno));
        break;
      }
    }
    if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) continue;
    const ssize_t n = ::read(fd, rbuf, sizeof(rbuf));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(std::string("read: ") + std::strerror(errno));
      break;
    }
    if (n == 0) {
      if (!res.got_stats) fail("connection closed before the stats frame");
      break;  // the tier closed us after the 'S' frame: done
    }
    reader.feed(rbuf, static_cast<std::size_t>(n));
    while (reader.next(payload)) {
      const auto resp = decode_response(payload.data(), payload.size());
      if (!resp) {
        fail("malformed response frame");
        break;
      }
      switch (resp->kind) {
        case RespFrame::kWriteAck: ++res.write_acks; break;
        case RespFrame::kReadDone: ++res.read_done; break;
        case RespFrame::kBusy: ++res.busy_frames; break;
        case RespFrame::kPong:
          shared.admitted.fetch_add(1, std::memory_order_acq_rel);
          break;
        case RespFrame::kFlushDone:
          res.flush_cycles = resp->mem_cycles;
          shared.flushed.store(true, std::memory_order_release);
          break;
        case RespFrame::kStats:
          res.got_stats = true;
          res.stats = resp->stats;
          break;
        case RespFrame::kError:
          fail("server error frame: " + resp->error);
          break;
      }
    }
  }
}

}  // namespace

LoopbackRun serve_loopback(const trace::Trace& trace,
                           const sys::SystemConfig& cfg,
                           const TopologyConfig& tcfg,
                           const LoopbackOptions& opts) {
  if (opts.clients == 0 || opts.send_min == 0 ||
      opts.send_min > opts.send_max) {
    throw std::invalid_argument(
        "serve_loopback: need >= 1 client and 1 <= send_min <= send_max");
  }
  const unsigned nclients = opts.clients;
  LoopbackRun run;
  run.clients.resize(nclients);

  const mem::AddressDecoder decoder(cfg.geometry, cfg.mapping);
  std::vector<std::vector<std::uint8_t>> streams(nclients);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const auto& rec = trace.records[i];
    const unsigned owner =
        static_cast<unsigned>(decoder.decode(rec.addr).channel % nclients);
    const bool read = rec.op == OpType::kRead;
    Request req;
    req.kind = read ? ReqFrame::kRead : ReqFrame::kWrite;
    req.addr = rec.addr;
    req.tag = i;
    encode_request(req, streams[owner]);
    ++(read ? run.clients[owner].reads_sent : run.clients[owner].writes_sent);
  }

  Topology topo(cfg, tcfg);
  topo.start();
  FrontTier::Config fcfg;
  fcfg.exit_when_idle = true;
  FrontTier front(topo, fcfg);

  ClientFds fds;
  fds.fds.reserve(nclients);
  for (unsigned c = 0; c < nclients; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error(std::string("serve_loopback: socketpair: ") +
                               std::strerror(errno));
    }
    fds.fds.push_back(sv[1]);
    front.add_client(sv[0]);  // the tier owns its end
  }

  Shared shared;
  std::exception_ptr tier_error, spawn_error;
  std::thread server([&] {
    try {
      front.run();
    } catch (...) {
      tier_error = std::current_exception();
      shared.abort.store(true, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> threads;
  threads.reserve(nclients);
  try {
    for (unsigned c = 0; c < nclients; ++c) {
      threads.emplace_back(run_client, fds.fds[c], std::move(streams[c]), c,
                           std::cref(opts), std::ref(shared),
                           std::ref(run.clients[c]));
    }
  } catch (...) {
    spawn_error = std::current_exception();
    shared.abort.store(true, std::memory_order_relaxed);
  }
  for (auto& th : threads) th.join();
  fds.close_all();
  // A failed client may have left the tier serving.
  if (shared.abort.load(std::memory_order_relaxed)) front.stop();
  server.join();
  if (spawn_error) std::rethrow_exception(spawn_error);
  if (tier_error) std::rethrow_exception(tier_error);

  run.totals = front.totals();
  run.shards = topo.shards();
  run.served = topo.finish(trace.name);
  return run;
}

std::string loopback_problem(const LoopbackRun& run,
                             const sim::RunResult& reference) {
  if (run.clients.empty()) return "no clients";
  for (std::size_t c = 0; c < run.clients.size(); ++c) {
    if (!run.clients[c].error.empty()) {
      return "client " + std::to_string(c) + ": " + run.clients[c].error;
    }
  }
  for (std::size_t c = 0; c < run.clients.size(); ++c) {
    const LoopbackClient& r = run.clients[c];
    const std::string who = "client " + std::to_string(c) + ": ";
    if (r.read_done != r.reads_sent) {
      return who + std::to_string(r.read_done) +
             " read completions, expected " + std::to_string(r.reads_sent);
    }
    if (r.write_acks != r.writes_sent) {
      return who + std::to_string(r.write_acks) + " write acks, expected " +
             std::to_string(r.writes_sent);
    }
    // QoS isolation: the 'S' frame accounts for exactly this client's
    // traffic, not the merged stream.
    if (!r.got_stats) return who + "no stats frame";
    const ClientStatsWire& s = r.stats;
    if (s.requests != r.reads_sent + r.writes_sent ||
        s.reads != r.reads_sent || s.writes != r.writes_sent ||
        s.completions != r.reads_sent) {
      return who + "stats frame does not match its own traffic (" +
             std::to_string(s.requests) + " req, " + std::to_string(s.reads) +
             "r/" + std::to_string(s.writes) + "w, " +
             std::to_string(s.completions) + " completions)";
    }
    if (r.reads_sent > 0 &&
        (s.p99_read_latency == 0 || s.p50_read_latency > s.p99_read_latency)) {
      return who + "read latency p50 " + std::to_string(s.p50_read_latency) +
             " / p99 " + std::to_string(s.p99_read_latency);
    }
  }
  if (run.clients[0].flush_cycles != run.served.mem_cycles) {
    return "flush reported " + std::to_string(run.clients[0].flush_cycles) +
           " cycles, finish reported " + std::to_string(run.served.mem_cycles);
  }
  if (run.totals.clients_served != run.clients.size()) {
    return "tier served " + std::to_string(run.totals.clients_served) +
           " clients, expected " + std::to_string(run.clients.size());
  }
  if (run.totals.protocol_errors != 0) {
    return std::to_string(run.totals.protocol_errors) + " protocol errors";
  }
  if (run.totals.completions_dropped != 0) {
    return std::to_string(run.totals.completions_dropped) +
           " completions dropped";
  }
  const std::string diff = sim::diff_results(run.served, reference);
  if (!diff.empty()) {
    return "served run diverged from the serial reference: " + diff;
  }
  return "";
}

}  // namespace fgnvm::tile

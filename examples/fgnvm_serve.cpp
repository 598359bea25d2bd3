// fgnvm_serve: a streaming request front end over a live simulated FgNVM
// system (DESIGN.md §14, §15).
//
// The server owns a tile::Topology (shard-per-thread tile runtime) fronted
// by a tile::FrontTier: a level-triggered epoll loop that admits many
// simultaneous Unix or TCP clients, batches frame decode and ring
// publication per recv(), parks clients for backpressure (emitting 'B'
// frames), and routes every read completion back to the socket that issued
// it. Writes are posted: they are acked at submission, matching the
// simulated controller's posted-write semantics. 'Q' draws a per-client
// 'S' QoS stats frame before close.
//
// Usage:
//   fgnvm_serve --unix /tmp/fgnvm.sock [--preset fgnvm] [--shards 2]
//   fgnvm_serve --tcp 9321 --preset baseline --serial
//   fgnvm_serve --selftest [--shards 4] [--clients 8]
//
// --selftest runs the server and N concurrent clients in-process over
// socketpairs with randomized frame splits, and cross-checks the final
// simulated state against tile::run_sharded's serial single-stream
// reference — exercising the whole epoll -> frame -> ring -> shard ->
// merge path end to end. Traffic is partitioned by channel ownership
// (client i owns channels with ch % clients == i) so every channel sees
// the master trace's exact per-channel subsequence regardless of client
// interleaving — the condition under which multi-client serving is
// byte-identical to the serial reference.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "mem/geometry.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "tile/frame.hpp"
#include "tile/front.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"

namespace {

using namespace fgnvm;

struct Options {
  std::string unix_path;
  int tcp_port = -1;
  std::string preset = "fgnvm";
  std::uint64_t sags = 8;
  std::uint64_t cds = 32;
  std::uint64_t channels = 4;
  std::uint64_t shards = 2;
  std::uint64_t clients = 1;
  bool serial = false;
  bool selftest = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --unix PATH     listen on a Unix domain socket\n"
      << "  --tcp PORT      listen on 127.0.0.1:PORT\n"
      << "  --preset NAME   baseline | fgnvm | many_banks | perfect\n"
      << "  --sags N        FgNVM subarray groups per bank (default 8)\n"
      << "  --cds N         FgNVM column divisions per bank (default 32)\n"
      << "  --channels N    memory channels (default 4; shards are capped\n"
      << "                  by the channel count)\n"
      << "  --shards N      worker shards (default 2)\n"
      << "  --serial        run shards inline (no worker threads)\n"
      << "  --selftest      in-process end-to-end check, then exit\n"
      << "  --clients N     concurrent selftest clients (default 1; the\n"
      << "                  channel count is raised to N when smaller)\n";
  std::exit(2);
}

sys::SystemConfig build_config(const Options& opt) {
  sys::SystemConfig cfg;
  if (opt.preset == "baseline") {
    cfg = sys::baseline_config();
  } else if (opt.preset == "fgnvm") {
    cfg = sys::fgnvm_config(opt.sags, opt.cds);
  } else if (opt.preset == "many_banks") {
    cfg = sys::many_banks_config(opt.sags, opt.cds);
  } else if (opt.preset == "perfect") {
    cfg = sys::perfect_config();
  } else {
    std::cerr << "fgnvm_serve: unknown preset '" << opt.preset << "'\n";
    std::exit(2);
  }
  cfg.geometry.channels = opt.channels;
  cfg.geometry.validate();
  return cfg;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  // Counts that become threads, sockets or channel controllers are capped;
  // geometry validation checks --sags / --cds further.
  constexpr std::uint64_t kMaxCount = 1024;
  auto count = [&](int& i, const std::string& flag) {
    return uint_flag_or_exit(argv[0], flag, need(i), 1, kMaxCount);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--unix") {
      opt.unix_path = need(i);
    } else if (a == "--tcp") {
      opt.tcp_port =
          static_cast<int>(uint_flag_or_exit(argv[0], a, need(i), 1, 65535));
    } else if (a == "--preset") {
      opt.preset = need(i);
    } else if (a == "--sags") {
      opt.sags = count(i, a);
    } else if (a == "--cds") {
      opt.cds = count(i, a);
    } else if (a == "--channels") {
      opt.channels = count(i, a);
    } else if (a == "--shards") {
      opt.shards = count(i, a);
    } else if (a == "--clients") {
      opt.clients = count(i, a);
    } else if (a == "--serial") {
      opt.serial = true;
    } else if (a == "--selftest") {
      opt.selftest = true;
    } else {
      usage(argv[0]);
    }
  }
  if (!opt.selftest && opt.unix_path.empty() && opt.tcp_port < 0) {
    usage(argv[0]);
  }
  return opt;
}

int listen_socket(const Options& opt) {
  int fd = -1;
  if (!opt.unix_path.empty()) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (opt.unix_path.size() >= sizeof(sa.sun_path)) {
      std::cerr << "fgnvm_serve: socket path too long\n";
      return -1;
    }
    std::strncpy(sa.sun_path, opt.unix_path.c_str(), sizeof(sa.sun_path) - 1);
    ::unlink(opt.unix_path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      std::cerr << "fgnvm_serve: bind(" << opt.unix_path
                << "): " << std::strerror(errno) << "\n";
      return -1;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(opt.tcp_port));
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      std::cerr << "fgnvm_serve: bind(127.0.0.1:" << opt.tcp_port
                << "): " << std::strerror(errno) << "\n";
      return -1;
    }
  }
  if (::listen(fd, 64) < 0) return -1;
  return fd;
}

int run_server(const Options& opt) {
  const sys::SystemConfig cfg = build_config(opt);
  tile::TopologyConfig tcfg;
  tcfg.shards = opt.shards;
  tcfg.worker_threads = !opt.serial;
  tile::Topology topo(cfg, tcfg);
  topo.start();

  const int lfd = listen_socket(opt);
  if (lfd < 0) return 1;
  std::cerr << "fgnvm_serve: " << cfg.name << ", " << topo.shards()
            << " shard(s) over " << topo.channels() << " channels, "
            << (topo.threaded() ? "threaded" : "serial") << "\n";
  tile::FrontTier front(topo);
  front.set_listener(lfd);  // the tier owns lfd from here on
  front.run();              // serves until the process is killed
  return 0;
}

// ---------------------------------------------------------------- selftest

/// What one selftest client saw on the wire.
struct ClientOutcome {
  std::uint64_t write_acks = 0;
  std::uint64_t read_done = 0;
  std::uint64_t busy_frames = 0;
  std::uint64_t flush_cycles = 0;  // designated client only
  bool got_stats = false;
  tile::ClientStatsWire stats;
  bool ok = true;
  std::string err;
};

/// One selftest client: streams its partition in randomized chunks while
/// draining responses, then fences with a 'P' ping — the pong proves every
/// request was *admitted* into the shard rings, not merely written to the
/// socket. Only once every client's pong arrived does the designated client
/// issue the single global flush (a flush overtaking still-buffered traffic
/// would perturb the channel clocks and break byte-identity with the
/// reference stream). All clients Q (and collect 'S' stats) only after the
/// flush completed.
void client_body(int fd, const std::vector<std::uint8_t>& stream,
                 bool designated, unsigned seed, unsigned nclients,
                 std::atomic<unsigned>& admitted, std::atomic<bool>& flushed,
                 ClientOutcome& res) {
  std::mt19937 rng(seed);
  tile::FrameReader reader;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> pending = stream;
  std::size_t sent = 0;
  bool sent_ping = false, sent_flush = false, sent_quit = false;
  std::uint8_t rbuf[4096];
  const auto fail = [&](const std::string& what) {
    res.ok = false;
    res.err = what;
  };

  while (res.ok) {
    if (sent == pending.size()) {
      if (!sent_ping) {
        tile::Request p;
        p.kind = tile::ReqFrame::kPing;
        p.tag = 0xfeu;
        tile::encode_request(p, pending);
        sent_ping = true;
      } else if (designated && !sent_flush &&
                 admitted.load(std::memory_order_acquire) == nclients) {
        tile::Request f;
        f.kind = tile::ReqFrame::kFlush;
        f.tag = 0xf1u;
        tile::encode_request(f, pending);
        sent_flush = true;
      } else if (!sent_quit && flushed.load(std::memory_order_acquire)) {
        tile::Request q;
        q.kind = tile::ReqFrame::kQuit;
        tile::encode_request(q, pending);
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
      // Randomized chunking: frames split at arbitrary byte boundaries so
      // the server's incremental reader sees every partial-frame shape.
      std::size_t chunk = 1 + rng() % 256;
      if (chunk > pending.size() - sent) chunk = pending.size() - sent;
      const ssize_t n =
          ::send(fd, pending.data() + sent, chunk, MSG_DONTWAIT);
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
      break;  // server closed us after the S frame: done
    }
    reader.feed(rbuf, static_cast<std::size_t>(n));
    while (reader.next(payload)) {
      const auto resp = tile::decode_response(payload.data(), payload.size());
      if (!resp) {
        fail("malformed response frame");
        break;
      }
      switch (resp->kind) {
        case tile::RespFrame::kWriteAck:
          ++res.write_acks;
          break;
        case tile::RespFrame::kReadDone:
          ++res.read_done;
          break;
        case tile::RespFrame::kBusy:
          ++res.busy_frames;
          break;
        case tile::RespFrame::kPong:
          admitted.fetch_add(1, std::memory_order_acq_rel);
          break;
        case tile::RespFrame::kFlushDone:
          res.flush_cycles = resp->mem_cycles;
          flushed.store(true, std::memory_order_release);
          break;
        case tile::RespFrame::kStats:
          res.got_stats = true;
          res.stats = resp->stats;
          break;
        case tile::RespFrame::kError:
          fail("server error frame: " + resp->error);
          break;
      }
    }
  }
}

int run_selftest(const Options& opt) {
  Options eff = opt;
  if (eff.channels < eff.clients) eff.channels = eff.clients;
  const sys::SystemConfig cfg = build_config(eff);
  const unsigned nclients = static_cast<unsigned>(eff.clients);

  trace::WorkloadProfile profile;
  profile.name = "serve_selftest";
  profile.write_fraction = 0.3;
  profile.seed = 11;
  const trace::Trace tr = trace::generate_trace(profile, 2000);

  // Channel-ownership partition: client (ch % clients) carries every master
  // record decoded to channel ch, in master order. Each channel's request
  // subsequence is then exactly the master trace's, whatever the client
  // interleaving — the determinism precondition.
  const mem::AddressDecoder decoder(cfg.geometry, cfg.mapping);
  std::vector<std::vector<std::uint8_t>> streams(nclients);
  std::vector<std::uint64_t> want_reads(nclients, 0);
  std::vector<std::uint64_t> want_writes(nclients, 0);
  for (std::size_t i = 0; i < tr.records.size(); ++i) {
    const auto& rec = tr.records[i];
    const unsigned owner =
        static_cast<unsigned>(decoder.decode(rec.addr).channel % nclients);
    tile::Request req;
    req.kind = rec.op == OpType::kRead ? tile::ReqFrame::kRead
                                       : tile::ReqFrame::kWrite;
    req.addr = rec.addr;
    req.tag = i;
    tile::encode_request(req, streams[owner]);
    ++(rec.op == OpType::kRead ? want_reads : want_writes)[owner];
  }

  tile::TopologyConfig tcfg;
  tcfg.shards = eff.shards;
  tcfg.worker_threads = !eff.serial;
  tile::Topology topo(cfg, tcfg);
  topo.start();

  tile::FrontTier::Config fcfg;
  fcfg.exit_when_idle = true;
  tile::FrontTier front(topo, fcfg);

  std::vector<int> client_fds(nclients, -1);
  for (unsigned c = 0; c < nclients; ++c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      std::cerr << "selftest: socketpair failed\n";
      return 1;
    }
    front.add_client(sv[0]);
    client_fds[c] = sv[1];
  }

  std::thread server([&] { front.run(); });

  std::atomic<unsigned> admitted{0};
  std::atomic<bool> flushed{false};
  std::vector<ClientOutcome> outcomes(nclients);
  std::vector<std::thread> client_threads;
  client_threads.reserve(nclients);
  for (unsigned c = 0; c < nclients; ++c) {
    client_threads.emplace_back([&, c] {
      client_body(client_fds[c], streams[c], /*designated=*/c == 0,
                  /*seed=*/1234u + c, nclients, admitted, flushed,
                  outcomes[c]);
    });
  }
  for (auto& th : client_threads) th.join();
  bool ok = true;
  for (unsigned c = 0; c < nclients; ++c) {
    if (!outcomes[c].ok) {
      std::cerr << "selftest: client " << c << ": " << outcomes[c].err
                << "\n";
      ok = false;
    }
    ::close(client_fds[c]);
  }
  if (!ok) front.stop();  // a dead client may have left the tier serving
  server.join();

  const sim::RunResult served = topo.finish(tr.name);

  // Reference: the same master stream through the serial inline topology.
  tile::TopologyConfig ref_cfg;
  ref_cfg.shards = 1;
  ref_cfg.worker_threads = false;
  const tile::ShardedRunResult ref = tile::run_sharded(tr, cfg, ref_cfg);

  std::uint64_t total_completions = 0, total_busy = 0;
  for (unsigned c = 0; c < nclients; ++c) {
    const ClientOutcome& r = outcomes[c];
    if (r.read_done != want_reads[c]) {
      std::cerr << "selftest: client " << c << ": " << r.read_done
                << " read completions, expected " << want_reads[c] << "\n";
      ok = false;
    }
    if (r.write_acks != want_writes[c]) {
      std::cerr << "selftest: client " << c << ": " << r.write_acks
                << " write acks, expected " << want_writes[c] << "\n";
      ok = false;
    }
    // Per-client QoS isolation: the S frame must account for exactly this
    // client's traffic, not the merged stream.
    if (r.got_stats &&
        (r.stats.requests != want_reads[c] + want_writes[c] ||
         r.stats.reads != want_reads[c] || r.stats.writes != want_writes[c] ||
         r.stats.completions != want_reads[c])) {
      std::cerr << "selftest: client " << c
                << ": stats frame does not match its own traffic ("
                << r.stats.requests << " req, " << r.stats.reads << "r/"
                << r.stats.writes << "w, " << r.stats.completions
                << " completions)\n";
      ok = false;
    }
    total_completions += r.read_done;
    total_busy += r.busy_frames;
  }
  if (outcomes[0].flush_cycles != served.mem_cycles) {
    std::cerr << "selftest: flush reported " << outcomes[0].flush_cycles
              << " cycles, finish reported " << served.mem_cycles << "\n";
    ok = false;
  }
  const std::string diff = sim::diff_results(served, ref.run);
  if (!diff.empty()) {
    std::cerr << "selftest: served run diverged from serial reference: "
              << diff << "\n";
    ok = false;
  }
  std::cerr << "selftest: " << tr.records.size() << " requests over "
            << nclients << " client(s), " << total_completions
            << " completions, " << front.totals().parks << " parks, "
            << total_busy << " busy frames, " << served.mem_cycles
            << " mem cycles, " << topo.shards() << " shard(s): "
            << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const Options opt = parse_args(argc, argv);
  try {
    return opt.selftest ? run_selftest(opt) : run_server(opt);
  } catch (const std::exception& e) {
    std::cerr << "fgnvm_serve: " << e.what() << "\n";
    return 1;
  }
}

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
// --selftest serves a generated trace to N in-process socketpair clients
// through tile::serve_loopback and checks it with tile::loopback_problem
// against tile::run_sharded's serial single-stream reference — the whole
// epoll -> frame -> ring -> shard -> merge path end to end.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "sys/presets.hpp"
#include "tile/front.hpp"
#include "tile/loopback.hpp"
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

int run_selftest(const Options& opt) {
  Options eff = opt;
  if (eff.channels < eff.clients) eff.channels = eff.clients;
  const sys::SystemConfig cfg = build_config(eff);

  trace::WorkloadProfile profile;
  profile.name = "serve_selftest";
  profile.write_fraction = 0.3;
  profile.seed = 11;
  const trace::Trace tr = trace::generate_trace(profile, 2000);

  tile::TopologyConfig tcfg;
  tcfg.shards = eff.shards;
  tcfg.worker_threads = !eff.serial;
  tile::LoopbackOptions lopts;
  lopts.clients = static_cast<unsigned>(eff.clients);
  lopts.seed = 1234;
  const tile::LoopbackRun run = tile::serve_loopback(tr, cfg, tcfg, lopts);

  // Reference: the same master stream through the serial inline topology.
  tile::TopologyConfig ref_cfg;
  ref_cfg.shards = 1;
  ref_cfg.worker_threads = false;
  const std::string problem =
      tile::loopback_problem(run, tile::run_sharded(tr, cfg, ref_cfg).run);
  if (!problem.empty()) std::cerr << "selftest: " << problem << "\n";

  std::uint64_t total_completions = 0, total_busy = 0;
  for (const tile::LoopbackClient& c : run.clients) {
    total_completions += c.read_done;
    total_busy += c.busy_frames;
  }
  std::cerr << "selftest: " << tr.records.size() << " requests over "
            << run.clients.size() << " client(s), " << total_completions
            << " completions, " << run.totals.parks << " parks, "
            << total_busy << " busy frames, " << run.served.mem_cycles
            << " mem cycles, " << run.shards << " shard(s): "
            << (problem.empty() ? "PASS" : "FAIL") << "\n";
  return problem.empty() ? 0 : 1;
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

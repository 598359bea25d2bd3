// perfbench: runs one workload of the FgNVM simulator benchmark and prints
// every metric by name with its unit, ending with one JSON result line.
//
// Usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// (README.md lists both). The simulator environment toggles are refused:
// the benchmark measures the default build configuration only.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host_speed.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr const char* kRefusedEnv[] = {
    "FGNVM_PARANOID",     "FGNVM_RUN_THREADS",  "FGNVM_THREADS",
    "FGNVM_PHASE_ENGINE", "FGNVM_TILE_BACKEND", "FGNVM_WAKE_CALENDAR"};

constexpr int kSetups = 5;  // setup_s is the median of this many set-ups

/// Spans reported as <name>.calls and <name>.self_ns_per_op on every traced
/// run, 0 where the workload never calls them. The tile.* spans come from
/// serve_stream's socket-free replay (Workload::traced_extras).
constexpr const char* kSpans[] = {
    "sim.loop",          "cpu.next_action",      "cpu.advance_to",
    "cpu.tick_mem_cycle", "cpu.complete",        "sys.can_accept",
    "sys.submit",        "sys.tick",             "sys.advance_until_accept",
    "sys.advance_channels_to", "sys.next_event", "sys.completion_bound",
    "sys.drain_completed", "sys.accept_event",   "sys.idle",
    "sim.run_multiprogrammed", "sock.send",      "sock.recv",
    "frame.decode",      "tile.try_submit_batch", "tile.pump",
    "tile.poll_completions", "tile.flush",       "tile.finish"};

/// The other per-layer metrics, 0 where the workload has none.
constexpr const char* kOtherLayerMetrics[] = {
    "loop.cycles_per_iter", "sys.can_accept.true_ratio",
    "sim.doubling_ratio",   "front.park_rate",
    "front.busy_rate",      "tile.frames_per_s_direct",
    "frame.decode_batch.ns_per_frame", "sim_ipc_speedup",
    "sim_energy_ratio",     "sim_weighted_speedup",
    "trace.overhead_ratio"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE]\nworkloads:";
  for (const std::string& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
    usage(std::string("invalid ") + what + " '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(value, "--seconds"));
      if (a.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(value, "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      a.trace = t == 1;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set of this process image, from VmHWM (getrusage's
/// ru_maxrss would also count the launcher's peak from before exec).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const UnitResult& u) {
    attempted += u.attempted;
    failed += u.failed;
  }
};

/// Per-unit host ns per memory op, as measured and scaled to the reference
/// speed by the probe readings taken before and after each unit.
struct Timings {
  std::vector<double> ns_per_op;
  std::vector<double> ref_ns_per_op;
  std::vector<double> probe_ns;
};

/// Runs units until `budget` seconds of wall time have passed (at least
/// `min_units`).
template <typename Fn>
Timings timed_units(double budget, std::size_t min_units, Tally& tally,
                    std::uint64_t& ops, std::uint64_t& sim_cycles, Fn&& unit) {
  Timings t;
  double before = probe_ns_per_iter();
  const Clock::time_point t0 = Clock::now();
  while (t.ns_per_op.size() < min_units ||
         std::chrono::duration<double>(Clock::now() - t0).count() < budget) {
    const UnitResult u = unit();
    const double after = probe_ns_per_iter();
    const double probe = 0.5 * (before + after);
    before = after;
    tally.add(u);
    ops += u.mem_ops;
    sim_cycles += u.sim_cycles;
    const double ns = u.mem_ops ? 1e9 * u.seconds /
                                      static_cast<double>(u.mem_ops)
                                : std::numeric_limits<double>::infinity();
    t.ns_per_op.push_back(ns);
    t.ref_ns_per_op.push_back(ns * to_reference(probe));
    t.probe_ns.push_back(probe);
  }
  return t;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl = make_workload(args.workload);
  if (!wl) usage("unknown workload '" + args.workload + "'");
  Tally tally;

  if (!args.trace) {
    // One set-up before each of kSetups slices of the budget: their median
    // then samples the same host periods as the units, not only the run's
    // first seconds.
    std::vector<double> setups, raw_setups;
    std::uint64_t ops = 0, cycles = 0;
    Timings t;
    for (int i = 0; i < kSetups; ++i) {
      const double before = probe_ns_per_iter();
      const Clock::time_point t0 = Clock::now();
      wl->setup(args.seed);
      const double secs =
          std::chrono::duration<double>(Clock::now() - t0).count();
      const double after = probe_ns_per_iter();
      raw_setups.push_back(secs);
      setups.push_back(secs * to_reference(0.5 * (before + after)));
      if (i == 0) wl->describe(std::cout);
      tally.add(wl->run_unit());  // warm-up, checked like the rest
      const Timings slice =
          timed_units(args.seconds / kSetups, 1, tally, ops, cycles,
                      [&] { return wl->run_unit(); });
      for (const auto& [to, from] :
           {std::pair{&t.ns_per_op, &slice.ns_per_op},
            std::pair{&t.ref_ns_per_op, &slice.ref_ns_per_op},
            std::pair{&t.probe_ns, &slice.probe_ns}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
    }
    std::cout << "seed " << args.seed << ", " << t.ns_per_op.size()
              << " timed units; host speed probe " << median(t.probe_ns)
              << " ns/iter (reference " << kReferenceProbeNs
              << "); unscaled: " << 1e9 / median(t.ns_per_op)
              << " ops/s, setup " << median(raw_setups) << " s\n";
    print_result(
        tally,
        {{"sim_mem_ops_per_s", 1e9 / median(t.ref_ns_per_op), "1/s"},
         {"setup_s", median(setups), "s"},
         {"peak_rss_mb", peak_rss_mb(), "MB"},
         {"sim_mem_cycles_per_op",
          static_cast<double>(cycles) / static_cast<double>(ops), "cycles/op"}});
    return 0;
  }

  // Traced run: half the budget untraced (the overhead base), half traced.
  wl->setup(args.seed);
  wl->describe(std::cout);
  tally.add(wl->run_unit());
  std::uint64_t ops = 0, cycles = 0, traced_ops = 0;
  const Timings plain = timed_units(args.seconds / 2, 2, tally, ops, cycles,
                                    [&] { return wl->run_unit(); });
  Tracer tracer;
  const Tracer::Id unit_id = tracer.intern(args.workload + ".unit");
  const Timings traced =
      timed_units(args.seconds / 2, 2, tally, traced_ops, cycles, [&] {
        const Span s(tracer, unit_id);
        return wl->run_traced_unit(tracer);
      });

  std::map<std::string, double> m;
  for (const char* name : kOtherLayerMetrics) m[name] = 0.0;
  // Every unit of a workload is the same work, so calls per unit depend on
  // the code and the seed only, not on how many units the budget fitted.
  const double per_unit = 1.0 / static_cast<double>(traced.ns_per_op.size());
  const double per_op = 1.0 / static_cast<double>(traced_ops);
  for (const char* span : kSpans) {
    const SpanTotals s = tracer.totals(span);
    m[std::string(span) + ".calls"] = static_cast<double>(s.calls) * per_unit;
    m[std::string(span) + ".self_ns_per_op"] =
        static_cast<double>(s.self_ns) * per_op;
  }
  m["host.unscaled_mem_ops_per_s"] = 1e9 / median(plain.ns_per_op);
  m["host.speed_probe_ns_per_iter"] = median(plain.probe_ns);
  const std::uint64_t iters = tracer.counter("loop.iterations");
  if (iters) {
    m["loop.cycles_per_iter"] =
        static_cast<double>(tracer.counter("loop.cycles")) /
        static_cast<double>(iters);
  }
  const std::uint64_t probes = tracer.totals("sys.can_accept").calls;
  if (probes) {
    m["sys.can_accept.true_ratio"] =
        static_cast<double>(tracer.counter("sys.can_accept.true")) /
        static_cast<double>(probes);
  }
  m["trace.overhead_ratio"] =
      median(traced.ref_ns_per_op) / median(plain.ref_ns_per_op);
  const std::size_t schema = m.size();
  for (const auto& [name, value] : wl->simulated()) m[name] = value;
  wl->traced_extras(m, tally.failed);
  if (m.size() != schema) {
    throw std::logic_error("a workload reported a per-layer metric that is "
                           "not in the list");
  }

  if (!args.trace_out.empty()) {
    std::ofstream f(args.trace_out);
    tracer.write_json(f);
    if (!f) {
      std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
      return 1;
    }
  }
  std::cout << "seed " << args.seed << ", " << plain.ns_per_op.size()
            << " untraced and " << traced.ns_per_op.size()
            << " traced units\n";

  const auto unit_of = [](const std::string& name) -> std::string {
    const auto ends = [&](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends(".calls")) return "count";
    if (ends("_ns_per_op")) return "ns/op";
    if (ends(".ns_per_frame")) return "ns/frame";
    if (ends("_ns_per_iter")) return "ns/iter";
    if (ends("_per_s") || ends("_per_s_direct")) return "1/s";
    if (ends(".cycles_per_iter")) return "cycles/iter";
    return "ratio";
  };
  std::vector<Metric> out;
  for (const auto& [name, value] : m) out.push_back({name, value, unit_of(name)});
  print_result(tally, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* var : kRefusedEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set; unset it (the benchmark measures the default "
                   "simulator configuration only)\n";
      return 2;
    }
  }
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}

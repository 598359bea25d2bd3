#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/stats.hpp"
#include "serve_client.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "tile/topology.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/stream.hpp"
#include "traced_loops.hpp"

namespace perfbench {

namespace sim = fgnvm::sim;
namespace sys = fgnvm::sys;
namespace trace = fgnvm::trace;
using Clock = std::chrono::steady_clock;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  if (seed == 0) return salt;
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

// Paper figures the simulated speed-ups are compared against.
constexpr double kPaperIpcSpeedup = 1.565;  // FgNVM 4x4 over baseline
constexpr double kPaperEnergyRatio = 0.35;  // FgNVM 8x8 over baseline

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

trace::Trace seeded_trace(trace::WorkloadProfile p, std::uint64_t seed,
                          std::uint64_t ops) {
  p.seed = derive_seed(seed, p.seed);
  return trace::generate_trace(p, ops);
}

/// Counts a run as failed unless it matches its reference exactly and
/// retired every record of its trace.
bool matches(const sim::RunResult& ref, const sim::RunResult& got,
             std::size_t records) {
  return got.reads + got.writes == records &&
         sim::diff_results(ref, got).empty();
}

std::string signed_pct(double measured, double paper) {
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(1)
     << 100.0 * (measured / paper - 1.0) << "%";
  return os.str();
}

// ---------------------------------------------------------------- fig4_sweep

/// The Figure-4/5 sweep: 12 profiles x {baseline, FgNVM 4x4, FgNVM 8x8},
/// full system, one channel, serial.
class Fig4Sweep final : public Workload {
 public:
  static constexpr std::uint64_t kOps = 6000;

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    traces_.clear();  // release the previous set-up before building the next
    refs_.clear();
    configs_ = {sys::baseline_config(), sys::fgnvm_config(4, 4),
                sys::fgnvm_config(8, 8)};
    for (const trace::WorkloadProfile& p : trace::spec2006_profiles()) {
      traces_.push_back(seeded_trace(p, seed, kOps));
    }
    refs_.assign(traces_.size(), {});
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      for (const sys::SystemConfig& cfg : configs_) {
        refs_[t].push_back(sim::run_workload(traces_[t], cfg, {}, 500'000'000,
                                             sim::LoopMode::kCycleAccurate));
      }
    }
  }

  UnitResult run_unit() override {
    std::vector<sim::RunResult> got;
    got.reserve(traces_.size() * configs_.size());
    const Clock::time_point t0 = Clock::now();
    for (const trace::Trace& tr : traces_) {
      for (const sys::SystemConfig& cfg : configs_) {
        got.push_back(sim::run_workload(tr, cfg, {}, 500'000'000,
                                        sim::LoopMode::kEventSkip));
      }
    }
    UnitResult u;
    u.seconds = seconds_since(t0);
    check(got, u);
    return u;
  }

  UnitResult run_traced_unit(Tracer& tracer) override {
    std::vector<sim::RunResult> got;
    const Clock::time_point t0 = Clock::now();
    for (const trace::Trace& tr : traces_) {
      for (const sys::SystemConfig& cfg : configs_) {
        got.push_back(traced_run_workload(tr, cfg, tracer));
      }
    }
    UnitResult u;
    u.seconds = seconds_since(t0);
    check(got, u);
    return u;
  }

  /// The many-core layer (ManycoreLayer below).
  void traced_extras(std::map<std::string, double>& metrics,
                     std::uint64_t& failed) override;

  std::map<std::string, double> simulated() const override {
    std::vector<double> speedup, energy;
    for (const std::vector<sim::RunResult>& r : refs_) {
      speedup.push_back(r[1].ipc / r[0].ipc);
      energy.push_back(r[2].energy_per_op_pj() / r[0].energy_per_op_pj());
    }
    return {{"sim_ipc_speedup", fgnvm::arithmetic_mean(speedup)},
            {"sim_energy_ratio", fgnvm::arithmetic_mean(energy)}};
  }

  void describe(std::ostream& os) const override {
    const std::map<std::string, double> s = simulated();
    os << "fig4_sweep: " << traces_.size() << " profiles x "
       << configs_.size() << " configs x " << kOps
       << " ops, full system, one channel, serial\n"
       << "  sim_ipc_speedup  " << s.at("sim_ipc_speedup")
       << "  FgNVM 4x4 IPC / baseline IPC, mean of 12 (simulated; paper "
       << kPaperIpcSpeedup << ", error "
       << signed_pct(s.at("sim_ipc_speedup"), kPaperIpcSpeedup) << ")\n"
       << "  sim_energy_ratio " << s.at("sim_energy_ratio")
       << "  FgNVM 8x8 energy/op / baseline, mean of 12 (simulated; paper "
       << kPaperEnergyRatio << ", error "
       << signed_pct(s.at("sim_energy_ratio"), kPaperEnergyRatio) << ")\n"
       << "  The model has no validation beyond these two paper figures.\n";
  }

 private:
  void check(const std::vector<sim::RunResult>& got, UnitResult& u) const {
    std::size_t i = 0;
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      for (std::size_t c = 0; c < configs_.size(); ++c, ++i) {
        ++u.attempted;
        u.mem_ops += got[i].reads + got[i].writes;
        u.sim_cycles += got[i].mem_cycles;
        if (!matches(refs_[t][c], got[i], traces_[t].records.size())) {
          ++u.failed;
        }
      }
    }
  }

  std::uint64_t seed_ = 0;
  std::vector<sys::SystemConfig> configs_;
  std::vector<trace::Trace> traces_;
  std::vector<std::vector<sim::RunResult>> refs_;  // [trace][config]
};

// ------------------------------------------------------------ memonly_writes

/// Write-heavy mcf, memory-only, on a deep-queue 4-channel 8x8 system.
/// A unit runs kTraces traces of one seed: the host cost per op of a single
/// trace differs by up to 1.2x from seed to seed, and a unit's cost is the
/// mean over its traces.
class MemonlyWrites final : public Workload {
 public:
  static constexpr std::uint64_t kOps = 15000;
  static constexpr std::size_t kTraces = 4;

  void setup(std::uint64_t seed) override {
    traces_.clear();  // release the previous set-up before building the next
    refs_.clear();
    cfg_ = sys::fgnvm_config(8, 8);
    cfg_.geometry.channels = 4;
    cfg_.geometry.validate();
    cfg_.controller.read_queue_cap = 64;
    cfg_.controller.write_queue_cap = 128;
    cfg_.controller.wq_high = 64;
    cfg_.controller.wq_low = 16;
    trace::WorkloadProfile p = trace::spec2006_profile("mcf");
    p.name = "mcf_w80";
    p.write_fraction = 0.8;
    const std::uint64_t profile_seed = p.seed;
    for (std::size_t i = 0; i < kTraces; ++i) {
      p.seed = profile_seed + i;
      traces_.push_back(seeded_trace(p, seed, kOps));
      refs_.push_back(sim::run_memory_only(traces_.back(), cfg_, 500'000'000,
                                           sim::LoopMode::kCycleAccurate));
    }
  }

  UnitResult run_unit() override {
    std::vector<sim::RunResult> got;
    const Clock::time_point t0 = Clock::now();
    for (const trace::Trace& tr : traces_) {
      got.push_back(sim::run_memory_only(tr, cfg_, 500'000'000,
                                         sim::LoopMode::kEventSkip));
    }
    return checked(got, seconds_since(t0));
  }

  UnitResult run_traced_unit(Tracer& tracer) override {
    std::vector<sim::RunResult> got;
    const Clock::time_point t0 = Clock::now();
    for (const trace::Trace& tr : traces_) {
      got.push_back(traced_run_memory_only(tr, cfg_, tracer));
    }
    return checked(got, seconds_since(t0));
  }

  void describe(std::ostream& os) const override {
    os << "memonly_writes: mcf with 80% writes, " << kTraces << " traces x "
       << kOps << " ops, memory-only, FgNVM 8x8, 4 channels, 64/128-entry "
          "queues, wq_high/wq_low 64/16\n";
  }

 private:
  UnitResult checked(const std::vector<sim::RunResult>& got,
                     double seconds) const {
    UnitResult u;
    u.seconds = seconds;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ++u.attempted;
      u.mem_ops += got[i].reads + got[i].writes;
      u.sim_cycles += got[i].mem_cycles;
      if (!matches(refs_[i], got[i], traces_[i].records.size())) ++u.failed;
    }
    return u;
  }

  sys::SystemConfig cfg_;
  std::vector<trace::Trace> traces_;
  std::vector<sim::RunResult> refs_;
};

// -------------------------------------------------------- many-core layer

/// The many-core wake schedule (ROADMAP item 3), measured in fig4_sweep's
/// traced runs: 64 cores rotating through the ablation_multicore mix on one
/// channel, which keeps its queues full. It is not a workload of its own:
/// on a shared host its run-to-run spread (0.13 to 0.44 over ten seeds) was
/// wider than any end-to-end bound the benchmark may set.
class ManycoreLayer {
 public:
  static constexpr std::uint64_t kOpsPerCore = 200;
  static constexpr std::size_t kCores = 64;

  /// Sets sim.run_multiprogrammed.*, sim.doubling_ratio (median wall time
  /// at 64 cores over 32, same ops per core) and sim_weighted_speedup. A
  /// 64-core run that differs from its cycle-accurate reference counts in
  /// `failed`.
  void measure(std::uint64_t seed, std::map<std::string, double>& metrics,
               std::uint64_t& failed) const {
    const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
    std::vector<trace::Trace> traces;
    for (const char* name : {"mcf", "lbm", "milc", "omnetpp", "soplex",
                             "libquantum", "bwaves", "sphinx3"}) {
      traces.push_back(
          seeded_trace(trace::spec2006_profile(name), seed, kOpsPerCore));
    }
    std::vector<std::unique_ptr<trace::TraceSource>> cursors;
    std::vector<double> alone;
    for (std::size_t i = 0; i < kCores; ++i) {
      const trace::Trace& tr = traces[i % traces.size()];
      cursors.push_back(std::make_unique<trace::TraceSource>(tr));
      alone.push_back(i < traces.size() ? sim::run_workload(tr, cfg).ipc
                                        : alone[i % traces.size()]);
    }
    const auto sources = [&](std::size_t cores) {
      std::vector<trace::RecordSource*> s;
      for (std::size_t i = 0; i < cores; ++i) s.push_back(cursors[i].get());
      return s;
    };
    const sim::MultiProgramResult ref = sim::run_multiprogrammed(
        sources(kCores), cfg, {}, 500'000'000, sim::LoopMode::kCycleAccurate);

    Tracer tracer;
    const Tracer::Id id = tracer.intern("sim.run_multiprogrammed");
    const auto median_wall = [&](std::size_t cores) {
      std::vector<double> walls;
      for (int i = 0; i < 3; ++i) {
        const Clock::time_point t0 = Clock::now();
        sim::MultiProgramResult r;
        {
          const Span s(tracer, id);
          r = sim::run_multiprogrammed(sources(cores), cfg, {}, 500'000'000,
                                       sim::LoopMode::kEventSkip);
        }
        walls.push_back(seconds_since(t0));
        if (cores == kCores && !sim::diff_results(ref, r).empty()) ++failed;
      }
      std::sort(walls.begin(), walls.end());
      return walls[1];
    };
    const double wall64 = median_wall(kCores);
    const SpanTotals s = tracer.totals("sim.run_multiprogrammed");
    metrics["sim.run_multiprogrammed.calls"] = static_cast<double>(s.calls);
    metrics["sim.run_multiprogrammed.self_ns_per_op"] =
        static_cast<double>(s.self_ns) /
        static_cast<double>(s.calls * kCores * kOpsPerCore);
    metrics["sim.doubling_ratio"] = wall64 / median_wall(kCores / 2);
    metrics["sim_weighted_speedup"] = ref.weighted_speedup(alone);
  }
};

void Fig4Sweep::traced_extras(std::map<std::string, double>& metrics,
                              std::uint64_t& failed) {
  ManycoreLayer().measure(seed_, metrics, failed);
}

// -------------------------------------------------------------- serve_stream

/// milc on a 4-channel 4x4 system, served to 4 socketpair clients.
class ServeStream final : public Workload {
 public:
  static constexpr std::uint64_t kOps = 60000;
  static constexpr unsigned kClients = 4;

  void setup(std::uint64_t seed) override {
    trace_ = {};  // release the previous set-up before building the next
    streams_ = {};
    ref_ = {};
    cfg_ = sys::fgnvm_config(4, 4);
    cfg_.geometry.channels = 4;
    cfg_.geometry.validate();
    trace_ = seeded_trace(trace::spec2006_profile("milc"), seed, kOps);
    streams_ = split_by_channel(trace_, cfg_, kClients);
    fgnvm::tile::TopologyConfig serial;
    serial.shards = 1;
    serial.worker_threads = false;
    ref_ = fgnvm::tile::run_sharded(trace_, cfg_, serial).run;
  }

  UnitResult run_unit() override {
    return checked(serve_stream(streams_, cfg_));
  }

  UnitResult run_traced_unit(Tracer& tracer) override {
    const ServeOutcome o = serve_stream(streams_, cfg_, &tracer);
    parks_ += o.front.parks;
    busy_ += o.front.busy_frames;
    frames_in_ += o.front.frames_in;
    return checked(o);
  }

  void traced_extras(std::map<std::string, double>& metrics,
                     std::uint64_t& failed) override {
    const double frames_in = static_cast<double>(frames_in_);
    metrics["front.park_rate"] =
        frames_in > 0 ? static_cast<double>(parks_) / frames_in : 0.0;
    metrics["front.busy_rate"] =
        frames_in > 0 ? static_cast<double>(busy_) / frames_in : 0.0;

    // Socket-free replay of the same stream; its spans are reported per
    // direct frame, apart from the served ones.
    Tracer direct;
    const DirectOutcome d = direct_replay(trace_, cfg_, direct);
    if (d.completions != ref_.reads ||
        !matches(ref_, d.result, trace_.records.size())) {
      ++failed;
    }
    metrics["tile.frames_per_s_direct"] =
        static_cast<double>(d.frames) / d.seconds;
    for (const char* span : {"tile.try_submit_batch", "tile.pump",
                             "tile.poll_completions", "tile.flush",
                             "tile.finish"}) {
      const SpanTotals s = direct.totals(span);
      metrics[std::string(span) + ".calls"] = static_cast<double>(s.calls);
      metrics[std::string(span) + ".self_ns_per_op"] =
          static_cast<double>(s.self_ns) / static_cast<double>(d.frames);
    }
    metrics["frame.decode_batch.ns_per_frame"] =
        decode_batch_ns_per_frame(streams_);
  }

  void describe(std::ostream& os) const override {
    os << "serve_stream: milc, " << kOps << " R/W frames, FgNVM 4x4, "
       << cfg_.geometry.channels << " channels, " << kClients
       << " socketpair clients on one poll() thread, FrontTier over serial "
          "shards on one server thread\n"
       << "  one R/W frame is one memory op: sim_mem_ops_per_s is the serve "
          "frames per second, first byte sent to last 'S' frame\n";
  }

 private:
  UnitResult checked(const ServeOutcome& o) const {
    UnitResult u;
    u.seconds = o.seconds;
    u.attempted = o.frames;
    u.mem_ops = o.answered;
    u.sim_cycles = o.result.mem_cycles;
    const bool whole = o.completed && o.errors == 0 && o.stats_ok &&
                       matches(ref_, o.result, trace_.records.size());
    u.failed = whole ? o.frames - o.answered : o.frames;
    return u;
  }

  sys::SystemConfig cfg_;
  trace::Trace trace_;
  ServeStreams streams_;
  sim::RunResult ref_;
  std::uint64_t parks_ = 0, busy_ = 0, frames_in_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig4_sweep", "memonly_writes", "serve_stream"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig4_sweep") return std::make_unique<Fig4Sweep>();
  if (name == "memonly_writes") return std::make_unique<MemonlyWrites>();
  if (name == "serve_stream") return std::make_unique<ServeStream>();
  return nullptr;
}

}  // namespace perfbench

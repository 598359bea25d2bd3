// fgnvm_sim — the NVMain-style command-line simulator.
//
// Drives one workload (a trace file or a named synthetic profile) through a
// memory system described by a key=value config file, and prints a human
// summary and/or a JSON report.
//
//   fgnvm_sim --config configs/fgnvm_4x4.cfg --workload lbm --ops 50000
//   fgnvm_sim --config configs/baseline.cfg --trace mcf.trace --json out.json
//   fgnvm_sim --config configs/dram_salp8.cfg --workload milc --memory-only
//   fgnvm_sim --config configs/fgnvm_4x4.cfg --workload milc --obs out/milc
#include <algorithm>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/cli.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sys/hybrid.hpp"
#include "sys/memory_system.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/spec_profiles.hpp"

namespace {

struct Options {
  std::string config_path;
  std::optional<std::string> trace_path;
  std::optional<std::string> workload;
  std::uint64_t ops = 20000;
  std::optional<std::string> json_path;
  std::optional<std::string> obs_prefix;
  bool memory_only = false;
};

int usage() {
  std::cerr
      << "usage: fgnvm_sim --config <file> (--trace <file> | --workload "
         "<name>)\n"
         "                 [--ops N] [--json <file>] [--memory-only]\n"
         "                 [--obs <prefix>]   enable request tracing; writes\n"
         "                                    <prefix>.json, "
         "<prefix>.timeseries.csv,\n"
         "                                    <prefix>.requests.csv\n"
         "Named workloads: ";
  for (const auto& p : fgnvm::trace::spec2006_profiles()) {
    std::cerr << p.name << " ";
  }
  std::cerr << "\n";
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--config") {
      const auto v = next();
      if (!v) return std::nullopt;
      o.config_path = *v;
    } else if (arg == "--trace") {
      o.trace_path = next();
    } else if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--ops") {
      const auto v = next();
      if (!v) return std::nullopt;
      o.ops = fgnvm::uint_flag_or_exit(
          argv[0], arg, *v, 1, std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--obs") {
      o.obs_prefix = next();
      if (!o.obs_prefix) return std::nullopt;
    } else if (arg == "--memory-only") {
      o.memory_only = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  if (o.config_path.empty() || (!o.trace_path && !o.workload)) {
    return std::nullopt;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgnvm;
  const auto opts = parse(argc, argv);
  if (!opts) return usage();

  try {
    const Config raw = Config::from_file(opts->config_path);
    sys::SystemConfig cfg = sys::SystemConfig::from_config(raw);
    if (opts->obs_prefix) cfg.obs.enabled = true;
    // `hybrid = true` puts a DRAM partition with RBLA migration in front of
    // the FgNVM backend (DESIGN.md §13); hybrid_* keys tune it.
    sim::SystemSpec spec = cfg;
    if (raw.get_bool("hybrid", false)) {
      sys::HybridSystemConfig h = sys::HybridSystemConfig::from_config(raw);
      h.nvm.obs.enabled = cfg.obs.enabled;
      spec = std::move(h);
    }
    const auto* hybrid = std::get_if<sys::HybridSystemConfig>(&spec);
    const cpu::CpuParams cpu_params = cpu::CpuParams::from_config(raw);
    // Every component has read its keys now: anything left is a key no
    // component knows (a misspelling would otherwise run the defaults), or
    // a key only another kind of system reads.
    if (const std::vector<std::string> unread = raw.unread_keys();
        !unread.empty()) {
      Config other = raw;
      if (!hybrid) {
        try {
          (void)sys::HybridConfig::from_config(other);
        } catch (const std::exception&) {
          // A bad hybrid value still marks its key as read.
        }
      }
      const std::vector<std::string> unknown = other.unread_keys();
      std::vector<std::string> unused;
      std::set_difference(unread.begin(), unread.end(), unknown.begin(),
                          unknown.end(), std::back_inserter(unused));
      if (!unknown.empty()) {
        std::cerr << "error: " << opts->config_path
                  << ": unknown config key(s):";
        for (const std::string& key : unknown) {
          std::cerr << " '" << key << "'";
          if (const auto hint = other.nearest_asked_key(key)) {
            std::cerr << " (did you mean '" << *hint << "'?)";
          }
        }
        std::cerr << "\n";
      }
      if (!unused.empty()) {
        std::cerr << "error: " << opts->config_path
                  << ": config key(s) not used by this system:";
        for (const std::string& key : unused) std::cerr << " '" << key << "'";
        std::cerr << " (hybrid keys need hybrid = true)\n";
      }
      return 2;
    }

    trace::Trace tr;
    if (opts->trace_path) {
      tr = trace::read_trace_any_file(*opts->trace_path);
    } else {
      tr = trace::generate_trace(trace::spec2006_profile(*opts->workload),
                                 opts->ops);
    }

    std::cout << "config:   " << cfg.name << " (" << cfg.geometry.to_string()
              << ")\n"
              << "timing:   " << cfg.timing.to_string() << "\n";
    if (hybrid) {
      std::cout << "hybrid:   DRAM partition " << hybrid->hybrid.dram_banks
                << " banks x " << hybrid->hybrid.dram_rows
                << " rows, RBLA threshold "
                << hybrid->hybrid.migration_threshold << ", epoch "
                << hybrid->hybrid.migration_epoch << "\n";
    }
    std::cout << "workload: " << tr.name << ", " << tr.records.size()
              << " memory ops, " << tr.total_instructions()
              << " instructions\n\n";

    const sim::RunResult r = opts->memory_only
                                 ? sim::run_memory_only(tr, spec)
                                 : sim::run_workload(tr, spec, cpu_params);

    if (!opts->memory_only) {
      std::cout << "IPC                 " << r.ipc << "\n";
    }
    std::cout << "memory cycles       " << r.mem_cycles << "\n"
              << "reads / writes      " << r.reads << " / " << r.writes << "\n"
              << "avg read latency    " << r.avg_read_latency
              << " memory cycles\n"
              << "energy per op       " << r.energy_per_op_pj() << " pJ\n"
              << "activations (R/W)   " << r.banks.acts_for_read << " / "
              << r.banks.acts_for_write << "\n"
              << "underfetch ACTs     " << r.banks.underfetch_acts << "\n";
    if (hybrid) {
      const double hits =
          static_cast<double>(r.controller.counter("hybrid_dram_hits"));
      const double total =
          hits +
          static_cast<double>(r.controller.counter("hybrid_nvm_accesses"));
      std::cout << "migrations          "
                << r.controller.counter("hybrid_migrations") << " in, "
                << r.controller.counter("hybrid_demotions") << " out\n"
                << "DRAM hit rate       "
                << (total == 0 ? 0.0 : hits / total) << "\n";
    }

    if (opts->json_path) {
      std::ofstream f(*opts->json_path);
      if (!f) throw std::runtime_error("cannot open " + *opts->json_path);
      f << sim::to_json(r) << "\n";
      std::cout << "\nJSON report written to " << *opts->json_path << "\n";
    }

    if (opts->obs_prefix) {
      if (!r.obs) throw std::runtime_error("--obs: no observer in result");
      const auto write_file = [](const std::string& path,
                                 const std::string& body) {
        std::ofstream f(path);
        if (!f) throw std::runtime_error("cannot open " + path);
        f << body;
      };
      write_file(*opts->obs_prefix + ".json", sim::obs_json(*r.obs) + "\n");
      write_file(*opts->obs_prefix + ".timeseries.csv",
                 sim::obs_timeseries_csv(*r.obs));
      write_file(*opts->obs_prefix + ".requests.csv",
                 sim::obs_requests_csv(*r.obs));
      std::cout << "obs reports written to " << *opts->obs_prefix
                << ".{json,timeseries.csv,requests.csv}\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

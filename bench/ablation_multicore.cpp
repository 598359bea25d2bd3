// Ablation: multi-programmed scaling (extension beyond the paper's
// single-threaded evaluation).
//
// Default mode runs 2/4/8-workload mixes against one shared memory system
// and reports weighted speedup (sum of shared/alone IPC). Under sharing the
// memory sees far more concurrent requests than one ROB can issue, so this
// is where the tile-level parallelism claims face the most pressure.
//
// Many-core mode (--cores N, N up to 1024) stresses the thousand-core
// engine: N tenants cycling through the 8-workload mix share one FgNVM,
// reported with per-tenant IPC, slowdown, fairness, and harmonic speedup.
// With --stream the tenants replay FGS1 stream files through bounded
// readahead windows instead of in-RAM traces, and the run self-checks that
// streamed stats are byte-identical to the materialized run and that reader
// residency stayed within the window.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/runner.hpp"
#include "sys/presets.hpp"
#include "trace/stream.hpp"

namespace {

using namespace fgnvm;

const std::vector<std::string>& mix8() {
  static const std::vector<std::string> m = {
      "mcf",    "lbm",        "milc",   "omnetpp",
      "soplex", "libquantum", "bwaves", "sphinx3"};
  return m;
}

/// Deletes its stream files on scope exit (including early error returns).
struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const std::string& p : paths) std::remove(p.c_str());
  }
};

int run_manycore(std::uint64_t ops, std::size_t cores, bool stream) {
  const sys::SystemConfig cfg = sys::fgnvm_config(4, 4);
  std::cout << "Many-core tenancy: " << cores << " cores x " << ops
            << " ops, " << mix8().size() << "-workload rotation, "
            << (stream ? "FGS1 streamed" : "materialized") << " traces\n\n";

  const benchutil::TraceSet trace_set(ops);
  const std::vector<trace::Trace> tenants = trace_set.mix(mix8());

  // Alone IPC per workload (each tenant of workload w shares its alone run).
  std::vector<double> alone_by_wl;
  for (const trace::Trace& tr : tenants) {
    alone_by_wl.push_back(sim::run_workload(tr, cfg).ipc);
  }
  std::vector<double> alone(cores);
  for (std::size_t i = 0; i < cores; ++i) {
    alone[i] = alone_by_wl[i % tenants.size()];
  }

  // Materialized tenants are cursors over the 8 shared traces — core count
  // never multiplies trace memory.
  std::vector<std::unique_ptr<trace::RecordSource>> owned;
  owned.reserve(cores);
  std::vector<trace::RecordSource*> sources;
  sources.reserve(cores);

  TempFiles tmp;
  if (stream) {
    for (std::size_t w = 0; w < tenants.size(); ++w) {
      std::string path = "/tmp/fgnvm_mc_" + std::to_string(::getpid()) + "_" +
                         std::to_string(w) + ".fgs";
      trace::write_trace_stream_file(path, tenants[w]);
      tmp.paths.push_back(std::move(path));
    }
    trace::StreamReaderOptions opts;
    opts.window_bytes = 128u << 10;  // small window: residency, not length
    for (std::size_t i = 0; i < cores; ++i) {
      owned.push_back(std::make_unique<trace::StreamReader>(
          tmp.paths[i % tmp.paths.size()], opts));
      sources.push_back(owned.back().get());
    }
  } else {
    for (std::size_t i = 0; i < cores; ++i) {
      owned.push_back(
          std::make_unique<trace::TraceSource>(tenants[i % tenants.size()]));
      sources.push_back(owned.back().get());
    }
  }

  const sim::MultiProgramResult r = sim::run_multiprogrammed(sources, cfg);

  if (stream) {
    // Self-check 1: streamed replay must be byte-identical to the same mix
    // materialized in RAM.
    std::vector<std::unique_ptr<trace::TraceSource>> cursors;
    std::vector<trace::RecordSource*> mat;
    for (std::size_t i = 0; i < cores; ++i) {
      cursors.push_back(
          std::make_unique<trace::TraceSource>(tenants[i % tenants.size()]));
      mat.push_back(cursors.back().get());
    }
    const sim::MultiProgramResult rm = sim::run_multiprogrammed(mat, cfg);
    const std::string diff = sim::diff_results(r, rm);
    if (!diff.empty()) {
      std::cerr << "FAIL: streamed vs materialized stats diverge: " << diff
                << "\n";
      return 1;
    }
    // Self-check 2: reader residency stayed within the readahead window
    // (plus one page of alignment slack) for every tenant.
    for (std::size_t i = 0; i < cores; ++i) {
      const auto* sr = static_cast<const trace::StreamReader*>(sources[i]);
      if (sr->peak_resident_bytes() > sr->window_bytes() + 4096) {
        std::cerr << "FAIL: tenant " << i << " resident "
                  << sr->peak_resident_bytes() << "B exceeds window "
                  << sr->window_bytes() << "B\n";
        return 1;
      }
    }
    std::cout << "self-check: streamed == materialized stats; peak reader "
                 "residency <= window + page\n\n";
  }

  // Per-workload view: tenants of one workload are identical, so group them.
  Table t({"workload", "tenants", "alone IPC", "shared IPC", "slowdown"});
  const std::vector<double> slow = r.slowdowns(alone);
  for (std::size_t w = 0; w < tenants.size() && w < cores; ++w) {
    double ipc_sum = 0.0, slow_sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = w; i < cores; i += tenants.size()) {
      ipc_sum += r.ipc[i];
      slow_sum += slow[i];
      ++n;
    }
    t.add_row({tenants[w].name, std::to_string(n),
               Table::fmt(alone_by_wl[w], 3),
               Table::fmt(ipc_sum / static_cast<double>(n), 3),
               Table::fmt(slow_sum / static_cast<double>(n), 2)});
  }
  std::cout << t.to_text() << "\n";
  std::cout << "weighted speedup  " << Table::fmt(r.weighted_speedup(alone), 2)
            << "  (max " << cores << ")\n"
            << "harmonic speedup  " << Table::fmt(r.harmonic_speedup(alone), 4)
            << "\n"
            << "fairness          " << Table::fmt(r.fairness(alone), 3)
            << "  (min/max slowdown; 1 = even degradation)\n"
            << "max slowdown      " << Table::fmt(r.max_slowdown(alone), 1)
            << "\n"
            << "memory cycles     " << r.mem_cycles << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgnvm;

  // [ops] [--cores N] [--stream]; bare numeric argument = per-core op count.
  std::uint64_t ops = 6000;
  bool ops_given = false;
  std::size_t cores = 0;
  bool stream = false;
  const auto parse_u64 = [&](const char* text,
                             const char* what) -> std::uint64_t {
    const auto v =
        parse_uint(text, 1, std::numeric_limits<std::uint64_t>::max());
    if (!v) {
      std::cerr << argv[0] << ": invalid " << what << " '" << text << "'\n"
                << "usage: " << argv[0]
                << " [ops] [--cores N] [--stream]\n";
      std::exit(2);
    }
    return *v;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cores") == 0 && i + 1 < argc) {
      cores = static_cast<std::size_t>(parse_u64(argv[++i], "--cores"));
      if (cores > 1024) {
        std::cerr << argv[0] << ": --cores capped at 1024\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
    } else {
      ops = parse_u64(argv[i], "ops argument");
      ops_given = true;
    }
  }
  if (!ops_given) {
    if (const char* env = std::getenv("FGNVM_BENCH_OPS")) {
      ops = parse_u64(env, "FGNVM_BENCH_OPS");
    }
  }
  if (cores > 0) return run_manycore(ops, cores, stream);

  const std::vector<std::string>& mix = mix8();
  const std::vector<sys::SystemConfig> configs = {
      sys::baseline_config(),
      sys::fgnvm_config(4, 4),
      sys::fgnvm_config(4, 4, /*multi_issue=*/true),
      sys::many_banks_config(4, 4),
  };

  std::cout << "Ablation: weighted speedup of multi-programmed mixes ("
            << ops << " ops per core; higher is better, max = #cores)\n\n";

  // Generate each mix trace once and compute each (config, workload)
  // alone-IPC once: every core count reuses the same 8-workload prefix.
  const benchutil::TraceSet trace_set(ops);
  const std::vector<trace::Trace> mix_traces = trace_set.mix(mix);
  std::vector<std::vector<double>> alone(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (const auto& tr : mix_traces) {
      alone[c].push_back(sim::run_workload(tr, configs[c]).ipc);
    }
  }

  Table t({"cores", "baseline", "fgnvm 4x4", "fgnvm+MI", "128 banks"});
  for (const std::size_t cores_n : {2u, 4u, 8u}) {
    const std::vector<trace::Trace> traces(mix_traces.begin(),
                                           mix_traces.begin() + cores_n);
    std::vector<std::string> row{std::to_string(cores_n)};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::vector<double> alone_slice(alone[c].begin(),
                                            alone[c].begin() + cores_n);
      const sim::MultiProgramResult r =
          sim::run_multiprogrammed(traces, configs[c]);
      row.push_back(Table::fmt(r.weighted_speedup(alone_slice), 2));
    }
    t.add_row(row);
  }
  std::cout << t.to_text() << "\n";
  std::cout << "Weighted speedup = sum_i IPC_shared_i / IPC_alone_i under "
               "the same memory design.\nHigher retention under sharing "
               "means the design scales its internal parallelism.\n";
  return 0;
}

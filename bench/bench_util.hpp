// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/sweep.hpp"
#include "sim/runner.hpp"
#include "sys/memory_system.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::benchutil {

/// Memory ops simulated per benchmark: argv[1] if given, else env
/// FGNVM_BENCH_OPS, else `dflt`. Keeps `ctest`-style quick runs and full
/// paper-scale runs in one binary. Rejects non-numeric, zero, or
/// out-of-range counts with a usage message (exit 2).
inline std::uint64_t ops_from_args(int argc, char** argv,
                                   std::uint64_t dflt = 30000) {
  const auto parse = [&](const char* text, const char* what) -> std::uint64_t {
    const auto v =
        parse_uint(text, 1, std::numeric_limits<std::uint64_t>::max());
    if (!v) {
      std::cerr << argv[0] << ": invalid " << what << " '" << text
                << "' — expected a positive integer memory-op count\n"
                << "usage: " << argv[0]
                << " [ops] (or set FGNVM_BENCH_OPS=<ops>)\n";
      std::exit(2);
    }
    return *v;
  };
  if (argc > 1) return parse(argv[1], "ops argument");
  if (const char* env = std::getenv("FGNVM_BENCH_OPS")) {
    return parse(env, "FGNVM_BENCH_OPS");
  }
  return dflt;
}

/// Generates the evaluation traces (all SPEC2006-like profiles).
inline std::vector<trace::Trace> evaluation_traces(std::uint64_t memory_ops) {
  std::vector<trace::Trace> traces;
  for (const trace::WorkloadProfile& p : trace::spec2006_profiles()) {
    traces.push_back(trace::generate_trace(p, memory_ops));
  }
  return traces;
}

/// Parallel variant: generates the traces on `pool` (generation is seeded
/// per profile, so the result is identical to the serial overload).
inline std::vector<trace::Trace> evaluation_traces(std::uint64_t memory_ops,
                                                   sim::SweepRunner& pool) {
  const std::vector<trace::WorkloadProfile> profiles =
      trace::spec2006_profiles();
  std::vector<trace::Trace> traces(profiles.size());
  pool.for_each(profiles.size(), [&](std::size_t i) {
    traces[i] = trace::generate_trace(profiles[i], memory_ops);
  });
  return traces;
}

/// Every evaluation profile's trace, generated exactly once per binary and
/// handed out as `const trace::Trace&` so sweep cells, config loops, and
/// pool threads all share one copy (generation is seeded per profile, so a
/// shared set is identical to regenerating). Use this instead of calling
/// evaluation_traces()/generate_trace() inside a loop.
class TraceSet {
 public:
  explicit TraceSet(std::uint64_t memory_ops)
      : traces_(evaluation_traces(memory_ops)) {}
  TraceSet(std::uint64_t memory_ops, sim::SweepRunner& pool)
      : traces_(evaluation_traces(memory_ops, pool)) {}

  const std::vector<trace::Trace>& all() const { return traces_; }

  /// The trace for one profile. An unknown name is a driver bug, not user
  /// input: report and exit rather than throwing out of main.
  const trace::Trace& by_name(const std::string& name) const {
    for (const trace::Trace& t : traces_) {
      if (t.name == name) return t;
    }
    std::cerr << "TraceSet: no trace named '" << name << "'\n";
    std::exit(2);
  }

  /// A multiprogrammed mix: one trace per entry, order and duplicates
  /// preserved. Copies the records (run_multiprogrammed wants a contiguous
  /// vector) but never regenerates them.
  std::vector<trace::Trace> mix(const std::vector<std::string>& names) const {
    std::vector<trace::Trace> out;
    out.reserve(names.size());
    for (const std::string& n : names) out.push_back(by_name(n));
    return out;
  }

  /// `count` copies of one profile — a homogeneous multiprogrammed mix.
  std::vector<trace::Trace> copies(const std::string& name,
                                   std::size_t count) const {
    return std::vector<trace::Trace>(count, by_name(name));
  }

 private:
  std::vector<trace::Trace> traces_;
};

/// One workload's runs from sweep_workloads, in the caller's config order.
struct WorkloadRuns {
  std::string name;                      // trace name
  sim::RunResult base;                   // baseline config run
  std::vector<sim::RunResult> variants;  // one result per variant config
};

/// Runs every (trace, config) pair — baseline plus each variant — on the
/// pool and returns results indexed by trace. Result/table order depends
/// only on the input order, never on scheduling, so driver output is
/// byte-identical at any thread count.
inline std::vector<WorkloadRuns> sweep_workloads(
    sim::SweepRunner& pool, const std::vector<trace::Trace>& traces,
    const sys::SystemConfig& baseline,
    const std::vector<sys::SystemConfig>& variants) {
  const std::size_t ncfg = 1 + variants.size();
  std::vector<WorkloadRuns> out(traces.size());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    out[t].name = traces[t].name;
    out[t].variants.resize(variants.size());
  }
  pool.for_each(traces.size() * ncfg, [&](std::size_t i) {
    const std::size_t t = i / ncfg;
    const std::size_t c = i % ncfg;
    if (c == 0) {
      out[t].base = sim::run_workload(traces[t], baseline);
    } else {
      out[t].variants[c - 1] = sim::run_workload(traces[t], variants[c - 1]);
    }
  });
  return out;
}

}  // namespace fgnvm::benchutil

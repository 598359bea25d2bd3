// The benchmark's three workloads (README.md says why each was chosen).
//
// A workload is set up from a seed (trace generation, system construction
// and the reference results the correctness check compares against), then
// run as repeated units. A unit is timed by the workload itself and checked
// against the references after its clock stops.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// Seed of one generated trace: `salt` (the profile's own seed) when the
/// benchmark seed is 0, otherwise a SplitMix64 mix of both.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

struct UnitResult {
  std::uint64_t mem_ops = 0;     // reads + writes retired (frames: serve)
  std::uint64_t attempted = 0;   // simulation runs (frames: serve)
  std::uint64_t failed = 0;      // of `attempted`, those that mismatched
  std::uint64_t sim_cycles = 0;  // simulated memory cycles, summed
  double seconds = 0.0;          // host seconds of the timed span
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the traces, systems and reference results for `seed`,
  /// replacing any earlier set-up.
  virtual void setup(std::uint64_t seed) = 0;
  /// One timed unit through the simulator's public entry points.
  virtual UnitResult run_unit() = 0;
  /// One unit with spans recorded into `tracer`.
  virtual UnitResult run_traced_unit(Tracer& tracer) = 0;
  /// Per-layer figures measured once after the traced units (checked like
  /// a unit: mismatches land in `failed`).
  virtual void traced_extras(std::map<std::string, double>& metrics,
                             std::uint64_t& failed) {
    (void)metrics;
    (void)failed;
  }
  /// Simulated figures of the set-up references, by per-layer metric name.
  virtual std::map<std::string, double> simulated() const { return {}; }
  /// Human-readable lines printed before the result.
  virtual void describe(std::ostream& os) const = 0;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench

// Host speed calibration for the end-to-end host times.
//
// On the shared virtual machines this benchmark runs on, the host's speed
// changes under the guest for seconds to minutes at a time (the simulator
// runs up to 1.8x slower), from contention that steal time does not show.
// Every timed unit is therefore bracketed by a probe of the current speed,
// and host times are reported scaled to a reference speed, so that runs
// made at different moments compare. The probe is branchy, table-driven
// integer code: a dependent multiply chain or a pointer chase did not slow
// down with the simulator. The unscaled figures are printed beside them.
#pragma once

#include <cstdint>

namespace perfbench {

/// Host ns per iteration of the probe loop (a xorshift step, a load from a
/// 256 KiB table and two unpredictable branches), timed over `iters`
/// iterations.
double probe_ns_per_iter(std::uint64_t iters = 3'000'000);

/// Probe speed the reported host times are scaled to, about the median
/// reading on the 4-vCPU Xeon virtual machine the benchmark was tuned on.
inline constexpr double kReferenceProbeNs = 10.0;

/// Factor turning host seconds measured while the probe read `probe_ns`
/// into seconds at the reference speed.
inline double to_reference(double probe_ns) {
  return kReferenceProbeNs / probe_ns;
}

}  // namespace perfbench

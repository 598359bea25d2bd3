#include "mem/timing.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace fgnvm::mem {

Cycle TimingParams::ns_to_cycles(double ns) const {
  if (ns < 0) throw std::runtime_error("TimingParams: negative ns value");
  return static_cast<Cycle>(std::llround(std::ceil(ns / ns_per_cycle())));
}

TimingParams TimingParams::from_config(const Config& cfg) {
  TimingParams t;
  t.clock_mhz = cfg.get_double("clock_mhz", t.clock_mhz);
  if (t.clock_mhz <= 0) {
    throw std::runtime_error("TimingParams: clock_mhz must be positive");
  }

  // The getter runs even when the key is unset, so the config records every
  // timing key as one a component reads (the "did you mean" candidates).
  const auto ns_param = [&](const char* key, Cycle dflt) {
    const double ns = cfg.get_double(key, 0.0);
    return cfg.contains(key) ? t.ns_to_cycles(ns) : dflt;
  };
  // Recompute defaults at the configured clock so overriding only clock_mhz
  // keeps the Table-2 nanosecond values.
  t.tRCD = ns_param("tRCD_ns", t.ns_to_cycles(25.0));
  t.tCAS = ns_param("tCAS_ns", t.ns_to_cycles(95.0));
  t.tRAS = ns_param("tRAS_ns", 0);
  t.tRP = ns_param("tRP_ns", 0);
  t.tCWD = ns_param("tCWD_ns", t.ns_to_cycles(7.5));
  t.tWP = ns_param("tWP_ns", t.ns_to_cycles(150.0));
  t.tWR = ns_param("tWR_ns", t.ns_to_cycles(7.5));
  t.tRFC = ns_param("tRFC_ns", t.tRFC);
  t.tREFI = ns_param("tREFI_ns", t.tREFI);
  t.tCCD = cfg.get_u64("tCCD", t.tCCD);
  t.tBURST = cfg.get_u64("tBURST", t.tBURST);
  t.write_drivers = cfg.get_u64("write_drivers", t.write_drivers);
  if (t.write_drivers == 0) {
    throw std::runtime_error("TimingParams: write_drivers must be positive");
  }
  return t;
}

std::string TimingParams::to_string() const {
  std::ostringstream os;
  os << "clock=" << clock_mhz << "MHz tRCD=" << tRCD << " tCAS=" << tCAS
     << " tRAS=" << tRAS << " tRP=" << tRP << " tCCD=" << tCCD
     << " tBURST=" << tBURST << " tCWD=" << tCWD << " tWP=" << tWP
     << " tWR=" << tWR << " (cycles)";
  return os.str();
}

}  // namespace fgnvm::mem

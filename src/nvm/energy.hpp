// PCM energy model (paper Section 6).
//
// The paper charges 2 pJ per sensed bit, 16 pJ per written bit, and a
// background component quoted as "0.08 pJ per bit of memory". The background
// figure is ambiguous (no time base is given); we model background as a
// constant power per bank and calibrate its default so that the paper's
// reported averages for Figure 5 (0.63 / 0.35 / 0.27 relative energy for
// 8x2 / 8x8 / 8x32) are reproduced on the paper's workload mix. The constant
// is a config parameter (`background_pj_per_bank_cycle`), so sensitivity to
// it can be studied directly.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"
#include "nvm/bank.hpp"

namespace fgnvm::nvm {

struct EnergyParams {
  double read_pj_per_bit = 2.0;
  double write_pj_per_bit = 16.0;
  double background_pj_per_bank_cycle = 20.0;

  /// Fraction of written bits that actually program a cell. PCM controllers
  /// use data-comparison writes (only flipped bits get a pulse); on typical
  /// data ~64 of a line's 512 bits flip, which is also the only reading
  /// under which the paper's Figure-5 averages (0.63/0.35/0.27) are
  /// arithmetically consistent with its per-bit constants.
  double write_flip_fraction = 0.125;

  static EnergyParams from_config(const Config& cfg);
};

/// Breakdown of energy for one simulation, in picojoules.
struct EnergyBreakdown {
  double sense_pj = 0.0;
  double write_pj = 0.0;
  double background_pj = 0.0;

  double total_pj() const { return sense_pj + write_pj + background_pj; }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o) {
    sense_pj += o.sense_pj;
    write_pj += o.write_pj;
    background_pj += o.background_pj;
    return *this;
  }
};

class EnergyModel {
 public:
  explicit EnergyModel(EnergyParams params = {}) : params_(params) {}

  const EnergyParams& params() const { return params_; }

  /// Converts one bank's activity counters plus elapsed time into energy.
  /// Channels sum these per bank (sched::ControllerBase::energy).
  EnergyBreakdown bank_energy(const BankStats& stats, Cycle elapsed) const;

 private:
  EnergyParams params_;
};

}  // namespace fgnvm::nvm

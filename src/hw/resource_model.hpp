// FPGA resource model for a synthesized ProTEA configuration.
//
// Reproduces the paper's Table I utilization analytically:
//   DSP  = h * (3*TS_MHA + d_max/h + SL_unroll)   // QKV + QK + SV engines
//        + TS_FFN + TS_FFN + 4*TS_FFN             // FFN1/2/3 engines
//        + auxiliary (softmax scaling, LN, requant)
// which evaluates to 3612 for the paper's synthesis point — exactly the
// 40 % of the U55C's 9024 DSPs that Table I reports. LUT/FF counts are a
// linear model over PEs, memory banks and fixed infrastructure whose
// coefficients are calibrated once against Table I (see README.md,
// "Calibration notes").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/bram.hpp"
#include "hw/device.hpp"
#include "hw/synth_params.hpp"

namespace protea::hw {

struct EngineResources {
  std::string name;
  uint64_t instances = 1;   // e.g. one per head
  uint64_t pes = 0;         // DSP-mapped MACs per instance
  uint64_t banks = 0;       // memory banks per instance
  uint64_t bram36 = 0;      // block RAMs per instance
  uint64_t lutram_bytes = 0;
};

struct ResourceReport {
  ResourceBudget used;
  std::vector<EngineResources> engines;
  uint64_t total_pes = 0;        // DSP-mapped MACs across all engines
  uint64_t total_banks = 0;
  uint64_t aux_dsp = 0;          // softmax / LN / requant DSPs

  /// True when `used` fits inside `budget` in every category.
  bool fits(const ResourceBudget& budget) const;

  /// True when `used` fits with an implementation margin on the
  /// fabric resources (LUT/FF): place-and-route fails well before 100 %
  /// utilization, so routable designs keep LUTs below ~`margin` of the
  /// device. DSP/BRAM columns are hard macros and use the full budget.
  bool fits_routable(const ResourceBudget& budget,
                     double margin = 0.85) const;
};

/// Full resource estimate for a synthesis configuration.
ResourceReport estimate_resources(const SynthParams& params);

/// The largest head count for which the configuration still fits the
/// device (the paper: "the optimal number of parallel attention heads was
/// determined to be 8 on the Alveo U55C to avoid overutilization").
uint32_t max_heads_fitting(SynthParams params, const Device& device);

}  // namespace protea::hw

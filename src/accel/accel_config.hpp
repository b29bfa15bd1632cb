// Accelerator configuration: synthesis parameters + simulation knobs +
// runtime-programming validation.
#pragma once

#include <stdexcept>

#include "hw/clock.hpp"
#include "hw/synth_params.hpp"
#include "ref/model_config.hpp"

namespace protea::accel {

/// How the FFN engines treat a runtime d_model smaller than the
/// synthesized maximum. Table I's latency scaling (186 ms at d=512 =
/// exactly 8/12 of the 768 baseline) implies the row-tile loop bound stays
/// at its synthesis value — the hardware walks zero-padded row tiles —
/// while the column-tile count adapts at runtime. kRuntimeAdaptive is the
/// hypothetical fully-adaptive controller, kept as an ablation.
enum class PaddingPolicy {
  kSynthFixedRows,   // paper behaviour (default)
  kRuntimeAdaptive,  // ablation: both tile loops shrink with d_model
};

/// Calibrated micro-architecture timing constants (see README.md,
/// "Calibration notes"). The pipeline depth is the single fitted value:
/// it covers BRAM read latency, the DSP cascade through the unrolled
/// reduction, and the accumulation write-back — ~87 cycles for a 64–128
/// wide tree, fitted so the BERT-variant baseline lands on Table I's
/// 279 ms; every other Table I row then follows structurally.
struct TimingConstants {
  hw::Cycles pipeline_depth = 87;
  hw::Cycles softmax_row_overhead = 32;  // divider latency + control
  uint32_t ln_lanes = 8;                 // LN elements processed per cycle
  hw::Cycles ln_row_overhead = 40;       // rsqrt Newton iterations + control
  hw::Cycles tile_control = 0;           // extra cycles per tile switch
};

struct AccelConfig {
  hw::SynthParams synth;
  TimingConstants timing;
  PaddingPolicy padding = PaddingPolicy::kSynthFixedRows;
  bool overlap_loads = true;  // double-buffered tile loading (paper §V)

  void validate() const { synth.validate(); }
};

/// Checks that a runtime model program fits the synthesized hardware —
/// the bound-checking ProTEA's MicroBlaze software performs before
/// activating the accelerator (§IV-D). Throws std::invalid_argument with
/// a precise message on violation.
inline void validate_runtime(const hw::SynthParams& synth,
                             const ref::ModelConfig& model) {
  model.validate();
  if (model.d_model > synth.max_d_model) {
    throw std::invalid_argument(
        "runtime d_model exceeds synthesized maximum");
  }
  if (model.seq_len > synth.max_seq_len) {
    throw std::invalid_argument(
        "runtime seq_len exceeds synthesized maximum");
  }
  if (model.num_heads > synth.max_heads) {
    throw std::invalid_argument(
        "runtime num_heads exceeds synthesized head engines");
  }
  if (model.ffn_hidden() > synth.max_ffn_dim()) {
    throw std::invalid_argument(
        "runtime FFN width exceeds synthesized maximum");
  }
}

}  // namespace protea::accel

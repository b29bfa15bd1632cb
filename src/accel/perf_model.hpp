// Analytic performance model of a programmed ProTEA accelerator.
//
// Latency falls out of the loop structure of Algorithms 1-4 plus the
// hardware substrate models:
//   * pipelined middle loops at the achieved initiation interval
//     (hw::achieved_ii), `pipeline off` outer loops serialized;
//   * a calibrated pipeline depth paid once per outer-loop iteration
//     (TimingConstants::pipeline_depth);
//   * runtime-programmed loop bounds where the paper's Table I scaling
//     shows them adapting, synthesis-frozen bounds where it shows they
//     do not (PaddingPolicy);
//   * double-buffered HBM tile loads overlapped with compute
//     (hw::overlapped_tiles), or serialized for the ablation.
//
// The same report also carries throughput (GOPS), DSP utilization and
// HBM traffic, everything Tables I-III print.
#pragma once

#include <string>
#include <vector>

#include "accel/accel_config.hpp"
#include "hw/clock.hpp"
#include "ref/model_config.hpp"

namespace protea::accel {

struct StageTiming {
  std::string name;
  uint64_t invocations = 0;     // tile iterations or engine accesses
  hw::Cycles compute = 0;       // pure compute cycles per layer
  hw::Cycles total = 0;         // with load overlap applied, per layer
  uint64_t bytes_loaded = 0;    // HBM traffic per layer
};

struct PerfReport {
  std::vector<StageTiming> stages;  // one encoder layer (layers identical)
  hw::Cycles layer_cycles = 0;
  hw::Cycles total_cycles = 0;
  double fmax_mhz = 0.0;
  double latency_ms = 0.0;
  uint64_t macs = 0;
  uint64_t ops = 0;
  double gops = 0.0;             // ops / latency
  double dsp_utilization = 0.0;  // MACs / (engine PEs * total cycles)
  uint64_t bytes_loaded = 0;     // full forward pass

  const StageTiming& stage(const std::string& name) const;
};

/// FFN-engine tile walk (Algorithm 4, Fig. 6 two-dimensional tiling),
/// shared by the encoder and decoder cycle models so the PaddingPolicy
/// decision lives in one place. Row-tile loop bounds are frozen at
/// synthesis under kSynthFixedRows (the hardware walks zero-padded tiles
/// when d_model shrinks, which is what Table I's d_model scaling shows);
/// column tiles adapt at runtime. A stage with K-side rows and N-side
/// columns makes rows x cols engine accesses, each costing `row_cycles`
/// per target row it streams.
struct FfnTiling {
  uint64_t rows_d = 0;  // row tiles over d_model (projection, expansion)
  uint64_t rows_f = 0;  // row tiles over the FFN width (contraction)
  uint64_t cols_d = 0;  // column tiles over d_model
  uint64_t cols_f = 0;  // column tiles over the FFN width
  hw::Cycles row_cycles = 0;  // one access's pipelined loop, per row
};

FfnTiling ffn_tiling(const AccelConfig& config, const ref::ModelConfig& model);

/// Estimates a full forward pass of `model` on hardware `config`.
/// Throws when the runtime program does not fit the synthesis
/// (validate_runtime).
PerfReport estimate_performance(const AccelConfig& config,
                                const ref::ModelConfig& model);

/// Fraction of FFN weight tiles that still contain nonzeros after
/// pruning — the tiles a tile-skipping controller must schedule (see
/// baseline/pruning.hpp for computing these from pruned weights).
struct FfnStageOccupancy {
  double ffn1 = 1.0;
  double ffn2 = 1.0;
  double ffn3 = 1.0;
};

/// Hypothetical tile-skipping ProTEA variant: the FFN engines schedule
/// only occupied weight tiles, turning structured sparsity into
/// proportionally fewer engine accesses. This is the hardware the
/// paper's §V sparsity arithmetic imagines; comparing it against
/// (1 - sparsity) x dense shows how much of the ideal a tile-granular
/// skip can actually capture.
PerfReport estimate_sparse_performance(const AccelConfig& config,
                                       const ref::ModelConfig& model,
                                       const FfnStageOccupancy& occupancy);

}  // namespace protea::accel

// Top-level ProTEA accelerator simulator.
//
// Mirrors the deployed system: a synthesized configuration (tile sizes,
// engine counts — fixed at construction), a loaded quantized model, and a
// runtime program (SL, d_model, h, N) that can be changed between runs
// without "re-synthesis". forward() runs the bit-level datapath; the
// latency/throughput of the same run come from the analytic perf model
// (estimate_performance), which the cycle-accounting tests pin to the
// engine loop structure.
#pragma once

#include <optional>

#include "accel/accel_config.hpp"
#include "accel/engines.hpp"
#include "accel/perf_model.hpp"
#include "accel/quantized_model.hpp"
#include "runtime/layer_ops.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::accel {

/// Full per-layer trace of the quantized datapath (testing hook).
using AccelLayerTrace = runtime::EncoderLayerTrace;

class ProteaAccelerator {
 public:
  explicit ProteaAccelerator(AccelConfig config);

  const AccelConfig& config() const { return config_; }

  /// Loads model weights (the paper's AXI "load instruction" path) and
  /// programs the runtime hyperparameters from the model's config.
  /// Throws when the model exceeds the synthesized maxima.
  void load_model(QuantizedModel model);

  bool has_model() const { return model_.has_value(); }
  const QuantizedModel& model() const;

  /// Reprograms runtime hyperparameters without reloading weights —
  /// only a *reduction* of the loaded model is allowed (fewer layers /
  /// shorter sequences), mirroring the µB software's bound checks.
  void program_layers(uint32_t num_layers);
  void program_seq_len(uint32_t seq_len);

  const ref::ModelConfig& programmed_config() const;

  /// Runs the quantized datapath: float input -> quantize -> engines ->
  /// dequantized float output. Optionally captures per-layer traces.
  tensor::MatrixF forward(const tensor::MatrixF& input,
                          std::vector<AccelLayerTrace>* traces = nullptr);

  /// Analytic latency/throughput for the current program.
  PerfReport performance() const;

  /// MACs issued by the engines since load_model (functional counter,
  /// used to cross-check the perf model's operation accounting).
  const EngineStats& stats() const { return stats_; }

 private:
  AccelConfig config_;
  std::optional<QuantizedModel> model_;
  ref::ModelConfig program_;
  EngineStats stats_;
  runtime::WorkspaceArena ws_;  // session workspace for forward()
};

}  // namespace protea::accel

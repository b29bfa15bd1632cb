// InferenceSession: the serving runtime's per-stream execution context.
//
// A session binds a loaded quantized model to a private WorkspaceArena and
// runs the unified layer-op forward path through it. The first forward
// sizes the arena; from then on forward_into() performs ZERO heap
// allocations — the property the batch scheduler relies on to run many
// sessions concurrently without allocator contention (and the property
// tests/test_runtime.cpp pins with an allocation-counting operator new).
//
// The free functions encoder_forward_into / decoder_forward_into are the
// single forward implementation shared by ProteaAccelerator,
// ProteaDecoderAccelerator, InferenceSession and the BatchScheduler; the
// StageGate hook lets the scheduler bracket the paper's two physical
// module stages (MHA, FFN) without a second copy of the loop.
#pragma once

#include <vector>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "accel/quantized_model.hpp"
#include "runtime/layer_ops.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::runtime {

// Stage, StageGate and StageScope (the MHA/FFN module-stage hooks) live
// in runtime/layer_ops.hpp, next to the blocks they bracket.

/// Runs the quantized encoder datapath (float in -> int8 engines -> float
/// out) for `program` layers/seq_len with all intermediates in `ws`.
/// `output` is only reallocated when its shape differs. Steady state
/// (same shapes, warmed arena, no traces) performs zero heap allocations.
void encoder_forward_into(const accel::QuantizedModel& qm,
                          const ref::ModelConfig& program,
                          const accel::AccelConfig& config,
                          const tensor::MatrixF& input, WorkspaceArena& ws,
                          accel::EngineStats* stats, tensor::MatrixF& output,
                          std::vector<EncoderLayerTrace>* traces = nullptr,
                          StageGate* gate = nullptr);

/// Decoder twin: masked self-attention + cross-attention over `memory`.
/// `kv_storage` snaps every self-attention K and V row to the value a
/// KV cache of that format reads back (numeric::KvCodec::roundtrip), so
/// this full-recompute forward is the bit-exact reference for KV-cached
/// decode in every storage format; kInt8 leaves them untouched.
void decoder_forward_into(
    const accel::QuantizedDecoder& qd, const accel::AccelConfig& config,
    const tensor::MatrixF& target, const tensor::MatrixF& memory,
    WorkspaceArena& ws, accel::EngineStats* stats, tensor::MatrixF& output,
    numeric::KvStorage kv_storage = numeric::KvStorage::kInt8);

class InferenceSession {
 public:
  /// Binds to caller-owned config + model (both must outlive the
  /// session); validates the model against the synthesized maxima.
  InferenceSession(const accel::AccelConfig& config,
                   const accel::QuantizedModel& model);

  /// Steady-state forward: zero heap allocations once the arena is warm
  /// and `output` has the right shape.
  void forward_into(const tensor::MatrixF& input, tensor::MatrixF& output,
                    StageGate* gate = nullptr);

  /// Allocating convenience wrapper.
  tensor::MatrixF forward(const tensor::MatrixF& input);

  const accel::EngineStats& stats() const { return stats_; }
  const WorkspaceArena& workspace() const { return ws_; }
  const accel::QuantizedModel& model() const { return *model_; }

 private:
  const accel::AccelConfig* config_;
  const accel::QuantizedModel* model_;
  WorkspaceArena ws_;
  accel::EngineStats stats_;
};

}  // namespace protea::runtime

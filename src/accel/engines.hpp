// ProTEA computation engines (functional int8 models).
//
// Six engine kinds, mirroring the paper's §IV:
//   QKV_CE — Algorithm 1: per-head Q/K/V projections with column tiling
//            (Fig. 5), biases added in the accumulator domain.
//   QK_CE  — Algorithm 2: Q x K^T attention logits (untiled: the operands
//            are small), scaled and requantized for the softmax LUT.
//   SV_CE  — Algorithm 3: attention-weight x V products.
//   FFN_CE — Algorithm 4: tiled linear transform; instantiated three times
//            (FFN1 = output projection, FFN2 = expansion + activation,
//            FFN3 = contraction) with 2-D tiling (Fig. 6).
//
// Every engine accumulates int8 x int8 products into 32-bit sums (the
// DSP48's 48-bit accumulator has >2^16 headroom over the worst case —
// checked statically in engines.cpp) and requantizes on write-back.
// Cycle accounting lives in perf_model.{hpp,cpp}; these functions compute
// values and MAC counts only, so tests can verify the datapath exactly.
//
// Two calling conventions per engine:
//   * the workspace form — inputs/outputs are preallocated MatrixViews
//     and the int32 accumulators + packed-GEMM scratch come from a
//     runtime::WorkspaceArena. This is the serving runtime's hot path:
//     steady state performs zero heap allocations.
//   * the owning form — the original Matrix in/out signature, now a thin
//     wrapper that sizes the outputs and borrows a thread-local scratch
//     arena. Bit-identical to the workspace form.
//
// The int8 GEMMs run on the packed kernel layer (tensor/qgemm.hpp), which
// is bit-identical to the paper's tile loops because int32 accumulation is
// exact; the ts_mha/ts_ffn tile sizes remain cycle-accounting parameters
// (validated here, consumed by perf_model).
#pragma once

#include <cstdint>

#include "accel/quantized_model.hpp"
#include "numeric/requantize.hpp"
#include "ref/model_config.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::util {
class ThreadPool;
}

namespace protea::accel {

struct EngineStats {
  uint64_t macs = 0;
  /// Paged-KV pool occupancy, mirrored by the generation runtime after
  /// every block reserve/release (pool-wide when the pool is shared;
  /// 0 for dense caches).
  uint64_t kv_blocks_in_use = 0;
  uint64_t kv_blocks_peak = 0;
  /// Bytes copied out of the paged KV cache into contiguous scratch.
  /// Paged reads are block-strided for every storage format, so nothing
  /// writes this and it reads 0 (pinned in tests/test_generation.cpp);
  /// kept because existing benchmark code reports it.
  uint64_t gathered_bytes = 0;
  /// Block-table runs streamed by the span-accepting QK/SV engines (one
  /// per contiguous run per engine call; grows as block_rows shrinks).
  uint64_t span_runs = 0;
  /// Cross-request prefix cache (mirrored by the generation runtime from
  /// runtime::PrefixCache outcomes; all 0 when the cache is off).
  uint64_t prefix_hits = 0;          // prefills that adopted >= 1 cached block
  uint64_t prefix_misses = 0;        // prefills with no usable cached prefix
  uint64_t prefix_rows_adopted = 0;  // prompt rows whose prefill was skipped
  /// Bytes not produced because of the cache: adopted rows x KV row bytes,
  /// plus cross-K/V projection bytes copied instead of recomputed.
  uint64_t prefix_bytes_saved = 0;
  uint64_t cross_kv_hits = 0;    // fill_cross_kv_cache passes skipped
  uint64_t cross_kv_misses = 0;  // memories that had to be projected
};

/// Algorithm 1. `x` is the full (SL x d_model) int8 input; outputs are
/// the per-head (SL x d_k) projections. `ts_mha` is the column tile
/// width; the tile loop reproduces Fig. 5's accumulate-across-tiles.
void run_qkv_engine(tensor::ConstMatrixViewI8 x, const QHeadWeights& head,
                    uint32_t ts_mha, const numeric::RequantParams& rq_q,
                    const numeric::RequantParams& rq_k,
                    const numeric::RequantParams& rq_v,
                    tensor::MatrixViewI8 q, tensor::MatrixViewI8 k,
                    tensor::MatrixViewI8 v, runtime::WorkspaceArena& ws,
                    EngineStats* stats = nullptr,
                    util::ThreadPool* pool = nullptr);
void run_qkv_engine(const tensor::MatrixI8& x, const QHeadWeights& head,
                    uint32_t ts_mha, const numeric::RequantParams& rq_q,
                    const numeric::RequantParams& rq_k,
                    const numeric::RequantParams& rq_v, tensor::MatrixI8& q,
                    tensor::MatrixI8& k, tensor::MatrixI8& v,
                    EngineStats* stats = nullptr);

/// Single-stream variant of Algorithm 1 used by the decoder extension's
/// cross-attention: one projection (out = requant(x * w^T + bias)) with
/// the same column tiling. `wt` is (out_dim x in_dim) transposed layout.
void run_projection_engine(tensor::ConstMatrixViewI8 x,
                           tensor::ConstMatrixViewI8 wt,
                           std::span<const int32_t> bias, uint32_t ts_mha,
                           const numeric::RequantParams& rq,
                           tensor::MatrixViewI8 out,
                           runtime::WorkspaceArena& ws,
                           EngineStats* stats = nullptr,
                           util::ThreadPool* pool = nullptr);
void run_projection_engine(const tensor::MatrixI8& x,
                           const tensor::MatrixI8& wt,
                           std::span<const int32_t> bias, uint32_t ts_mha,
                           const numeric::RequantParams& rq,
                           tensor::MatrixI8& out,
                           EngineStats* stats = nullptr);

/// Algorithm 2. Computes logits = requant(Q x K^T); the attention scale
/// factor (1/sqrt(dk) or 1/d_model) is folded into `rq_logit`.
void run_qk_engine(tensor::ConstMatrixViewI8 q, tensor::ConstMatrixViewI8 k,
                   const numeric::RequantParams& rq_logit,
                   tensor::MatrixViewI8 logits, runtime::WorkspaceArena& ws,
                   EngineStats* stats = nullptr,
                   util::ThreadPool* pool = nullptr);
void run_qk_engine(const tensor::MatrixI8& q, const tensor::MatrixI8& k,
                   const numeric::RequantParams& rq_logit,
                   tensor::MatrixI8& logits, EngineStats* stats = nullptr);

class SoftmaxUnit;

/// Algorithm 2 over a block-strided K operand: `k` is a RowSpanListI8
/// walking a paged KV block table in place (tensor/qgemm span packing;
/// stored fp8 or packed fp4 codes are decoded as they are read), so the
/// decode path pays no gather copy. Bit-identical to gathering first —
/// int32 accumulation is exact and packing order is immaterial.
void run_qk_engine(tensor::ConstMatrixViewI8 q,
                   const tensor::RowSpanListI8& k,
                   const numeric::RequantParams& rq_logit,
                   tensor::MatrixViewI8 logits, runtime::WorkspaceArena& ws,
                   EngineStats* stats = nullptr,
                   util::ThreadPool* pool = nullptr);

/// Algorithm 2 fused with the causal softmax for the cached decode path:
/// computes the QK int32 accumulator over the span-list K operand and
/// hands the tile straight to `softmax`'s fused dequant→softmax→requant
/// pass (SoftmaxUnit::run_causal_fused_into) — the int8 logits matrix is
/// never materialized. `row_offset` is the cached-prefix causal offset;
/// `weights` receives the requantized attention weights (scale 1/127).
void run_qk_softmax_engine(tensor::ConstMatrixViewI8 q,
                           const tensor::RowSpanListI8& k,
                           const numeric::RequantParams& rq_logit,
                           const SoftmaxUnit& softmax, size_t row_offset,
                           tensor::MatrixViewI8 weights,
                           runtime::WorkspaceArena& ws,
                           EngineStats* stats = nullptr,
                           util::ThreadPool* pool = nullptr);

/// Algorithm 3. scores = requant(attn_weights x V).
void run_sv_engine(tensor::ConstMatrixViewI8 attn_weights,
                   tensor::ConstMatrixViewI8 v,
                   const numeric::RequantParams& rq_sv,
                   tensor::MatrixViewI8 scores, runtime::WorkspaceArena& ws,
                   EngineStats* stats = nullptr,
                   util::ThreadPool* pool = nullptr);
void run_sv_engine(const tensor::MatrixI8& attn_weights,
                   const tensor::MatrixI8& v,
                   const numeric::RequantParams& rq_sv,
                   tensor::MatrixI8& scores, EngineStats* stats = nullptr);

/// Algorithm 3 over a block-strided V operand (see the span QK engine).
void run_sv_engine(tensor::ConstMatrixViewI8 attn_weights,
                   const tensor::RowSpanListI8& v,
                   const numeric::RequantParams& rq_sv,
                   tensor::MatrixViewI8 scores, runtime::WorkspaceArena& ws,
                   EngineStats* stats = nullptr,
                   util::ThreadPool* pool = nullptr);

enum class FfnActivation { kNone, kRelu, kGeluLut };

/// Algorithm 4 with Fig. 6 tiling: out = act(requant(in x w + bias)).
/// `w` is (in_dim x out_dim); tiles of `ts_ffn x ts_ffn` are traversed
/// column-tile-major, accumulating partial sums across row tiles.
/// `act_scale` is the int8 scale of the activation's input/output (used
/// to build the GELU lookup table).
void run_ffn_engine(tensor::ConstMatrixViewI8 in, tensor::ConstMatrixViewI8 w,
                    std::span<const int32_t> bias, uint32_t ts_ffn,
                    const numeric::RequantParams& rq, FfnActivation act,
                    double act_scale, tensor::MatrixViewI8 out,
                    runtime::WorkspaceArena& ws,
                    EngineStats* stats = nullptr,
                    util::ThreadPool* pool = nullptr);
void run_ffn_engine(const tensor::MatrixI8& in, const tensor::MatrixI8& w,
                    std::span<const int32_t> bias, uint32_t ts_ffn,
                    const numeric::RequantParams& rq, FfnActivation act,
                    double act_scale, tensor::MatrixI8& out,
                    EngineStats* stats = nullptr);

/// Thread-local scratch arena backing the owning-form wrappers (exposed
/// so module-level wrappers can reuse it instead of allocating).
runtime::WorkspaceArena& engine_scratch_arena();

}  // namespace protea::accel

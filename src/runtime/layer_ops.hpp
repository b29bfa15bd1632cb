// Unified per-layer execution for the serving runtime.
//
// The encoder forward and the decoder forward used to carry hand-rolled
// copies of the same engine call sequences. This layer collapses them into three block primitives that
// mirror the paper's module split (Fig. 3/4):
//
//   * attention block — h head pipelines (QKV_CE, or for cross-attention
//     one FFN_CE projection without activation per Q/K/V, -> QK_CE ->
//     softmax -> SV_CE) concatenated into (SL x d_model). One
//     descriptor covers encoder self-attention, decoder masked
//     self-attention (causal softmax) and decoder cross-attention (K/V
//     projected from the encoder memory).
//   * projection + LN block — FFN1_CE (attention output projection)
//     fused with the residual LayerNorm.
//   * FFN block — FFN2_CE (expansion + activation) -> FFN3_CE
//     (contraction) -> residual LayerNorm.
//
// Encoder layer = attention + projection-LN + FFN. Decoder layer =
// attention(causal) + projection-LN + attention(cross) + projection-LN +
// FFN — the same primitives, sequenced differently.
//
// Everything here is allocation-free: inputs/outputs are preallocated
// views and temporaries come from the context's WorkspaceArena under
// mark/rewind. Trace capture (deep copies) is the one exception and only
// runs when a trace sink is passed.
#pragma once

#include <span>
#include <vector>

#include "accel/decoder_model.hpp"
#include "accel/engines.hpp"
#include "accel/quantized_model.hpp"
#include "ref/model_config.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::runtime {

/// The paper's two physical engine groups (Fig. 3/4). A layer occupies
/// the MHA module, then the FFN module; schedulers overlap stages of
/// different sequences across the two.
enum class Stage { kMha, kFfn };

/// Scheduler hook bracketing each stage of the unified forward loop.
/// Virtual dispatch (not std::function) so the hot path stays
/// allocation-free.
class StageGate {
 public:
  virtual ~StageGate() = default;
  virtual void enter(Stage stage) = 0;
  virtual void exit(Stage stage) = 0;
};

/// RAII stage bracket: releases the module slot even when the stage
/// throws (a leaked slot would deadlock every other scheduler worker).
class StageScope {
 public:
  StageScope(StageGate* gate, Stage stage) : gate_(gate), stage_(stage) {
    if (gate_ != nullptr) gate_->enter(stage_);
  }
  ~StageScope() {
    if (gate_ != nullptr) gate_->exit(stage_);
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageGate* gate_;
  Stage stage_;
};

/// Per-head intermediates captured when a trace sink is provided.
struct HeadTrace {
  tensor::MatrixI8 q, k, v;
  tensor::MatrixI8 logits;
  tensor::MatrixI8 attn_weights;
  tensor::MatrixI8 scores;
};

/// FFN-module intermediates.
struct FfnTrace {
  tensor::MatrixI8 proj;      // FFN1 output (scale proj)
  tensor::MatrixI8 ln1;       // post-attention LN (scale ln1)
  tensor::MatrixI8 hidden;    // FFN2 + activation (scale hidden)
  tensor::MatrixI8 ffn_out;   // FFN3 output (scale ffn_out)
};

/// Full per-layer trace of the quantized encoder datapath (testing hook;
/// aliased as accel::AccelLayerTrace).
struct EncoderLayerTrace {
  std::vector<HeadTrace> heads;
  tensor::MatrixI8 concat;
  FfnTrace ffn;
  tensor::MatrixI8 out;
};

/// Execution context threaded through every block: the workspace, the
/// synthesized tile sizes, the programmed activation and the MAC counter.
struct LayerOpContext {
  WorkspaceArena& ws;
  uint32_t ts_mha = 0;
  uint32_t ts_ffn = 0;
  ref::Activation activation = ref::Activation::kRelu;
  accel::EngineStats* stats = nullptr;
};

/// One descriptor for all three attention shapes. Exactly one of
/// `self_heads` (fused-QKV path) or `cross_heads` (per-stream projection
/// path, K/V from `memory`) must be non-empty.
struct AttentionBlockDesc {
  std::span<const accel::QHeadWeights> self_heads;
  std::span<const accel::QCrossHeadWeights> cross_heads;
  const numeric::RequantParams* rq_q = nullptr;
  const numeric::RequantParams* rq_k = nullptr;
  const numeric::RequantParams* rq_v = nullptr;
  const numeric::RequantParams* rq_logit = nullptr;
  const numeric::RequantParams* rq_sv = nullptr;
  double logit_scale = 1.0;
  bool causal = false;
  /// Self-attention only: the KV storage codec the fresh K and V rows
  /// are snapped through (numeric::kv_roundtrip_inplace) before QK and
  /// SV read them. nullptr (int8) reads them verbatim.
  const numeric::KvCodec* kv_codec = nullptr;
};

/// Runs all heads over int8 input `x` (queries) and `memory` (keys and
/// values; pass `x` again for self-attention) into the preallocated
/// (x.rows x d_model) `concat`.
void run_attention_block(const LayerOpContext& ctx,
                         const AttentionBlockDesc& desc,
                         tensor::ConstMatrixViewI8 x,
                         tensor::ConstMatrixViewI8 memory,
                         tensor::MatrixViewI8 concat,
                         std::vector<HeadTrace>* traces = nullptr);

/// FFN1/projection + residual LayerNorm:
/// out = LN(requant(concat x w + bias) @ s_proj + residual @ s_res) @ s_out.
/// The weight pointers here and in FfnBlockDesc borrow the layer's
/// weights, packed once at model load.
struct ProjectionLnDesc {
  const tensor::PackedWeightI8* w = nullptr;  // d_model -> d_model
  std::span<const int32_t> bias;
  const numeric::RequantParams* rq = nullptr;
  std::span<const float> gamma, beta;
  double s_proj = 1.0, s_res = 1.0, s_out = 1.0;
  float ln_eps = 1e-5f;
};

void run_projection_ln_block(const LayerOpContext& ctx,
                             const ProjectionLnDesc& desc,
                             tensor::ConstMatrixViewI8 concat,
                             tensor::ConstMatrixViewI8 residual,
                             tensor::MatrixViewI8 out,
                             tensor::MatrixI8* proj_trace = nullptr);

/// FFN2 (expansion + activation) -> FFN3 (contraction) -> residual LN;
/// the residual operand is the block input `x` at scale s_in.
struct FfnBlockDesc {
  const tensor::PackedWeightI8* w1 = nullptr;  // d_model -> ffn_hidden
  std::span<const int32_t> b1;
  const numeric::RequantParams* rq_hidden = nullptr;
  double s_hidden = 1.0;
  const tensor::PackedWeightI8* w2 = nullptr;  // ffn_hidden -> d_model
  std::span<const int32_t> b2;
  const numeric::RequantParams* rq_ffn_out = nullptr;
  double s_ffn_out = 1.0;
  std::span<const float> gamma, beta;
  double s_in = 1.0, s_out = 1.0;
  float ln_eps = 1e-5f;
};

void run_ffn_block(const LayerOpContext& ctx, const FfnBlockDesc& desc,
                   tensor::ConstMatrixViewI8 x, tensor::MatrixViewI8 out,
                   tensor::MatrixI8* hidden_trace = nullptr,
                   tensor::MatrixI8* ffn_out_trace = nullptr);

// --- layer stages -----------------------------------------------------------
// The encoder layer split at the paper's physical module boundary: the
// MHA module emits the concatenated attention output; the FFN module runs
// projection + LN + FFN + LN. The batch scheduler pipelines the two
// stages across sequences; run_encoder_layer chains them back-to-back
// for the latency (batch = 1) path.

void run_encoder_mha_stage(const LayerOpContext& ctx,
                           const accel::QLayer& layer,
                           tensor::ConstMatrixViewI8 x,
                           tensor::MatrixViewI8 concat,
                           std::vector<HeadTrace>* traces = nullptr);

void run_encoder_ffn_stage(const LayerOpContext& ctx,
                           const accel::QLayer& layer,
                           tensor::ConstMatrixViewI8 concat,
                           tensor::ConstMatrixViewI8 x,
                           tensor::MatrixViewI8 out,
                           FfnTrace* trace = nullptr);

void run_encoder_layer(const LayerOpContext& ctx, const accel::QLayer& layer,
                       tensor::ConstMatrixViewI8 x, tensor::MatrixViewI8 out,
                       std::vector<HeadTrace>* head_traces = nullptr,
                       FfnTrace* ffn_trace = nullptr);

/// One decoder layer: masked self-attention, cross-attention over the
/// encoder `memory`, FFN — each with its projection + residual LN.
/// `kv_codec` goes to the self-attention block (AttentionBlockDesc).
void run_decoder_layer(const LayerOpContext& ctx,
                       const accel::QDecoderLayer& layer,
                       tensor::ConstMatrixViewI8 x,
                       tensor::ConstMatrixViewI8 memory,
                       tensor::MatrixViewI8 out,
                       const numeric::KvCodec* kv_codec = nullptr);

/// Descriptor builders wiring a decoder layer's weights and requant
/// constants into the attention block shapes. One source of truth shared
/// by the full-recompute and KV-cached paths (and the prefill's cross
/// K/V fill), so the scale/requant plumbing cannot drift between them —
/// drift would silently break the paths' bit-identity guarantee.
AttentionBlockDesc decoder_self_attention_desc(
    const accel::QDecoderLayer& layer);
AttentionBlockDesc decoder_cross_attention_desc(
    const accel::QDecoderLayer& layer);

// --- KV-cached (incremental) variants ---------------------------------------
// The same engine sequences, but attention state lives in a KvCache: the
// self-attention K/V of new rows are appended and the QK/softmax/SV
// stages span the cached prefix, so a decode step does O(len) attention
// work instead of recomputing the whole O(len^2) square. The new rows
// are scattered through the sequence's block table and the QK/SV
// engines then read the cached prefix BLOCK-STRIDED: KvCache::self_spans
// hands the engines (base, rows) runs walking the block table in place,
// the GEMM kernels read the rows straight from block storage (decoding
// fp8 and packed fp4 codes as they read), and the fused
// dequant→softmax→requant pass consumes the QK accumulator tile
// directly — no gather copy, no total x head_dim scratch, no
// materialized logits matrix. This is the one read path, for every
// storage format. The scatter respects copy-on-write forking
// (KvCache::fork_from): writing into a block still shared with a forked
// sibling first copies it, so divergent appends never corrupt the
// shared prompt prefix — and because reads never privatize, the span
// path is COW-safe by construction. int32 accumulation is exact, every
// op is row-wise, packing order is immaterial and a stored code reads
// back as KvCodec::roundtrip of its value, so cached decode — any block
// size, COW-forked or not — is bit-identical to the full-recompute
// forward run with the same storage (decoder_forward_into), pinned by
// tests/test_generation.cpp, tests/test_kv_paging.cpp,
// tests/test_kv_storage.cpp and tests/test_kv_cow.cpp.

/// Masked self-attention over `x` (n new rows at absolute positions
/// [pos, pos+n)) with K/V appended into `cache` rows [pos, pos+n) of
/// layer `layer_index` and attention spanning the pos+n cached rows.
/// `desc.self_heads` must be set; `desc.causal` is implied (row i masks
/// columns > pos+i). The cache must have rows [0, pos+n) reserved.
void run_self_attention_cached(const LayerOpContext& ctx,
                               const AttentionBlockDesc& desc,
                               tensor::ConstMatrixViewI8 x, KvCache& cache,
                               size_t layer_index, size_t pos,
                               tensor::MatrixViewI8 concat);

/// One-time prefill: projects the quantized encoder memory through the
/// layer's cross K/V weights into `kv` rows [0, memory.rows()).
void fill_cross_kv_cache(const LayerOpContext& ctx,
                         const AttentionBlockDesc& desc,
                         tensor::ConstMatrixViewI8 memory, LayerKv& kv);

/// Cross-attention of `x` over the prefilled cross K/V cache (the
/// per-step work is one Q projection + QK/softmax/SV over memory_len
/// cached rows; no K/V recomputation). `desc.cross_heads` must be set.
void run_cross_attention_cached(const LayerOpContext& ctx,
                                const AttentionBlockDesc& desc,
                                tensor::ConstMatrixViewI8 x,
                                const LayerKv& kv, size_t memory_len,
                                tensor::MatrixViewI8 concat);

/// One decoder layer over cached K/V: appends `x` (n rows at position
/// `pos`) to layer `layer_index`'s self cache, attends over the cached
/// prefix and the prefilled cross projections (cache.memory_len() rows),
/// then projection-LN + FFN. The optional gate brackets the MHA-module
/// stages (both attentions) and FFN-module stages (projections + FFN)
/// for the serving engine's threaded mode.
void run_decoder_layer_cached(const LayerOpContext& ctx,
                              const accel::QDecoderLayer& layer,
                              tensor::ConstMatrixViewI8 x, size_t pos,
                              KvCache& cache, size_t layer_index,
                              tensor::MatrixViewI8 out,
                              StageGate* gate = nullptr);

/// Exact power-of-two realignment between a layer's calibrated input
/// scale and the previous layer's output scale (in place, int8 domain).
/// Row-wise, so the incremental and full-recompute paths agree bitwise.
void rescale_rows_inplace(tensor::MatrixViewI8 x, double from_scale,
                          double to_scale);

}  // namespace protea::runtime

#include "runtime/layer_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "accel/layernorm_unit.hpp"
#include "accel/softmax_unit.hpp"

namespace protea::runtime {
namespace {

/// Non-owning view of the first `rows` rows of a cross cache matrix (the
/// valid rows are contiguous in the row-major (capacity x head_dim)
/// storage).
tensor::MatrixViewI8 prefix_rows(tensor::MatrixViewI8 m, size_t rows) {
  return {m.data(), rows, m.cols()};
}

/// Row-wise copy of a head's (n x dk) scores into its column slice of the
/// strided concat view (one memcpy per row, not one store per element).
void emit_head_scores(tensor::MatrixViewI8 concat, size_t head, size_t dk,
                      tensor::ConstMatrixViewI8 scores) {
  for (size_t i = 0; i < scores.rows(); ++i) {
    std::memcpy(concat.row(i).data() + head * dk, scores.row(i).data(), dk);
  }
}

/// Decoder-layer descriptor builders for the projection/FFN blocks,
/// shared by the full-recompute and KV-cached layer paths (the attention
/// twins are public, see layer_ops.hpp).
ProjectionLnDesc decoder_self_projection_desc(
    const accel::QDecoderLayer& layer) {
  const accel::DecoderLayerScales& s = layer.scales;
  ProjectionLnDesc proj;
  proj.w = &layer.wo;
  proj.bias = layer.bo;
  proj.rq = &layer.rq_proj;
  proj.gamma = layer.ln1_gamma;
  proj.beta = layer.ln1_beta;
  proj.s_proj = s.proj;
  proj.s_res = s.x;
  proj.s_out = s.ln1;
  return proj;
}

ProjectionLnDesc decoder_cross_projection_desc(
    const accel::QDecoderLayer& layer) {
  const accel::DecoderLayerScales& s = layer.scales;
  ProjectionLnDesc proj;
  proj.w = &layer.co;
  proj.bias = layer.cbo;
  proj.rq = &layer.rq_cproj;
  proj.gamma = layer.ln2_gamma;
  proj.beta = layer.ln2_beta;
  proj.s_proj = s.cproj;
  proj.s_res = s.ln1;
  proj.s_out = s.ln2;
  return proj;
}

FfnBlockDesc decoder_ffn_desc(const accel::QDecoderLayer& layer) {
  const accel::DecoderLayerScales& s = layer.scales;
  FfnBlockDesc ffn;
  ffn.w1 = &layer.w1;
  ffn.b1 = layer.b1;
  ffn.rq_hidden = &layer.rq_hidden;
  ffn.s_hidden = s.hidden;
  ffn.w2 = &layer.w2;
  ffn.b2 = layer.b2;
  ffn.rq_ffn_out = &layer.rq_ffn_out;
  ffn.s_ffn_out = s.ffn_out;
  ffn.gamma = layer.ln3_gamma;
  ffn.beta = layer.ln3_beta;
  ffn.s_in = s.ln2;
  ffn.s_out = s.ln3;
  return ffn;
}

}  // namespace

AttentionBlockDesc decoder_self_attention_desc(
    const accel::QDecoderLayer& layer) {
  AttentionBlockDesc desc;
  desc.self_heads = layer.self_heads;
  desc.rq_q = &layer.rq_q;
  desc.rq_k = &layer.rq_k;
  desc.rq_v = &layer.rq_v;
  desc.rq_logit = &layer.rq_logit;
  desc.rq_sv = &layer.rq_sv;
  desc.logit_scale = layer.scales.logit;
  desc.causal = true;
  return desc;
}

AttentionBlockDesc decoder_cross_attention_desc(
    const accel::QDecoderLayer& layer) {
  AttentionBlockDesc desc;
  desc.cross_heads = layer.cross_heads;
  desc.rq_q = &layer.rq_cq;
  desc.rq_k = &layer.rq_ck;
  desc.rq_v = &layer.rq_cv;
  desc.rq_logit = &layer.rq_clogit;
  desc.rq_sv = &layer.rq_csv;
  desc.logit_scale = layer.scales.clogit;
  return desc;
}

void run_attention_block(const LayerOpContext& ctx,
                         const AttentionBlockDesc& desc,
                         tensor::ConstMatrixViewI8 x,
                         tensor::ConstMatrixViewI8 memory,
                         tensor::MatrixViewI8 concat,
                         std::vector<HeadTrace>* traces) {
  const bool self = !desc.self_heads.empty();
  if (self == !desc.cross_heads.empty()) {
    throw std::invalid_argument(
        "run_attention_block: exactly one head set must be given");
  }
  const size_t sl = x.rows();
  const size_t d = x.cols();
  const size_t h = self ? desc.self_heads.size() : desc.cross_heads.size();
  const size_t dk =
      self ? desc.self_heads[0].wqt.n() : desc.cross_heads[0].cqt.n();
  if (dk * h != d) {
    throw std::invalid_argument(
        "run_attention_block: head dims inconsistent");
  }
  if (concat.rows() != sl || concat.cols() != d) {
    throw std::invalid_argument(
        "run_attention_block: concat shape mismatch");
  }
  const size_t kv_rows = memory.rows();

  const accel::SoftmaxUnit softmax(desc.logit_scale);
  if (traces != nullptr) traces->resize(h);

  for (size_t head = 0; head < h; ++head) {
    const auto m = ctx.ws.mark();
    auto q = ctx.ws.matrix_i8(sl, dk);
    auto k = ctx.ws.matrix_i8(kv_rows, dk);
    auto v = ctx.ws.matrix_i8(kv_rows, dk);
    auto logits = ctx.ws.matrix_i8(sl, kv_rows);
    auto weights = ctx.ws.matrix_i8(sl, kv_rows);
    auto scores = ctx.ws.matrix_i8(sl, dk);

    if (self) {
      accel::run_qkv_engine(x, desc.self_heads[head], ctx.ts_mha,
                            *desc.rq_q, *desc.rq_k, *desc.rq_v, q, k, v,
                            ctx.ws, ctx.stats);
      if (desc.kv_codec != nullptr) {
        numeric::kv_roundtrip_inplace(*desc.kv_codec, k.flat());
        numeric::kv_roundtrip_inplace(*desc.kv_codec, v.flat());
      }
    } else {
      const accel::QCrossHeadWeights& ch = desc.cross_heads[head];
      accel::run_ffn_engine(x, ch.cqt, ch.cbq, ctx.ts_mha, *desc.rq_q,
                            accel::FfnActivation::kNone, 0.0, q, ctx.ws,
                            ctx.stats);
      accel::run_ffn_engine(memory, ch.ckt, ch.cbk, ctx.ts_mha, *desc.rq_k,
                            accel::FfnActivation::kNone, 0.0, k, ctx.ws,
                            ctx.stats);
      accel::run_ffn_engine(memory, ch.cvt, ch.cbv, ctx.ts_mha, *desc.rq_v,
                            accel::FfnActivation::kNone, 0.0, v, ctx.ws,
                            ctx.stats);
    }
    accel::run_qk_engine(q, k, *desc.rq_logit, logits, ctx.ws, ctx.stats);
    if (desc.causal) {
      softmax.run_causal_into(logits, weights);
    } else {
      softmax.run_into(logits, weights);
    }
    accel::run_sv_engine(weights, v, *desc.rq_sv, scores, ctx.ws, ctx.stats);

    emit_head_scores(concat, head, dk, scores);
    if (traces != nullptr) {
      HeadTrace& t = (*traces)[head];
      t.q = tensor::to_matrix(tensor::ConstMatrixViewI8(q));
      t.k = tensor::to_matrix(tensor::ConstMatrixViewI8(k));
      t.v = tensor::to_matrix(tensor::ConstMatrixViewI8(v));
      t.logits = tensor::to_matrix(tensor::ConstMatrixViewI8(logits));
      t.attn_weights = tensor::to_matrix(tensor::ConstMatrixViewI8(weights));
      t.scores = tensor::to_matrix(tensor::ConstMatrixViewI8(scores));
    }
    ctx.ws.rewind(m);
  }
}

void run_projection_ln_block(const LayerOpContext& ctx,
                             const ProjectionLnDesc& desc,
                             tensor::ConstMatrixViewI8 concat,
                             tensor::ConstMatrixViewI8 residual,
                             tensor::MatrixViewI8 out,
                             tensor::MatrixI8* proj_trace) {
  const size_t sl = concat.rows();
  const size_t d = desc.w->n();
  const auto m = ctx.ws.mark();
  auto proj = ctx.ws.matrix_i8(sl, d);
  accel::run_ffn_engine(concat, *desc.w, desc.bias, ctx.ts_ffn, *desc.rq,
                        accel::FfnActivation::kNone, 0.0, proj, ctx.ws,
                        ctx.stats);
  auto scratch = ctx.ws.span_i32(d);
  accel::run_layernorm(desc.gamma, desc.beta, desc.ln_eps, proj,
                       desc.s_proj, residual, desc.s_res, desc.s_out, out,
                       scratch);
  if (proj_trace != nullptr) {
    *proj_trace = tensor::to_matrix(tensor::ConstMatrixViewI8(proj));
  }
  ctx.ws.rewind(m);
}

void run_ffn_block(const LayerOpContext& ctx, const FfnBlockDesc& desc,
                   tensor::ConstMatrixViewI8 x, tensor::MatrixViewI8 out,
                   tensor::MatrixI8* hidden_trace,
                   tensor::MatrixI8* ffn_out_trace) {
  const size_t sl = x.rows();
  const size_t d = desc.w2->n();
  const size_t f = desc.w1->n();
  const accel::FfnActivation act =
      ctx.activation == ref::Activation::kRelu
          ? accel::FfnActivation::kRelu
          : accel::FfnActivation::kGeluLut;

  const auto m = ctx.ws.mark();
  auto hidden = ctx.ws.matrix_i8(sl, f);
  accel::run_ffn_engine(x, *desc.w1, desc.b1, ctx.ts_ffn, *desc.rq_hidden,
                        act, desc.s_hidden, hidden, ctx.ws, ctx.stats);
  auto ffn_out = ctx.ws.matrix_i8(sl, d);
  accel::run_ffn_engine(hidden, *desc.w2, desc.b2, ctx.ts_ffn,
                        *desc.rq_ffn_out, accel::FfnActivation::kNone, 0.0,
                        ffn_out, ctx.ws, ctx.stats);
  auto scratch = ctx.ws.span_i32(d);
  accel::run_layernorm(desc.gamma, desc.beta, desc.ln_eps, ffn_out,
                       desc.s_ffn_out, x, desc.s_in, desc.s_out, out,
                       scratch);
  if (hidden_trace != nullptr) {
    *hidden_trace = tensor::to_matrix(tensor::ConstMatrixViewI8(hidden));
  }
  if (ffn_out_trace != nullptr) {
    *ffn_out_trace = tensor::to_matrix(tensor::ConstMatrixViewI8(ffn_out));
  }
  ctx.ws.rewind(m);
}

void run_encoder_mha_stage(const LayerOpContext& ctx,
                           const accel::QLayer& layer,
                           tensor::ConstMatrixViewI8 x,
                           tensor::MatrixViewI8 concat,
                           std::vector<HeadTrace>* traces) {
  if (layer.heads.empty()) {
    throw std::invalid_argument("run_encoder_mha_stage: no heads");
  }
  AttentionBlockDesc desc;
  desc.self_heads = layer.heads;
  desc.rq_q = &layer.rq_q;
  desc.rq_k = &layer.rq_k;
  desc.rq_v = &layer.rq_v;
  desc.rq_logit = &layer.rq_logit;
  desc.rq_sv = &layer.rq_sv;
  desc.logit_scale = layer.scales.logit;
  run_attention_block(ctx, desc, x, x, concat, traces);
}

void run_encoder_ffn_stage(const LayerOpContext& ctx,
                           const accel::QLayer& layer,
                           tensor::ConstMatrixViewI8 concat,
                           tensor::ConstMatrixViewI8 x,
                           tensor::MatrixViewI8 out, FfnTrace* trace) {
  const accel::LayerScales& s = layer.scales;
  const size_t sl = x.rows();
  const size_t d = x.cols();

  const auto m = ctx.ws.mark();
  auto x1 = ctx.ws.matrix_i8(sl, d);
  ProjectionLnDesc proj;
  proj.w = &layer.wo;
  proj.bias = layer.bo;
  proj.rq = &layer.rq_proj;
  proj.gamma = layer.ln1_gamma;
  proj.beta = layer.ln1_beta;
  proj.s_proj = s.proj;
  proj.s_res = s.x;
  proj.s_out = s.ln1;
  run_projection_ln_block(ctx, proj, concat, x, x1,
                          trace != nullptr ? &trace->proj : nullptr);

  FfnBlockDesc ffn;
  ffn.w1 = &layer.w1;
  ffn.b1 = layer.b1;
  ffn.rq_hidden = &layer.rq_hidden;
  ffn.s_hidden = s.hidden;
  ffn.w2 = &layer.w2;
  ffn.b2 = layer.b2;
  ffn.rq_ffn_out = &layer.rq_ffn_out;
  ffn.s_ffn_out = s.ffn_out;
  ffn.gamma = layer.ln2_gamma;
  ffn.beta = layer.ln2_beta;
  ffn.s_in = s.ln1;
  ffn.s_out = s.ln2;
  run_ffn_block(ctx, ffn, x1, out,
                trace != nullptr ? &trace->hidden : nullptr,
                trace != nullptr ? &trace->ffn_out : nullptr);

  if (trace != nullptr) {
    trace->ln1 = tensor::to_matrix(tensor::ConstMatrixViewI8(x1));
  }
  ctx.ws.rewind(m);
}

void run_encoder_layer(const LayerOpContext& ctx, const accel::QLayer& layer,
                       tensor::ConstMatrixViewI8 x, tensor::MatrixViewI8 out,
                       std::vector<HeadTrace>* head_traces,
                       FfnTrace* ffn_trace) {
  const auto m = ctx.ws.mark();
  auto concat = ctx.ws.matrix_i8(x.rows(), x.cols());
  run_encoder_mha_stage(ctx, layer, x, concat, head_traces);
  run_encoder_ffn_stage(ctx, layer, concat, x, out, ffn_trace);
  ctx.ws.rewind(m);
}

void run_decoder_layer(const LayerOpContext& ctx,
                       const accel::QDecoderLayer& layer,
                       tensor::ConstMatrixViewI8 x,
                       tensor::ConstMatrixViewI8 memory,
                       tensor::MatrixViewI8 out,
                       const numeric::KvCodec* kv_codec) {
  const size_t t_len = x.rows();
  const size_t d = x.cols();
  const auto m = ctx.ws.mark();

  // Masked self-attention on the QKV/QK/SV engines + projection LN.
  auto self_concat = ctx.ws.matrix_i8(t_len, d);
  AttentionBlockDesc self_desc = decoder_self_attention_desc(layer);
  self_desc.kv_codec = kv_codec;
  run_attention_block(ctx, self_desc, x, x, self_concat);
  auto x1 = ctx.ws.matrix_i8(t_len, d);
  run_projection_ln_block(ctx, decoder_self_projection_desc(layer),
                          self_concat, x, x1);

  // Cross-attention: projections sequenced on the same engines.
  auto cross_concat = ctx.ws.matrix_i8(t_len, d);
  run_attention_block(ctx, decoder_cross_attention_desc(layer), x1,
                      memory, cross_concat);
  auto x2 = ctx.ws.matrix_i8(t_len, d);
  run_projection_ln_block(ctx, decoder_cross_projection_desc(layer),
                          cross_concat, x1, x2);

  // FFN with the third residual LN.
  run_ffn_block(ctx, decoder_ffn_desc(layer), x2, out);
  ctx.ws.rewind(m);
}

// --- KV-cached (incremental) variants ---------------------------------------

void run_self_attention_cached(const LayerOpContext& ctx,
                               const AttentionBlockDesc& desc,
                               tensor::ConstMatrixViewI8 x, KvCache& cache,
                               size_t layer_index, size_t pos,
                               tensor::MatrixViewI8 concat) {
  if (desc.self_heads.empty()) {
    throw std::invalid_argument(
        "run_self_attention_cached: self heads required");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t h = desc.self_heads.size();
  const size_t dk = desc.self_heads[0].wqt.n();
  if (dk * h != d) {
    throw std::invalid_argument(
        "run_self_attention_cached: head dims inconsistent");
  }
  if (cache.num_heads() != h || cache.head_dim() != dk ||
      layer_index >= cache.num_layers()) {
    throw std::invalid_argument(
        "run_self_attention_cached: cache geometry mismatch");
  }
  if (pos + n > cache.capacity() || pos + n > cache.reserved_rows()) {
    throw std::invalid_argument(
        "run_self_attention_cached: cache capacity exceeded");
  }
  if (concat.rows() != n || concat.cols() != d) {
    throw std::invalid_argument(
        "run_self_attention_cached: concat shape mismatch");
  }
  const size_t total = pos + n;

  const accel::SoftmaxUnit softmax(desc.logit_scale);
  for (size_t head = 0; head < h; ++head) {
    // Project into workspace scratch, scatter the new rows through the
    // block table, then run QK/SV straight over the block table via
    // span-list operands — the prefix is never copied (quantized codes
    // are decoded by the GEMM kernels as they read them) and the fused
    // softmax consumes the QK accumulator tile in place of a
    // materialized logits matrix. Scatter respects copy-on-write
    // forking: a target block still shared with a forked sibling is
    // made private before the first write (the head-0 scatter of a
    // layer pays the block copy; later heads see refcount 1), and since
    // reads never privatize, the spans below always resolve through
    // this sequence's own table.
    const auto m = ctx.ws.mark();
    auto q = ctx.ws.matrix_i8(n, dk);
    auto weights = ctx.ws.matrix_i8(n, total);
    auto scores = ctx.ws.matrix_i8(n, dk);
    auto k_new = ctx.ws.matrix_i8(n, dk);
    auto v_new = ctx.ws.matrix_i8(n, dk);
    accel::run_qkv_engine(x, desc.self_heads[head], ctx.ts_mha, *desc.rq_q,
                          *desc.rq_k, *desc.rq_v, q, k_new, v_new, ctx.ws,
                          ctx.stats);
    cache.scatter_self(layer_index, head, pos, k_new, v_new);
    const size_t max_runs = cache.max_self_span_runs(total);
    auto k_runs = ctx.ws.span_of<tensor::RowSpanI8>(max_runs);
    auto v_runs = ctx.ws.span_of<tensor::RowSpanI8>(max_runs);
    const tensor::RowSpanListI8 k_spans =
        cache.self_spans(layer_index, head, 0, total, k_runs);
    const tensor::RowSpanListI8 v_spans =
        cache.self_spans(layer_index, head, 1, total, v_runs);
    accel::run_qk_softmax_engine(q, k_spans, *desc.rq_logit, softmax,
                                 /*row_offset=*/pos, weights, ctx.ws,
                                 ctx.stats);
    accel::run_sv_engine(weights, v_spans, *desc.rq_sv, scores, ctx.ws,
                         ctx.stats);
    emit_head_scores(concat, head, dk, scores);
    ctx.ws.rewind(m);
  }
}

void fill_cross_kv_cache(const LayerOpContext& ctx,
                         const AttentionBlockDesc& desc,
                         tensor::ConstMatrixViewI8 memory, LayerKv& kv) {
  if (desc.cross_heads.empty()) {
    throw std::invalid_argument("fill_cross_kv_cache: cross heads required");
  }
  const size_t h = desc.cross_heads.size();
  const size_t mem_rows = memory.rows();
  if (kv.cross_k.size() != h || mem_rows > kv.cross_k[0].rows()) {
    throw std::invalid_argument(
        "fill_cross_kv_cache: cache geometry mismatch");
  }
  for (size_t head = 0; head < h; ++head) {
    const accel::QCrossHeadWeights& ch = desc.cross_heads[head];
    accel::run_ffn_engine(memory, ch.ckt, ch.cbk, ctx.ts_mha, *desc.rq_k,
                          accel::FfnActivation::kNone, 0.0,
                          prefix_rows(kv.cross_k[head], mem_rows), ctx.ws,
                          ctx.stats);
    accel::run_ffn_engine(memory, ch.cvt, ch.cbv, ctx.ts_mha, *desc.rq_v,
                          accel::FfnActivation::kNone, 0.0,
                          prefix_rows(kv.cross_v[head], mem_rows), ctx.ws,
                          ctx.stats);
  }
}

void run_cross_attention_cached(const LayerOpContext& ctx,
                                const AttentionBlockDesc& desc,
                                tensor::ConstMatrixViewI8 x,
                                const LayerKv& kv, size_t memory_len,
                                tensor::MatrixViewI8 concat) {
  if (desc.cross_heads.empty()) {
    throw std::invalid_argument(
        "run_cross_attention_cached: cross heads required");
  }
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t h = desc.cross_heads.size();
  const size_t dk = desc.cross_heads[0].cqt.n();
  if (dk * h != d || kv.cross_k.size() != h) {
    throw std::invalid_argument(
        "run_cross_attention_cached: head dims inconsistent");
  }
  if (memory_len == 0 || memory_len > kv.cross_k[0].rows()) {
    throw std::invalid_argument(
        "run_cross_attention_cached: bad memory length");
  }
  if (concat.rows() != n || concat.cols() != d) {
    throw std::invalid_argument(
        "run_cross_attention_cached: concat shape mismatch");
  }

  const accel::SoftmaxUnit softmax(desc.logit_scale);
  for (size_t head = 0; head < h; ++head) {
    const auto m = ctx.ws.mark();
    auto q = ctx.ws.matrix_i8(n, dk);
    accel::run_ffn_engine(x, desc.cross_heads[head].cqt,
                          desc.cross_heads[head].cbq, ctx.ts_mha, *desc.rq_q,
                          accel::FfnActivation::kNone, 0.0, q, ctx.ws,
                          ctx.stats);
    const tensor::ConstMatrixViewI8 k =
        prefix_rows(kv.cross_k[head], memory_len);
    const tensor::ConstMatrixViewI8 v =
        prefix_rows(kv.cross_v[head], memory_len);
    auto logits = ctx.ws.matrix_i8(n, memory_len);
    auto weights = ctx.ws.matrix_i8(n, memory_len);
    auto scores = ctx.ws.matrix_i8(n, dk);
    accel::run_qk_engine(q, k, *desc.rq_logit, logits, ctx.ws, ctx.stats);
    softmax.run_into(logits, weights);
    accel::run_sv_engine(weights, v, *desc.rq_sv, scores, ctx.ws, ctx.stats);
    emit_head_scores(concat, head, dk, scores);
    ctx.ws.rewind(m);
  }
}

void run_decoder_layer_cached(const LayerOpContext& ctx,
                              const accel::QDecoderLayer& layer,
                              tensor::ConstMatrixViewI8 x, size_t pos,
                              KvCache& cache, size_t layer_index,
                              tensor::MatrixViewI8 out, StageGate* gate) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t memory_len = cache.memory_len();
  LayerKv& kv = cache.layer(layer_index);
  const auto m = ctx.ws.mark();

  // Masked self-attention over the cached prefix (MHA-module engines).
  auto self_concat = ctx.ws.matrix_i8(n, d);
  {
    const StageScope scope(gate, Stage::kMha);
    run_self_attention_cached(ctx, decoder_self_attention_desc(layer), x,
                              cache, layer_index, pos, self_concat);
  }
  auto x1 = ctx.ws.matrix_i8(n, d);
  {
    const StageScope scope(gate, Stage::kFfn);
    run_projection_ln_block(ctx, decoder_self_projection_desc(layer),
                            self_concat, x, x1);
  }

  // Cross-attention over the prefilled memory projections.
  auto cross_concat = ctx.ws.matrix_i8(n, d);
  {
    const StageScope scope(gate, Stage::kMha);
    run_cross_attention_cached(ctx, decoder_cross_attention_desc(layer),
                               x1, kv, memory_len, cross_concat);
  }
  {
    const StageScope scope(gate, Stage::kFfn);
    auto x2 = ctx.ws.matrix_i8(n, d);
    run_projection_ln_block(ctx, decoder_cross_projection_desc(layer),
                            cross_concat, x1, x2);
    run_ffn_block(ctx, decoder_ffn_desc(layer), x2, out);
  }
  ctx.ws.rewind(m);
}

void rescale_rows_inplace(tensor::MatrixViewI8 x, double from_scale,
                          double to_scale) {
  const double ratio = from_scale / to_scale;
  for (int8_t& q : x.flat()) {
    const auto rescaled =
        static_cast<int32_t>(std::llround(static_cast<double>(q) * ratio));
    q = static_cast<int8_t>(std::clamp(rescaled, -128, 127));
  }
}

}  // namespace protea::runtime

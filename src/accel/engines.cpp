#include "accel/engines.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "accel/softmax_unit.hpp"
#include "numeric/dsp48.hpp"
#include "tensor/qgemm.hpp"

namespace protea::accel {
namespace {

// Worst-case reduction: max_d_model (4096 generous bound) int8*int8
// products plus an int32 bias — comfortably inside the DSP48 accumulator.
static_assert(numeric::accumulation_fits_dsp48(4096, 128 * 128),
              "reduction depth exceeds DSP48 accumulator headroom");

constexpr int32_t kQMax = 127;
constexpr int32_t kQMin = -128;

/// int8 -> int8 GELU lookup table at a fixed scale (tanh formulation),
/// the LUT the FPGA stores in LUTRAM.
std::array<int8_t, 256> build_gelu_table(double scale) {
  std::array<int8_t, 256> table{};
  for (int qi = kQMin; qi <= kQMax; ++qi) {
    const double x = qi * scale;
    const double inner =
        0.7978845608028654 * (x + 0.044715 * x * x * x);
    const double y = 0.5 * x * (1.0 + std::tanh(inner));
    const auto q = static_cast<int32_t>(std::llround(y / scale));
    table[static_cast<size_t>(qi - kQMin)] =
        static_cast<int8_t>(std::clamp(q, kQMin, kQMax));
  }
  return table;
}

void check_out_shape(tensor::MatrixViewI8 out, size_t rows, size_t cols,
                     const char* name) {
  if (out.rows() != rows || out.cols() != cols) {
    throw std::invalid_argument(std::string(name) +
                                ": output view shape mismatch");
  }
}

/// Thread-local scratch arena backing the owning-form wrappers.
runtime::WorkspaceArena& engine_scratch_arena() {
  static thread_local runtime::WorkspaceArena arena;
  return arena;
}

}  // namespace

// --- QKV engine --------------------------------------------------------------

void run_qkv_engine(tensor::ConstMatrixViewI8 x, const QHeadWeights& head,
                    uint32_t ts_mha, const numeric::RequantParams& rq_q,
                    const numeric::RequantParams& rq_k,
                    const numeric::RequantParams& rq_v,
                    tensor::MatrixViewI8 q, tensor::MatrixViewI8 k,
                    tensor::MatrixViewI8 v, runtime::WorkspaceArena& ws,
                    EngineStats* stats) {
  const size_t sl = x.rows();
  const size_t d = x.cols();
  const size_t dk = head.wqt.n();
  for (const tensor::PackedWeightI8* w : {&head.wqt, &head.wkt, &head.wvt}) {
    if (w->k() != d || w->n() != dk) {
      throw std::invalid_argument("run_qkv_engine: weight shape mismatch");
    }
  }
  if (head.bq.size() != dk || head.bk.size() != dk || head.bv.size() != dk) {
    throw std::invalid_argument("run_qkv_engine: bias length mismatch");
  }
  if (ts_mha == 0) {
    throw std::invalid_argument("run_qkv_engine: zero tile size");
  }
  check_out_shape(q, sl, dk, "run_qkv_engine");
  check_out_shape(k, sl, dk, "run_qkv_engine");
  check_out_shape(v, sl, dk, "run_qkv_engine");

  // Fig. 5's accumulate-across-column-tiles is exact int32 arithmetic, so
  // the packed kernel reproduces it bit-for-bit at any blocking; the tile
  // size ts_mha remains a perf_model (cycle accounting) parameter only.
  const auto m = ws.mark();
  auto acc_q = ws.matrix_i32(sl, dk);
  auto acc_k = ws.matrix_i32(sl, dk);
  auto acc_v = ws.matrix_i32(sl, dk);
  tensor::qgemm_packed_into(x, head.wqt, acc_q);
  tensor::qgemm_packed_into(x, head.wkt, acc_k);
  tensor::qgemm_packed_into(x, head.wvt, acc_v);
  if (stats != nullptr) stats->macs += 3 * sl * d * dk;

  // Bias add in the accumulator domain, then write-back requantization.
  for (size_t i = 0; i < sl; ++i) {
    numeric::requantize_row(acc_q.row(i), head.bq.data(), rq_q, q.row(i));
    numeric::requantize_row(acc_k.row(i), head.bk.data(), rq_k, k.row(i));
    numeric::requantize_row(acc_v.row(i), head.bv.data(), rq_v, v.row(i));
  }
  ws.rewind(m);
}

void run_qkv_engine(const tensor::MatrixI8& x, const QHeadWeights& head,
                    uint32_t ts_mha, const numeric::RequantParams& rq_q,
                    const numeric::RequantParams& rq_k,
                    const numeric::RequantParams& rq_v, tensor::MatrixI8& q,
                    tensor::MatrixI8& k, tensor::MatrixI8& v,
                    EngineStats* stats) {
  const size_t sl = x.rows();
  const size_t dk = head.wqt.n();
  q = tensor::MatrixI8(sl, dk);
  k = tensor::MatrixI8(sl, dk);
  v = tensor::MatrixI8(sl, dk);
  run_qkv_engine(tensor::ConstMatrixViewI8(x), head, ts_mha, rq_q, rq_k,
                 rq_v, q, k, v, engine_scratch_arena(), stats);
}

// --- QK engine ---------------------------------------------------------------

void run_qk_engine(tensor::ConstMatrixViewI8 q, tensor::ConstMatrixViewI8 k,
                   const numeric::RequantParams& rq_logit,
                   tensor::MatrixViewI8 logits, runtime::WorkspaceArena& ws,
                   EngineStats* stats) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("run_qk_engine: head dim mismatch");
  }
  const size_t sl_q = q.rows();
  const size_t sl_k = k.rows();
  const size_t dk = q.cols();
  check_out_shape(logits, sl_q, sl_k, "run_qk_engine");

  const auto m = ws.mark();
  auto acc = ws.matrix_i32(sl_q, sl_k);
  auto pack = ws.span_i8(tensor::qgemm_pack_elems(sl_k));
  tensor::qgemm_bt_into(q, k, acc, pack);
  numeric::requantize_row(acc.flat(), nullptr, rq_logit, logits.flat());
  if (stats != nullptr) stats->macs += sl_q * sl_k * dk;
  ws.rewind(m);
}

void run_qk_softmax_engine(tensor::ConstMatrixViewI8 q,
                           const tensor::RowSpanListI8& k,
                           const numeric::RequantParams& rq_logit,
                           const SoftmaxUnit& softmax, size_t row_offset,
                           tensor::MatrixViewI8 weights,
                           runtime::WorkspaceArena& ws, EngineStats* stats) {
  if (q.cols() != k.cols) {
    throw std::invalid_argument("run_qk_softmax_engine: head dim mismatch");
  }
  const size_t sl_q = q.rows();
  const size_t sl_k = k.rows;
  const size_t dk = q.cols();
  check_out_shape(weights, sl_q, sl_k, "run_qk_softmax_engine");

  const auto m = ws.mark();
  auto acc = ws.matrix_i32(sl_q, sl_k);
  auto pack = ws.span_i8(tensor::qgemm_pack_elems(sl_k));
  tensor::qgemm_bt_spans_into(q, k, acc, pack);
  // The fused pass requantizes straight off the accumulator tile — the
  // int8 logits matrix (and its write + two reads) never exists.
  softmax.run_causal_fused_into(acc, rq_logit, weights, row_offset);
  if (stats != nullptr) {
    stats->macs += sl_q * sl_k * dk;
    stats->span_runs += k.runs.size();
  }
  ws.rewind(m);
}

void run_qk_engine(const tensor::MatrixI8& q, const tensor::MatrixI8& k,
                   const numeric::RequantParams& rq_logit,
                   tensor::MatrixI8& logits, EngineStats* stats) {
  logits = tensor::MatrixI8(q.rows(), k.rows());
  run_qk_engine(tensor::ConstMatrixViewI8(q), tensor::ConstMatrixViewI8(k),
                rq_logit, logits, engine_scratch_arena(), stats);
}

// --- SV engine ---------------------------------------------------------------

void run_sv_engine(tensor::ConstMatrixViewI8 attn_weights,
                   tensor::ConstMatrixViewI8 v,
                   const numeric::RequantParams& rq_sv,
                   tensor::MatrixViewI8 scores, runtime::WorkspaceArena& ws,
                   EngineStats* stats) {
  if (attn_weights.cols() != v.rows()) {
    throw std::invalid_argument("run_sv_engine: shape mismatch");
  }
  const size_t sl = attn_weights.rows();
  const size_t dk = v.cols();
  const size_t inner = v.rows();
  check_out_shape(scores, sl, dk, "run_sv_engine");

  const auto m = ws.mark();
  auto acc = ws.matrix_i32(sl, dk);
  auto pack = ws.span_i8(tensor::qgemm_pack_elems(dk));
  tensor::qgemm_into(attn_weights, v, acc, pack);
  numeric::requantize_row(acc.flat(), nullptr, rq_sv, scores.flat());
  if (stats != nullptr) stats->macs += sl * dk * inner;
  ws.rewind(m);
}

void run_sv_engine(tensor::ConstMatrixViewI8 attn_weights,
                   const tensor::RowSpanListI8& v,
                   const numeric::RequantParams& rq_sv,
                   tensor::MatrixViewI8 scores, runtime::WorkspaceArena& ws,
                   EngineStats* stats) {
  if (attn_weights.cols() != v.rows) {
    throw std::invalid_argument("run_sv_engine: shape mismatch");
  }
  const size_t sl = attn_weights.rows();
  const size_t dk = v.cols;
  const size_t inner = v.rows;
  check_out_shape(scores, sl, dk, "run_sv_engine");

  const auto m = ws.mark();
  auto acc = ws.matrix_i32(sl, dk);
  auto pack = ws.span_i8(tensor::qgemm_pack_elems(dk));
  tensor::qgemm_spans_into(attn_weights, v, acc, pack);
  numeric::requantize_row(acc.flat(), nullptr, rq_sv, scores.flat());
  if (stats != nullptr) {
    stats->macs += sl * dk * inner;
    stats->span_runs += v.runs.size();
  }
  ws.rewind(m);
}

void run_sv_engine(const tensor::MatrixI8& attn_weights,
                   const tensor::MatrixI8& v,
                   const numeric::RequantParams& rq_sv,
                   tensor::MatrixI8& scores, EngineStats* stats) {
  scores = tensor::MatrixI8(attn_weights.rows(), v.cols());
  run_sv_engine(tensor::ConstMatrixViewI8(attn_weights),
                tensor::ConstMatrixViewI8(v), rq_sv, scores,
                engine_scratch_arena(), stats);
}

// --- FFN engine --------------------------------------------------------------

void run_ffn_engine(tensor::ConstMatrixViewI8 in,
                    const tensor::PackedWeightI8& w,
                    std::span<const int32_t> bias, uint32_t ts_ffn,
                    const numeric::RequantParams& rq, FfnActivation act,
                    double act_scale, tensor::MatrixViewI8 out,
                    runtime::WorkspaceArena& ws, EngineStats* stats) {
  const size_t sl = in.rows();
  const size_t in_dim = in.cols();
  const size_t out_dim = w.n();
  if (w.k() != in_dim) {
    throw std::invalid_argument("run_ffn_engine: weight shape mismatch");
  }
  if (bias.size() != out_dim) {
    throw std::invalid_argument("run_ffn_engine: bias length mismatch");
  }
  if (ts_ffn == 0) {
    throw std::invalid_argument("run_ffn_engine: zero tile size");
  }
  check_out_shape(out, sl, out_dim, "run_ffn_engine");

  std::array<int8_t, 256> gelu_table{};
  if (act == FfnActivation::kGeluLut) {
    gelu_table = build_gelu_table(act_scale);
  }

  // Fig. 6's 2-D tiling (accumulate partial products across row tiles per
  // column tile) is exact int32 arithmetic — the packed kernel computes the
  // same sums bit-for-bit; ts_ffn stays a cycle-accounting parameter.
  const auto m = ws.mark();
  auto acc = ws.matrix_i32(sl, out_dim);
  tensor::qgemm_packed_into(in, w, acc);

  for (size_t i = 0; i < sl; ++i) {
    const auto out_row = out.row(i);
    numeric::requantize_row(acc.row(i), bias.data(), rq, out_row);
    switch (act) {
      case FfnActivation::kNone:
        break;
      case FfnActivation::kRelu:
        for (int8_t& value : out_row) value = std::max<int8_t>(value, 0);
        break;
      case FfnActivation::kGeluLut:
        for (int8_t& value : out_row) {
          value = gelu_table[static_cast<size_t>(int32_t{value} - kQMin)];
        }
        break;
    }
  }
  if (stats != nullptr) stats->macs += sl * in_dim * out_dim;
  ws.rewind(m);
}

void run_ffn_engine(const tensor::MatrixI8& in,
                    const tensor::PackedWeightI8& w,
                    std::span<const int32_t> bias, uint32_t ts_ffn,
                    const numeric::RequantParams& rq, FfnActivation act,
                    double act_scale, tensor::MatrixI8& out,
                    EngineStats* stats) {
  out = tensor::MatrixI8(in.rows(), w.n());
  run_ffn_engine(tensor::ConstMatrixViewI8(in), w, bias, ts_ffn, rq, act,
                 act_scale, out, engine_scratch_arena(), stats);
}

}  // namespace protea::accel

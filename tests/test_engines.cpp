// Tests for the ProTEA computation engines: functional correctness of the
// quantized datapath against the float reference, tiling invariance, the
// softmax LUT unit and the LayerNorm unit.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/engines.hpp"
#include "accel/layernorm_unit.hpp"
#include "accel/quant_calib.hpp"
#include "accel/quantized_model.hpp"
#include "accel/softmax_unit.hpp"
#include "numeric/quantizer.hpp"
#include "ref/encoder.hpp"
#include "ref/weights.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace protea::accel {
namespace {

using numeric::Quantizer;
using tensor::MatrixF;
using tensor::MatrixI8;

ref::ModelConfig tiny_config() {
  ref::ModelConfig c;
  c.seq_len = 8;
  c.d_model = 32;
  c.num_heads = 4;
  c.num_layers = 1;
  return c;
}

/// Environment shared by engine tests: a tiny quantized layer plus the
/// float reference trace it must reproduce.
struct LayerFixture {
  ref::ModelConfig config;
  ref::EncoderWeights weights;
  MatrixF input;
  std::vector<ref::LayerTrace> ref_traces;
  QuantizedModel qmodel;
  MatrixI8 x_q;

  explicit LayerFixture(ref::ModelConfig cfg = tiny_config(),
                        uint64_t seed = 100)
      : config(cfg),
        weights(ref::make_random_weights(cfg, seed)),
        input(ref::make_random_input(cfg, seed + 1)) {
    ref::Encoder encoder(weights);
    encoder.forward_traced(input, ref_traces);
    qmodel = quantize_model(weights, calibrate_scales(encoder, input));
    Quantizer q(8, true);
    q.set_scale(qmodel.layers[0].scales.x);
    x_q = MatrixI8(input.rows(), input.cols());
    q.quantize(input.flat(), x_q.flat());
  }
};

MatrixF dequant(const MatrixI8& m, double scale) {
  MatrixF out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) {
    out.flat()[i] = static_cast<float>(m.flat()[i] * scale);
  }
  return out;
}

// --- QKV engine -----------------------------------------------------------------

TEST(QkvEngine, MatchesFloatReferenceWithinQuantError) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  for (size_t head = 0; head < fx.config.num_heads; ++head) {
    MatrixI8 q, k, v;
    run_qkv_engine(fx.x_q, layer.heads[head], 16, layer.rq_q, layer.rq_k,
                   layer.rq_v, q, k, v);
    const auto& ref_q = fx.ref_traces[0].q[head];
    // Tolerance: a few int8 steps of accumulated quantization noise.
    EXPECT_LE(tensor::max_abs_diff(dequant(q, layer.scales.q), ref_q),
              6 * static_cast<float>(layer.scales.q))
        << "head " << head;
  }
}

TEST(QkvEngine, TilingInvariance) {
  // Fig. 5's accumulate-across-tiles must give identical results for any
  // tile width, including non-dividing ones.
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  MatrixI8 q0, k0, v0;
  run_qkv_engine(fx.x_q, layer.heads[0], 32, layer.rq_q, layer.rq_k,
                 layer.rq_v, q0, k0, v0);
  for (uint32_t ts : {1u, 5u, 8u, 16u, 31u, 64u}) {
    MatrixI8 q, k, v;
    run_qkv_engine(fx.x_q, layer.heads[0], ts, layer.rq_q, layer.rq_k,
                   layer.rq_v, q, k, v);
    EXPECT_EQ(q, q0) << "ts=" << ts;
    EXPECT_EQ(k, k0) << "ts=" << ts;
    EXPECT_EQ(v, v0) << "ts=" << ts;
  }
}

TEST(QkvEngine, CountsMacs) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  EngineStats stats;
  MatrixI8 q, k, v;
  run_qkv_engine(fx.x_q, layer.heads[0], 16, layer.rq_q, layer.rq_k,
                 layer.rq_v, q, k, v, &stats);
  // 3 projections x SL x d x dk.
  EXPECT_EQ(stats.macs, 3ull * 8 * 32 * 8);
}

TEST(QkvEngine, RejectsBadShapes) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  MatrixI8 q, k, v;
  MatrixI8 bad_x(8, 16);  // wrong width
  EXPECT_THROW(run_qkv_engine(bad_x, layer.heads[0], 16, layer.rq_q,
                              layer.rq_k, layer.rq_v, q, k, v),
               std::invalid_argument);
  EXPECT_THROW(run_qkv_engine(fx.x_q, layer.heads[0], 0, layer.rq_q,
                              layer.rq_k, layer.rq_v, q, k, v),
               std::invalid_argument);
  // A short bias would be read past its end; every bias is checked.
  for (auto bias : {&QHeadWeights::bq, &QHeadWeights::bk, &QHeadWeights::bv}) {
    QHeadWeights short_bias = layer.heads[0];
    (short_bias.*bias).pop_back();
    EXPECT_THROW(run_qkv_engine(fx.x_q, short_bias, 16, layer.rq_q,
                                layer.rq_k, layer.rq_v, q, k, v),
                 std::invalid_argument);
  }
  // K and V weights must have Q's shape: d_model inputs, d_k outputs.
  const size_t dk = fx.config.head_dim(), d = fx.config.d_model;
  QHeadWeights wide_k = layer.heads[0];
  wide_k.wkt = tensor::PackedWeightI8::from_bt(MatrixI8(dk + 1, d));
  EXPECT_THROW(run_qkv_engine(fx.x_q, wide_k, 16, layer.rq_q, layer.rq_k,
                              layer.rq_v, q, k, v),
               std::invalid_argument);
  QHeadWeights narrow_v = layer.heads[0];
  narrow_v.wvt = tensor::PackedWeightI8::from_bt(MatrixI8(dk, d - 1));
  EXPECT_THROW(run_qkv_engine(fx.x_q, narrow_v, 16, layer.rq_q, layer.rq_k,
                              layer.rq_v, q, k, v),
               std::invalid_argument);
}

// --- QK engine -------------------------------------------------------------------

TEST(QkEngine, MatchesFloatLogitsWithinQuantError) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  MatrixI8 q, k, v, logits;
  run_qkv_engine(fx.x_q, layer.heads[0], 16, layer.rq_q, layer.rq_k,
                 layer.rq_v, q, k, v);
  run_qk_engine(q, k, layer.rq_logit, logits);
  // Reconstruct float logits from the reference trace: scaled Q.K^T.
  const auto& tq = fx.ref_traces[0].q[0];
  const auto& tk = fx.ref_traces[0].k[0];
  MatrixF ref_logits = tensor::matmul_bt(tq, tk);
  tensor::scale_inplace(ref_logits,
                        1.0f / std::sqrt(static_cast<float>(8)));
  EXPECT_LE(tensor::max_abs_diff(dequant(logits, layer.scales.logit),
                                 ref_logits),
            8 * static_cast<float>(layer.scales.logit));
}

TEST(QkEngine, RejectsMismatchedHeads) {
  MatrixI8 q(4, 8), k(4, 16), out;
  numeric::RequantParams rq;
  EXPECT_THROW(run_qk_engine(q, k, rq, out), std::invalid_argument);
}

// --- softmax unit -----------------------------------------------------------------

TEST(SoftmaxUnit, RowsSumToApproximately127) {
  SoftmaxUnit unit(0.0625);
  util::Xoshiro256 rng(3);
  MatrixI8 logits(6, 16);
  for (auto& v : logits.flat()) {
    v = static_cast<int8_t>(rng.bounded(255)) ;
  }
  const MatrixI8 w = unit.run(logits);
  for (size_t r = 0; r < w.rows(); ++r) {
    int sum = 0;
    for (int8_t v : w.row(r)) {
      EXPECT_GE(v, 0);
      sum += v;
    }
    // Rounding each entry individually keeps the sum within one step per
    // element of the exact 127.
    EXPECT_NEAR(sum, 127, 8);
  }
}

TEST(SoftmaxUnit, MatchesFloatSoftmax) {
  const double scale = 0.0625;
  SoftmaxUnit unit(scale);
  MatrixI8 logits = MatrixI8::from_rows(1, 4, {0, 32, -64, 16});
  const MatrixI8 w = unit.run(logits);
  MatrixF ref = MatrixF::from_rows(
      1, 4,
      {0.0f, 32 * static_cast<float>(scale), -64 * static_cast<float>(scale),
       16 * static_cast<float>(scale)});
  tensor::softmax_rows_inplace(ref);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(w(0, c) / 127.0, ref(0, c), 0.02) << c;
  }
}

TEST(SoftmaxUnit, MaxElementGetsLargestWeight) {
  SoftmaxUnit unit(0.02);
  MatrixI8 logits = MatrixI8::from_rows(1, 4, {10, 100, -50, 0});
  const MatrixI8 w = unit.run(logits);
  EXPECT_GT(w(0, 1), w(0, 0));
  EXPECT_GT(w(0, 0), w(0, 2));
}

TEST(SoftmaxUnit, UniformLogitsGiveUniformWeights) {
  SoftmaxUnit unit(0.05);
  MatrixI8 logits(2, 8, 42);
  const MatrixI8 w = unit.run(logits);
  for (size_t c = 1; c < 8; ++c) EXPECT_EQ(w(0, c), w(0, 0));
  EXPECT_NEAR(w(0, 0), 127 / 8, 1);
}

TEST(SoftmaxUnit, TableIsMonotoneDecreasing) {
  SoftmaxUnit unit(0.03);
  for (uint32_t d = 1; d < 256; ++d) {
    EXPECT_LE(unit.table_entry(d), unit.table_entry(d - 1));
  }
  EXPECT_EQ(unit.table_entry(0), 65536u);
}

TEST(SoftmaxUnit, RejectsBadScale) {
  EXPECT_THROW(SoftmaxUnit(0.0), std::invalid_argument);
  EXPECT_THROW(SoftmaxUnit(-1.0), std::invalid_argument);
}

// --- SV engine -------------------------------------------------------------------

TEST(SvEngine, MatchesFloatReference) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  MatrixI8 q, k, v, logits, scores;
  run_qkv_engine(fx.x_q, layer.heads[0], 16, layer.rq_q, layer.rq_k,
                 layer.rq_v, q, k, v);
  run_qk_engine(q, k, layer.rq_logit, logits);
  const SoftmaxUnit softmax(layer.scales.logit);
  const MatrixI8 weights = softmax.run(logits);
  run_sv_engine(weights, v, layer.rq_sv, scores);
  EXPECT_LE(tensor::max_abs_diff(dequant(scores, layer.scales.sv),
                                 fx.ref_traces[0].attn_scores[0]),
            10 * static_cast<float>(layer.scales.sv));
}

TEST(SvEngine, RejectsShapeMismatch) {
  MatrixI8 w(4, 8), v(7, 8), out;
  numeric::RequantParams rq;
  EXPECT_THROW(run_sv_engine(w, v, rq, out), std::invalid_argument);
}

// --- FFN engine -------------------------------------------------------------------

TEST(FfnEngine, TilingInvariance) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  MatrixI8 base;
  run_ffn_engine(fx.x_q, layer.wo, layer.bo, 32, layer.rq_proj,
                 FfnActivation::kNone, 0.0, base);
  for (uint32_t ts : {1u, 3u, 8u, 17u, 64u}) {
    MatrixI8 out;
    run_ffn_engine(fx.x_q, layer.wo, layer.bo, ts, layer.rq_proj,
                   FfnActivation::kNone, 0.0, out);
    EXPECT_EQ(out, base) << "ts=" << ts;
  }
}

TEST(FfnEngine, ReluZeroesNegatives) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  MatrixI8 out;
  run_ffn_engine(fx.x_q, layer.w1, layer.b1, 16, layer.rq_hidden,
                 FfnActivation::kRelu, 0.0, out);
  for (int8_t v : out.flat()) EXPECT_GE(v, 0);
}

TEST(FfnEngine, GeluLutNearFloatGelu) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  const double s = layer.scales.hidden;
  MatrixI8 with_gelu, without;
  run_ffn_engine(fx.x_q, layer.w1, layer.b1, 16, layer.rq_hidden,
                 FfnActivation::kGeluLut, s, with_gelu);
  run_ffn_engine(fx.x_q, layer.w1, layer.b1, 16, layer.rq_hidden,
                 FfnActivation::kNone, 0.0, without);
  for (size_t i = 0; i < with_gelu.size(); ++i) {
    const double x = without.flat()[i] * s;
    const double gelu =
        0.5 * x *
        (1.0 + std::tanh(0.7978845608 * (x + 0.044715 * x * x * x)));
    EXPECT_NEAR(with_gelu.flat()[i] * s, gelu, 1.5 * s) << i;
  }
}

TEST(FfnEngine, MatchesFloatProjection) {
  LayerFixture fx;
  const QLayer& layer = fx.qmodel.layers[0];
  // Quantize the reference concat input, push it through FFN1 and compare
  // against the float projection.
  Quantizer q(8, true);
  q.set_scale(layer.scales.sv);
  const auto& concat_f = fx.ref_traces[0].concat;
  MatrixI8 concat_q(concat_f.rows(), concat_f.cols());
  q.quantize(concat_f.flat(), concat_q.flat());
  MatrixI8 proj_q;
  run_ffn_engine(concat_q, layer.wo, layer.bo, 16, layer.rq_proj,
                 FfnActivation::kNone, 0.0, proj_q);
  EXPECT_LE(tensor::max_abs_diff(dequant(proj_q, layer.scales.proj),
                                 fx.ref_traces[0].proj),
            10 * static_cast<float>(layer.scales.proj));
}

TEST(FfnEngine, ValidatesInputs) {
  MatrixI8 in(2, 4), out;
  const auto w = tensor::PackedWeightI8::from_b(MatrixI8(5, 4));  // k != 4
  std::vector<int32_t> bias(4, 0);
  numeric::RequantParams rq;
  EXPECT_THROW(run_ffn_engine(in, w, bias, 2, rq, FfnActivation::kNone,
                              0.0, out),
               std::invalid_argument);
  const auto w2 = tensor::PackedWeightI8::from_b(MatrixI8(4, 4));
  std::vector<int32_t> bad_bias(3, 0);
  EXPECT_THROW(run_ffn_engine(in, w2, bad_bias, 2, rq,
                              FfnActivation::kNone, 0.0, out),
               std::invalid_argument);
  EXPECT_THROW(run_ffn_engine(in, w2, bias, 0, rq, FfnActivation::kNone,
                              0.0, out),
               std::invalid_argument);
}

// --- LayerNorm unit ----------------------------------------------------------------

TEST(LayerNormUnit, MatchesFloatLayerNorm) {
  const size_t cols = 32;
  std::vector<float> gamma(cols, 1.0f), beta(cols, 0.0f);
  LayerNormUnit unit(gamma, beta);

  util::Xoshiro256 rng(55);
  MatrixI8 x(4, cols), r(4, cols);
  for (auto& v : x.flat()) v = static_cast<int8_t>(rng.bounded(255)) ;
  for (auto& v : r.flat()) v = static_cast<int8_t>(rng.bounded(255)) ;
  const double s_x = 1.0 / 32, s_r = 1.0 / 16, s_out = 1.0 / 32;

  const MatrixI8 out = unit.run(x, s_x, r, s_r, s_out);

  // Float reference of the same fused residual + LN.
  MatrixF z(4, cols);
  for (size_t i = 0; i < z.size(); ++i) {
    z.flat()[i] = static_cast<float>(x.flat()[i] * s_x + r.flat()[i] * s_r);
  }
  tensor::layer_norm_rows_inplace(z, gamma, beta);
  EXPECT_LE(tensor::max_abs_diff(dequant(out, s_out), z),
            static_cast<float>(s_out) * 1.5f);
}

TEST(LayerNormUnit, AppliesGammaBeta) {
  const size_t cols = 16;
  std::vector<float> gamma(cols, 2.0f), beta(cols, 1.0f);
  LayerNormUnit unit(gamma, beta);
  MatrixI8 x(1, cols), r(1, cols, 0);
  for (size_t c = 0; c < cols; ++c) {
    x(0, c) = static_cast<int8_t>(c * 4);
  }
  const MatrixI8 out = unit.run(x, 1.0 / 32, r, 1.0 / 32, 1.0 / 16);
  // Mean of the output should be ~beta (=1) in real units.
  double mean = 0.0;
  for (int8_t v : out.flat()) mean += v / 16.0;
  mean /= cols;
  EXPECT_NEAR(mean, 1.0, 0.1);
}

TEST(LayerNormUnit, RejectsNonPow2ScaleRatio) {
  std::vector<float> gamma(8, 1.0f), beta(8, 0.0f);
  LayerNormUnit unit(gamma, beta);
  MatrixI8 x(1, 8), r(1, 8);
  EXPECT_THROW(unit.run(x, 0.03, r, 0.01, 0.03), std::invalid_argument);
}

TEST(LayerNormUnit, RejectsShapeMismatch) {
  std::vector<float> gamma(8, 1.0f), beta(8, 0.0f);
  LayerNormUnit unit(gamma, beta);
  MatrixI8 x(1, 8), r(2, 8);
  EXPECT_THROW(unit.run(x, 0.5, r, 0.5, 0.5), std::invalid_argument);
  MatrixI8 narrow(1, 4);
  EXPECT_THROW(unit.run(narrow, 0.5, narrow, 0.5, 0.5),
               std::invalid_argument);
  EXPECT_THROW(LayerNormUnit({}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace protea::accel

// Edge-case and failure-injection tests across the datapath: saturation
// extremes, degenerate rows, adversarial weights — the inputs a hardware
// verification plan would target after the happy paths.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/engines.hpp"
#include "accel/layernorm_unit.hpp"
#include "accel/quantized_model.hpp"
#include "accel/softmax_unit.hpp"
#include "numeric/quantizer.hpp"
#include "numeric/requantize.hpp"
#include "ref/encoder.hpp"
#include "ref/weights.hpp"
#include "tensor/ops.hpp"

namespace protea::accel {
namespace {

using tensor::MatrixI8;

numeric::RequantParams unit_rq() {
  return numeric::make_requant_params(1.0);
}

// --- engine saturation paths -----------------------------------------------

TEST(EdgeCases, QkEngineSaturatesOnAdversarialOperands) {
  // All-+127 Q against all-+127 K: accumulator = dk * 16129, far above
  // int8 — the requant stage must clamp to +127, never wrap.
  MatrixI8 q(4, 32, 127), k(4, 32, 127), logits;
  run_qk_engine(q, k, unit_rq(), logits);
  for (int8_t v : logits.flat()) EXPECT_EQ(v, 127);
}

TEST(EdgeCases, QkEngineSaturatesNegative) {
  MatrixI8 q(4, 32, 127), k(4, 32, -128), logits;
  run_qk_engine(q, k, unit_rq(), logits);
  for (int8_t v : logits.flat()) EXPECT_EQ(v, -128);
}

TEST(EdgeCases, FfnEngineZeroInputGivesBiasOnly) {
  MatrixI8 in(3, 8, 0), w(8, 8, 55), out;
  std::vector<int32_t> bias(8);
  for (size_t i = 0; i < 8; ++i) bias[i] = static_cast<int32_t>(i) - 4;
  run_ffn_engine(in, tensor::PackedWeightI8::from_b(w), bias, 4, unit_rq(),
                 FfnActivation::kNone, 0.0, out);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(out(r, c), static_cast<int32_t>(c) - 4);
    }
  }
}

TEST(EdgeCases, FfnEngineAllZeroWeightTileContributesNothing) {
  // The functional basis of tile skipping: zero tiles are exact no-ops.
  MatrixI8 in(2, 16), w_dense(16, 8), w_padded(16, 8, 0), out_a, out_b;
  for (size_t i = 0; i < in.size(); ++i) {
    in.flat()[i] = static_cast<int8_t>(i * 7 % 100 - 50);
  }
  for (size_t r = 0; r < 8; ++r) {  // only the first row tile is live
    for (size_t c = 0; c < 8; ++c) {
      w_padded(r, c) = static_cast<int8_t>(r + c - 5);
    }
  }
  w_dense = w_padded;
  run_ffn_engine(in, tensor::PackedWeightI8::from_b(w_dense),
                 std::vector<int32_t>(8, 0), 8, unit_rq(),
                 FfnActivation::kNone, 0.0, out_a);
  run_ffn_engine(in, tensor::PackedWeightI8::from_b(w_padded),
                 std::vector<int32_t>(8, 0), 8, unit_rq(),
                 FfnActivation::kNone, 0.0, out_b);
  EXPECT_EQ(out_a, out_b);
}

TEST(EdgeCases, ProjectionEngineMatchesQkvSingleStream) {
  // run_ffn_engine without an activation on wq alone must agree with
  // run_qkv_engine's q output (same weights, same requant): the decoder's
  // cross-attention projects this way.
  ref::ModelConfig cfg;
  cfg.seq_len = 8;
  cfg.d_model = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 1;
  const auto weights = ref::make_random_weights(cfg, 301);
  const auto input = ref::make_random_input(cfg, 302);
  const auto qm = prepare_model(weights, input);
  const QLayer& layer = qm.layers[0];

  numeric::Quantizer quant(8, true);
  quant.set_scale(layer.scales.x);
  MatrixI8 x(cfg.seq_len, cfg.d_model);
  quant.quantize(input.flat(), x.flat());

  MatrixI8 q, k, v, q_proj;
  run_qkv_engine(x, layer.heads[0], 16, layer.rq_q, layer.rq_k,
                 layer.rq_v, q, k, v);
  run_ffn_engine(x, layer.heads[0].wqt, layer.heads[0].bq, 16, layer.rq_q,
                 FfnActivation::kNone, 0.0, q_proj);
  EXPECT_EQ(q, q_proj);
}

// --- softmax extremes ---------------------------------------------------------

TEST(EdgeCases, SoftmaxAllMinimumLogitsIsUniform) {
  SoftmaxUnit unit(0.05);
  MatrixI8 logits(2, 8, -128);
  const MatrixI8 w = unit.run(logits);
  for (size_t c = 1; c < 8; ++c) EXPECT_EQ(w(0, c), w(0, 0));
}

TEST(EdgeCases, SoftmaxSingleColumnIsCertain) {
  SoftmaxUnit unit(0.05);
  MatrixI8 logits(3, 1, 42);
  const MatrixI8 w = unit.run(logits);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(w(r, 0), 127);
}

TEST(EdgeCases, SoftmaxExtremeContrastIsDelta) {
  SoftmaxUnit unit(0.25);  // coarse scale: 255 steps spans e^-63
  MatrixI8 logits = MatrixI8::from_rows(1, 4, {127, -128, -128, -128});
  const MatrixI8 w = unit.run(logits);
  EXPECT_EQ(w(0, 0), 127);
  EXPECT_EQ(w(0, 1), 0);
}

TEST(EdgeCases, CausalSoftmaxOnSingleToken) {
  SoftmaxUnit unit(0.05);
  MatrixI8 logits(1, 1, -7);
  const MatrixI8 w = unit.run_causal(logits);
  EXPECT_EQ(w(0, 0), 127);
}

TEST(EdgeCases, CausalRowOffsetLengthOneRowIsCertain) {
  // The cached-prefix mode's degenerate case: a single logit column at
  // any row offset — the sole visible position takes all the weight.
  SoftmaxUnit unit(0.05);
  MatrixI8 logits(1, 1, -33), out(1, 1);
  for (size_t offset : {0u, 1u, 7u}) {
    unit.run_causal_into(logits, out, offset);
    EXPECT_EQ(out(0, 0), 127) << "offset " << offset;
  }
}

TEST(EdgeCases, CausalRowOffsetFullPrefixMatchesUnmasked) {
  // A decode step's single row sits at position row_offset = cols - 1:
  // every column is visible, so the "mask" is full and the causal mode
  // must agree with the plain softmax bit for bit.
  SoftmaxUnit unit(0.05);
  MatrixI8 logits(1, 9);
  for (size_t c = 0; c < 9; ++c) {
    logits(0, c) = static_cast<int8_t>(13 * static_cast<int>(c) - 50);
  }
  MatrixI8 causal(1, 9), full(1, 9);
  unit.run_causal_into(logits, causal, /*row_offset=*/8);
  unit.run_into(logits, full);
  EXPECT_EQ(causal, full);
  // Offsets beyond the width behave identically (valid clamps to cols).
  unit.run_causal_into(logits, causal, /*row_offset=*/100);
  EXPECT_EQ(causal, full);
}

TEST(EdgeCases, CausalRowOffsetMatchesFullSquareRows) {
  // A multi-row block at offset p must reproduce rows [p, p+n) of the
  // classic full-square causal softmax — the prefill/decode equivalence
  // the KV-cached attention path relies on.
  SoftmaxUnit unit(0.05);
  const size_t total = 6, n = 2, p = total - n;
  MatrixI8 square(total, total);
  for (size_t r = 0; r < total; ++r) {
    for (size_t c = 0; c < total; ++c) {
      square(r, c) = static_cast<int8_t>(7 * static_cast<int>(r * total + c) - 60);
    }
  }
  MatrixI8 expected(total, total);
  unit.run_causal_into(square, expected);

  MatrixI8 tail(n, total), out(n, total);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < total; ++c) tail(r, c) = square(p + r, c);
  }
  unit.run_causal_into(tail, out, /*row_offset=*/p);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < total; ++c) {
      EXPECT_EQ(out(r, c), expected(p + r, c)) << r << "," << c;
    }
  }
}

// --- LayerNorm degenerate rows --------------------------------------------------

TEST(EdgeCases, LayerNormConstantRowIsFinite) {
  // A constant row has zero variance; eps must keep the output finite
  // (and ~beta, since the normalized value is 0).
  const size_t cols = 16;
  std::vector<float> gamma(cols, 1.0f), beta(cols, 0.25f);
  LayerNormUnit unit(gamma, beta);
  MatrixI8 x(1, cols, 64), r(1, cols, 0);
  const MatrixI8 out = unit.run(x, 1.0 / 32, r, 1.0 / 32, 1.0 / 64);
  for (int8_t v : out.flat()) {
    EXPECT_NEAR(v * (1.0 / 64), 0.25, 0.02);
  }
}

TEST(EdgeCases, LayerNormSaturatedOperandsStayInRange) {
  const size_t cols = 8;
  std::vector<float> gamma(cols, 4.0f), beta(cols, 0.0f);
  LayerNormUnit unit(gamma, beta);
  MatrixI8 x(1, cols), r(1, cols, 127);
  for (size_t c = 0; c < cols; ++c) {
    x(0, c) = (c % 2 == 0) ? 127 : -128;
  }
  const MatrixI8 out = unit.run(x, 1.0 / 16, r, 1.0 / 16, 1.0 / 32);
  for (int8_t v : out.flat()) {
    EXPECT_GE(v, -128);
    EXPECT_LE(v, 127);
  }
}

// --- float-to-int narrowing: saturate before narrowing ---------------------------
//
// Each expected value follows from the definition: round half away from
// zero, then saturate to the target range, with NaN giving 0. A quotient
// past the range, or +-inf, must saturate on its own side, not wrap.

constexpr float kInfF = std::numeric_limits<float>::infinity();
constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();
constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();

TEST(EdgeCases, ScaleBiasSaturatesPastInt32AndZeroesNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float below_two31 = std::nextafter(2147483648.0f, 0.0f);  // 2^31 - 128
  const std::vector<float> bias = {
      3e9f,  -3e9f,  2147483648.0f, -2147483648.0f, kInfF, -kInfF,
      1e20f, -1e20f, nan,           below_two31,    0.5f,  -0.5f,
      2.5f,  -2.5f,  1.25f,         0.0f};
  const std::vector<int32_t> want = {
      kI32Max, kI32Min, kI32Max, kI32Min, kI32Max, kI32Min,
      kI32Max, kI32Min, 0,       2147483520, 1,     -1,
      3,       -3,      1,       0};
  EXPECT_EQ(scale_bias(bias, 1.0, 0, bias.size()), want);
  // A small bias over a small accumulator scale: 3 / 1e-9 = 3e9.
  const std::vector<float> three = {0.0f, 3.0f, -3.0f};
  EXPECT_EQ(scale_bias(three, 1e-9, 1, 2),
            (std::vector<int32_t>{kI32Max, kI32Min}));
  // The power-of-two scales the models use divide exactly.
  EXPECT_EQ(scale_bias(three, 0.25, 1, 2), (std::vector<int32_t>{12, -12}));
}

TEST(EdgeCases, LayerNormOutputSaturatesBeforeNarrowing) {
  // gamma = 0 makes every output y = beta exactly, so each lane's
  // quotient is beta / s_out; s_out = 2^-10 divides exactly.
  const double s_out = 1.0 / 1024;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> beta = {
      3e9f / 1024, -3e9f / 1024, kInfF, -kInfF, nan, 1e30f, -1e30f,
      126.5f / 1024, -127.5f / 1024, 127.4f / 1024, -128.5f / 1024,
      0.5f / 1024, -0.5f / 1024, 200.0f / 1024, -200.0f / 1024, 0.0f};
  const std::vector<int8_t> want = {127, -128, 127, -128, 0,  127, -128,
                                    127, -128, 127, -128, 1,  -1,  127,
                                    -128, 0};
  const std::vector<float> gamma(beta.size(), 0.0f);
  LayerNormUnit unit(gamma, beta);
  MatrixI8 x(1, beta.size()), r(1, beta.size(), 0);
  for (size_t c = 0; c < beta.size(); ++c) {
    x(0, c) = static_cast<int8_t>(c * 7 % 11);
  }
  const MatrixI8 out = unit.run(x, 1.0 / 16, r, 1.0 / 16, s_out);
  for (size_t c = 0; c < beta.size(); ++c) {
    EXPECT_EQ(int{out(0, c)}, int{want[c]}) << "beta " << beta[c];
  }
}

// --- end-to-end with adversarial inputs ------------------------------------------

TEST(EdgeCases, AcceleratorHandlesSaturatingInput) {
  // Inputs far outside the calibration range must clamp gracefully and
  // still produce layer-normalized (bounded) outputs.
  ref::ModelConfig cfg;
  cfg.seq_len = 8;
  cfg.d_model = 32;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  const auto weights = ref::make_random_weights(cfg, 303);
  const auto calib = ref::make_random_input(cfg, 304);
  AccelConfig acfg;
  ProteaAccelerator accelerator(acfg);
  accelerator.load_model(prepare_model(weights, calib));

  tensor::MatrixF wild(cfg.seq_len, cfg.d_model);
  for (size_t i = 0; i < wild.size(); ++i) {
    wild.flat()[i] = (i % 2 == 0) ? 100.0f : -100.0f;
  }
  const auto out = accelerator.forward(wild);
  for (float v : out.flat()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 16.0f);  // LN keeps outputs bounded
  }
}

TEST(EdgeCases, SingleTokenSequenceEndToEnd) {
  ref::ModelConfig cfg;
  cfg.seq_len = 1;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  const auto weights = ref::make_random_weights(cfg, 305);
  const auto input = ref::make_random_input(cfg, 306);
  ref::Encoder reference(weights);
  AccelConfig acfg;
  ProteaAccelerator accelerator(acfg);
  accelerator.load_model(prepare_model(weights, input));
  const auto out = accelerator.forward(input);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_LT(tensor::rms_diff(out, reference.forward(input)), 0.25f);
}

TEST(EdgeCases, SingleHeadModelEndToEnd) {
  ref::ModelConfig cfg;
  cfg.seq_len = 8;
  cfg.d_model = 48;
  cfg.num_heads = 1;  // degenerate multi-head
  cfg.num_layers = 1;
  const auto weights = ref::make_random_weights(cfg, 307);
  const auto input = ref::make_random_input(cfg, 308);
  ref::Encoder reference(weights);
  AccelConfig acfg;
  ProteaAccelerator accelerator(acfg);
  accelerator.load_model(prepare_model(weights, input));
  EXPECT_LT(tensor::rms_diff(accelerator.forward(input),
                             reference.forward(input)),
            0.25f);
}

}  // namespace
}  // namespace protea::accel

// Quantized weight layout as the accelerator consumes it.
//
// The host flow (paper §IV-D: extract parameters from the trained model,
// generate instructions) becomes: quantize float weights into the
// per-head, per-engine int8 layout, pack each weight once into the tile
// layout the kernels consume, pre-scale biases into accumulator units,
// and pre-compute the requantization multipliers each engine applies on
// write-back. The model is read-only after that, so batch workers and
// serving seats share it without locks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/quant_calib.hpp"
#include "numeric/requantize.hpp"
#include "ref/weights.hpp"
#include "tensor/matrix.hpp"
#include "tensor/qgemm.hpp"

namespace protea::accel {

/// Per-head projection weights. Each is packed once into the kernel's
/// K-pair panels (tensor::PackedWeightI8) from its (d_k x d_model)
/// [out][in] slice, the layout Algorithm 1 indexes as wq[k][j]; rows(),
/// cols() and operator() still address that orientation.
struct QHeadWeights {
  tensor::PackedWeightI8 wqt, wkt, wvt;  // (d_k x d_model)
  std::vector<int32_t> bq, bk, bv;       // accumulator-scale biases (d_k)
};

/// The projection and FFN weights are packed from [in][out] matrices.
struct QLayer {
  std::vector<QHeadWeights> heads;
  tensor::PackedWeightI8 wo;           // (d_model x d_model), [in][out]
  std::vector<int32_t> bo;
  tensor::PackedWeightI8 w1;           // (d_model x ffn_hidden)
  std::vector<int32_t> b1;
  tensor::PackedWeightI8 w2;           // (ffn_hidden x d_model)
  std::vector<int32_t> b2;
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;

  LayerScales scales;
  double s_wq = 1.0, s_wk = 1.0, s_wv = 1.0;  // weight scales
  double s_wo = 1.0, s_w1 = 1.0, s_w2 = 1.0;

  // Write-back requantization for every engine output.
  numeric::RequantParams rq_q, rq_k, rq_v;   // QKV accumulators -> int8
  numeric::RequantParams rq_logit;           // Q.K^T (incl. 1/sqrt(dk))
  numeric::RequantParams rq_sv;              // S.V -> int8
  numeric::RequantParams rq_proj;            // FFN1 (projection) -> int8
  numeric::RequantParams rq_hidden;          // FFN2 pre-activation -> int8
  numeric::RequantParams rq_ffn_out;         // FFN3 -> int8
};

struct QuantizedModel {
  ref::ModelConfig config;
  std::vector<QLayer> layers;

  /// Total int8 weight bytes the accelerator streams from HBM per forward
  /// pass (what the tiling exists to manage).
  uint64_t weight_bytes() const;
};

/// Biases are added in the accumulator domain: entry i is
/// round(bias[offset + i] / s_acc), half away from zero, for `count`
/// entries. A quotient past the int32 range (or +-inf) saturates, and NaN
/// gives 0. Shared by quantize_model and quantize_decoder.
std::vector<int32_t> scale_bias(std::span<const float> bias, double s_acc,
                                size_t offset, size_t count);

/// Quantizes a float model with pre-computed activation scales.
QuantizedModel quantize_model(const ref::EncoderWeights& weights,
                              const std::vector<LayerScales>& scales);

/// Convenience: calibrate on `calib_input` then quantize.
QuantizedModel prepare_model(const ref::EncoderWeights& weights,
                             const tensor::MatrixF& calib_input);

}  // namespace protea::accel

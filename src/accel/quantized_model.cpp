#include "accel/quantized_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "numeric/quantizer.hpp"

namespace protea::accel {
namespace {

using numeric::Quantizer;

/// Quantizes an [in][out] float matrix to int8 with a freshly calibrated
/// pow2 scale and packs it; returns the scale.
double quantize_matrix(const tensor::MatrixF& src,
                       tensor::PackedWeightI8& dst) {
  Quantizer q(8, /*pow2_scale=*/true);
  const double scale = q.calibrate(src.flat());
  tensor::MatrixI8 m(src.rows(), src.cols());
  q.quantize(src.flat(), m.flat());
  dst = tensor::PackedWeightI8::from_b(m);
  return scale;
}

/// Columns [col0, col0+ncols) of `src` as the rows of a new matrix: one
/// head's W^T slice.
tensor::MatrixF transposed_slice(const tensor::MatrixF& src, size_t col0,
                                 size_t ncols) {
  tensor::MatrixF t(ncols, src.rows());
  for (size_t r = 0; r < src.rows(); ++r) {
    for (size_t c = 0; c < ncols; ++c) t(c, r) = src(r, col0 + c);
  }
  return t;
}

/// The pow2 scale a head slice would calibrate to on its own.
double slice_scale(const tensor::MatrixF& slice) {
  Quantizer q(8, true);
  return q.calibrate(slice.flat());
}

/// Quantizes a head's W^T slice at the layer's shared scale and packs it.
tensor::PackedWeightI8 quantize_slice(const tensor::MatrixF& slice,
                                      double scale) {
  Quantizer q(8, true);
  q.set_scale(scale);
  tensor::MatrixI8 m(slice.rows(), slice.cols());
  q.quantize(slice.flat(), m.flat());
  return tensor::PackedWeightI8::from_bt(m);
}

}  // namespace

std::vector<int32_t> scale_bias(std::span<const float> bias, double s_acc,
                                size_t offset, size_t count) {
  std::vector<int32_t> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = numeric::round_saturated(
        static_cast<double>(bias[offset + i]) / s_acc,
        std::numeric_limits<int32_t>::min(),
        std::numeric_limits<int32_t>::max());
  }
  return out;
}

uint64_t QuantizedModel::weight_bytes() const {
  uint64_t bytes = 0;
  for (const auto& l : layers) {
    for (const auto& h : l.heads) {
      bytes += h.wqt.size() + h.wkt.size() + h.wvt.size();
    }
    bytes += l.wo.size() + l.w1.size() + l.w2.size();
  }
  return bytes;
}

QuantizedModel quantize_model(const ref::EncoderWeights& weights,
                              const std::vector<LayerScales>& scales) {
  const ref::ModelConfig& cfg = weights.config;
  cfg.validate();
  if (scales.size() != weights.layers.size()) {
    throw std::invalid_argument("quantize_model: scales/layers mismatch");
  }

  const size_t dk = cfg.head_dim();
  const double attn_scale_factor =
      cfg.attn_scale == ref::AttnScale::kInvSqrtDk
          ? 1.0 / std::sqrt(static_cast<double>(dk))
          : 1.0 / static_cast<double>(cfg.d_model);

  QuantizedModel qm;
  qm.config = cfg;
  qm.layers.resize(weights.layers.size());

  for (size_t li = 0; li < weights.layers.size(); ++li) {
    const auto& src = weights.layers[li];
    QLayer& dst = qm.layers[li];
    dst.scales = scales[li];
    const LayerScales& s = dst.scales;

    // Per-head transposed projection slices. All heads share one weight
    // scale per tensor (the hardware has a single requant constant per
    // engine output): the largest any head would calibrate to alone.
    double swq = 0.0, swk = 0.0, swv = 0.0;
    for (size_t h = 0; h < cfg.num_heads; ++h) {
      swq = std::max(swq, slice_scale(transposed_slice(src.wq, h * dk, dk)));
      swk = std::max(swk, slice_scale(transposed_slice(src.wk, h * dk, dk)));
      swv = std::max(swv, slice_scale(transposed_slice(src.wv, h * dk, dk)));
    }
    dst.heads.resize(cfg.num_heads);
    for (size_t h = 0; h < cfg.num_heads; ++h) {
      auto& head = dst.heads[h];
      head.wqt = quantize_slice(transposed_slice(src.wq, h * dk, dk), swq);
      head.wkt = quantize_slice(transposed_slice(src.wk, h * dk, dk), swk);
      head.wvt = quantize_slice(transposed_slice(src.wv, h * dk, dk), swv);
      head.bq = scale_bias(src.bq, s.x * swq, h * dk, dk);
      head.bk = scale_bias(src.bk, s.x * swk, h * dk, dk);
      head.bv = scale_bias(src.bv, s.x * swv, h * dk, dk);
    }
    dst.s_wq = swq;
    dst.s_wk = swk;
    dst.s_wv = swv;

    dst.s_wo = quantize_matrix(src.wo, dst.wo);
    dst.s_w1 = quantize_matrix(src.w1, dst.w1);
    dst.s_w2 = quantize_matrix(src.w2, dst.w2);
    dst.bo = scale_bias(src.bo, s.sv * dst.s_wo, 0, src.bo.size());
    dst.b1 = scale_bias(src.b1, s.ln1 * dst.s_w1, 0, src.b1.size());
    dst.b2 = scale_bias(src.b2, s.hidden * dst.s_w2, 0, src.b2.size());

    dst.ln1_gamma = src.ln1_gamma;
    dst.ln1_beta = src.ln1_beta;
    dst.ln2_gamma = src.ln2_gamma;
    dst.ln2_beta = src.ln2_beta;

    // Requant ratios: accumulator scale / output scale.
    using numeric::make_requant_params;
    dst.rq_q = make_requant_params(s.x * swq / s.q);
    dst.rq_k = make_requant_params(s.x * swk / s.k);
    dst.rq_v = make_requant_params(s.x * swv / s.v);
    dst.rq_logit =
        make_requant_params(s.q * s.k * attn_scale_factor / s.logit);
    dst.rq_sv = make_requant_params(s.attn_w * s.v / s.sv);
    dst.rq_proj = make_requant_params(s.sv * dst.s_wo / s.proj);
    dst.rq_hidden = make_requant_params(s.ln1 * dst.s_w1 / s.hidden);
    dst.rq_ffn_out = make_requant_params(s.hidden * dst.s_w2 / s.ffn_out);
  }
  return qm;
}

QuantizedModel prepare_model(const ref::EncoderWeights& weights,
                             const tensor::MatrixF& calib_input) {
  ref::Encoder encoder(weights);
  const auto scales = calibrate_scales(encoder, calib_input);
  return quantize_model(weights, scales);
}

}  // namespace protea::accel

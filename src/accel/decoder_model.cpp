#include "accel/decoder_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/quantizer.hpp"

namespace protea::accel {
namespace {

using numeric::Quantizer;

double max_abs(const tensor::MatrixF& m) {
  double v = 0.0;
  for (float x : m.flat()) v = std::max(v, std::abs(static_cast<double>(x)));
  return v;
}

double max_abs(const std::vector<tensor::MatrixF>& ms) {
  double v = 0.0;
  for (const auto& m : ms) v = std::max(v, max_abs(m));
  return v;
}

double pow2_scale(double range, double margin) {
  const double needed = std::max(range * margin, 1e-6) / 127.0;
  return std::exp2(std::ceil(std::log2(needed)));
}

/// Quantizes a transposed head slice of `src` (cols [c0, c0+n)) with a
/// caller-fixed scale and packs it.
void quantize_head_slice(const tensor::MatrixF& src, size_t col0,
                         size_t ncols, double scale,
                         tensor::PackedWeightI8& dst) {
  Quantizer q(8, true);
  q.set_scale(scale);
  tensor::MatrixF t(ncols, src.rows());
  for (size_t r = 0; r < src.rows(); ++r) {
    for (size_t c = 0; c < ncols; ++c) t(c, r) = src(r, col0 + c);
  }
  tensor::MatrixI8 m(ncols, src.rows());
  q.quantize(t.flat(), m.flat());
  dst = tensor::PackedWeightI8::from_bt(m);
}

/// Shared pow2 scale covering all head slices of a (d x d) projection.
double projection_scale(const tensor::MatrixF& w) {
  Quantizer q(8, true);
  return q.calibrate(w.flat());
}

/// Quantizes an [in][out] matrix at its calibrated pow2 scale and packs
/// it; returns the scale.
double quantize_matrix(const tensor::MatrixF& src,
                       tensor::PackedWeightI8& dst) {
  Quantizer q(8, true);
  const double scale = q.calibrate(src.flat());
  tensor::MatrixI8 m(src.rows(), src.cols());
  q.quantize(src.flat(), m.flat());
  dst = tensor::PackedWeightI8::from_b(m);
  return scale;
}

}  // namespace

std::vector<DecoderLayerScales> calibrate_decoder_scales(
    const ref::Decoder& decoder, const tensor::MatrixF& target,
    const tensor::MatrixF& memory, double margin) {
  if (!(margin >= 1.0)) {
    throw std::invalid_argument("calibrate_decoder_scales: margin < 1");
  }
  std::vector<ref::DecoderLayerTrace> traces;
  decoder.forward_traced(target, memory, traces);

  const auto& cfg = decoder.config();
  const double scale_factor =
      cfg.attn_scale == ref::AttnScale::kInvSqrtDk
          ? 1.0 / std::sqrt(static_cast<double>(cfg.head_dim()))
          : 1.0 / static_cast<double>(cfg.d_model);
  const double sqrt_dk = std::sqrt(static_cast<double>(cfg.head_dim()));
  const double memory_scale = pow2_scale(max_abs(memory), margin);

  std::vector<DecoderLayerScales> scales(traces.size());
  tensor::MatrixF layer_input = target;
  for (size_t l = 0; l < traces.size(); ++l) {
    const auto& t = traces[l];
    DecoderLayerScales& s = scales[l];
    s.x = pow2_scale(max_abs(layer_input), margin);
    s.memory = memory_scale;
    s.q = pow2_scale(max_abs(t.self_q), margin);
    s.k = pow2_scale(max_abs(t.self_k), margin);
    s.v = pow2_scale(max_abs(t.self_v), margin);
    s.logit =
        pow2_scale(sqrt_dk * max_abs(t.self_q) * max_abs(t.self_k) *
                       scale_factor,
                   margin);
    s.sv = pow2_scale(max_abs(t.self_concat), margin);
    s.proj = pow2_scale(max_abs(t.self_proj), margin);
    s.ln1 = pow2_scale(max_abs(t.ln1_out), margin);
    s.cq = pow2_scale(max_abs(t.cross_q), margin);
    s.ck = pow2_scale(max_abs(t.cross_k), margin);
    s.cv = pow2_scale(max_abs(t.cross_v), margin);
    s.clogit =
        pow2_scale(sqrt_dk * max_abs(t.cross_q) * max_abs(t.cross_k) *
                       scale_factor,
                   margin);
    s.csv = pow2_scale(max_abs(t.cross_concat), margin);
    s.cproj = pow2_scale(max_abs(t.cross_proj), margin);
    s.ln2 = pow2_scale(max_abs(t.ln2_out), margin);
    s.hidden = pow2_scale(max_abs(t.ffn_hidden), margin);
    s.ffn_out = pow2_scale(max_abs(t.ffn_out), margin);
    s.ln3 = pow2_scale(max_abs(t.ln3_out), margin);
    layer_input = t.ln3_out;
  }
  return scales;
}

QuantizedDecoder quantize_decoder(
    const ref::DecoderWeights& weights,
    const std::vector<DecoderLayerScales>& scales) {
  const ref::ModelConfig& cfg = weights.config;
  cfg.validate();
  if (scales.size() != weights.layers.size()) {
    throw std::invalid_argument("quantize_decoder: scales/layers mismatch");
  }

  const size_t dk = cfg.head_dim();
  const double attn_scale_factor =
      cfg.attn_scale == ref::AttnScale::kInvSqrtDk
          ? 1.0 / std::sqrt(static_cast<double>(dk))
          : 1.0 / static_cast<double>(cfg.d_model);

  QuantizedDecoder qd;
  qd.config = cfg;
  qd.memory_scale = scales.front().memory;
  qd.layers.resize(weights.layers.size());

  for (size_t li = 0; li < weights.layers.size(); ++li) {
    const auto& src = weights.layers[li];
    QDecoderLayer& dst = qd.layers[li];
    dst.scales = scales[li];
    const DecoderLayerScales& s = dst.scales;

    const double swq = projection_scale(src.wq);
    const double swk = projection_scale(src.wk);
    const double swv = projection_scale(src.wv);
    const double scq = projection_scale(src.cq);
    const double sck = projection_scale(src.ck);
    const double scv = projection_scale(src.cv);

    dst.self_heads.resize(cfg.num_heads);
    dst.cross_heads.resize(cfg.num_heads);
    for (size_t h = 0; h < cfg.num_heads; ++h) {
      auto& sh = dst.self_heads[h];
      quantize_head_slice(src.wq, h * dk, dk, swq, sh.wqt);
      quantize_head_slice(src.wk, h * dk, dk, swk, sh.wkt);
      quantize_head_slice(src.wv, h * dk, dk, swv, sh.wvt);
      sh.bq = scale_bias(src.bq, s.x * swq, h * dk, dk);
      sh.bk = scale_bias(src.bk, s.x * swk, h * dk, dk);
      sh.bv = scale_bias(src.bv, s.x * swv, h * dk, dk);

      auto& ch = dst.cross_heads[h];
      quantize_head_slice(src.cq, h * dk, dk, scq, ch.cqt);
      quantize_head_slice(src.ck, h * dk, dk, sck, ch.ckt);
      quantize_head_slice(src.cv, h * dk, dk, scv, ch.cvt);
      ch.cbq = scale_bias(src.cbq, s.ln1 * scq, h * dk, dk);
      ch.cbk = scale_bias(src.cbk, s.memory * sck, h * dk, dk);
      ch.cbv = scale_bias(src.cbv, s.memory * scv, h * dk, dk);
    }

    const double swo = quantize_matrix(src.wo, dst.wo);
    const double sco = quantize_matrix(src.co, dst.co);
    const double sw1 = quantize_matrix(src.w1, dst.w1);
    const double sw2 = quantize_matrix(src.w2, dst.w2);
    dst.bo = scale_bias(src.bo, s.sv * swo, 0, src.bo.size());
    dst.cbo = scale_bias(src.cbo, s.csv * sco, 0, src.cbo.size());
    dst.b1 = scale_bias(src.b1, s.ln2 * sw1, 0, src.b1.size());
    dst.b2 = scale_bias(src.b2, s.hidden * sw2, 0, src.b2.size());

    dst.ln1_gamma = src.ln1_gamma;
    dst.ln1_beta = src.ln1_beta;
    dst.ln2_gamma = src.ln2_gamma;
    dst.ln2_beta = src.ln2_beta;
    dst.ln3_gamma = src.ln3_gamma;
    dst.ln3_beta = src.ln3_beta;

    using numeric::make_requant_params;
    dst.rq_q = make_requant_params(s.x * swq / s.q);
    dst.rq_k = make_requant_params(s.x * swk / s.k);
    dst.rq_v = make_requant_params(s.x * swv / s.v);
    dst.rq_logit =
        make_requant_params(s.q * s.k * attn_scale_factor / s.logit);
    dst.rq_sv = make_requant_params(s.attn_w * s.v / s.sv);
    dst.rq_proj = make_requant_params(s.sv * swo / s.proj);
    dst.rq_cq = make_requant_params(s.ln1 * scq / s.cq);
    dst.rq_ck = make_requant_params(s.memory * sck / s.ck);
    dst.rq_cv = make_requant_params(s.memory * scv / s.cv);
    dst.rq_clogit =
        make_requant_params(s.cq * s.ck * attn_scale_factor / s.clogit);
    dst.rq_csv = make_requant_params(s.attn_w * s.cv / s.csv);
    dst.rq_cproj = make_requant_params(s.csv * sco / s.cproj);
    dst.rq_hidden = make_requant_params(s.ln2 * sw1 / s.hidden);
    dst.rq_ffn_out = make_requant_params(s.hidden * sw2 / s.ffn_out);
  }
  return qd;
}

QuantizedDecoder prepare_decoder(const ref::DecoderWeights& weights,
                                 const tensor::MatrixF& target,
                                 const tensor::MatrixF& memory) {
  ref::Decoder decoder(weights);
  return quantize_decoder(
      weights, calibrate_decoder_scales(decoder, target, memory));
}

}  // namespace protea::accel

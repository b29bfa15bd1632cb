// Quantized decoder model: layout, calibration and requantization
// constants for the decoder extension (the paper's §VI future work,
// implemented with the same engine/tiling principles as the encoder).
#pragma once

#include <vector>

#include "accel/quantized_model.hpp"
#include "ref/decoder.hpp"

namespace protea::accel {

/// Per-tensor power-of-two scales for one decoder layer.
struct DecoderLayerScales {
  double x = 1.0;          // layer input (target stream)
  double memory = 1.0;     // encoder memory (shared across layers)
  // Masked self-attention.
  double q = 1.0, k = 1.0, v = 1.0;
  double logit = 1.0;
  double attn_w = 1.0 / 127.0;
  double sv = 1.0;
  double proj = 1.0;
  double ln1 = 1.0;
  // Cross-attention.
  double cq = 1.0, ck = 1.0, cv = 1.0;
  double clogit = 1.0;
  double csv = 1.0;
  double cproj = 1.0;
  double ln2 = 1.0;
  // FFN.
  double hidden = 1.0;
  double ffn_out = 1.0;
  double ln3 = 1.0;
};

/// Per-head cross-attention weights, packed from (d_k x d_model) [out][in]
/// slices like QHeadWeights: queries projected from the decoder stream,
/// keys/values from the encoder memory.
struct QCrossHeadWeights {
  tensor::PackedWeightI8 cqt, ckt, cvt;  // (d_k x d_model)
  std::vector<int32_t> cbq, cbk, cbv;    // accumulator-scale biases
};

/// Every weight is packed once at quantization (tensor::PackedWeightI8);
/// the projection and FFN weights from [in][out] matrices.
struct QDecoderLayer {
  // Self-attention reuses the encoder's per-head layout and engines.
  std::vector<QHeadWeights> self_heads;
  tensor::PackedWeightI8 wo;           // (d_model x d_model)
  std::vector<int32_t> bo;
  std::vector<QCrossHeadWeights> cross_heads;
  tensor::PackedWeightI8 co;           // (d_model x d_model)
  std::vector<int32_t> cbo;
  tensor::PackedWeightI8 w1;           // (d_model x ffn_hidden)
  std::vector<int32_t> b1;
  tensor::PackedWeightI8 w2;           // (ffn_hidden x d_model)
  std::vector<int32_t> b2;
  std::vector<float> ln1_gamma, ln1_beta;
  std::vector<float> ln2_gamma, ln2_beta;
  std::vector<float> ln3_gamma, ln3_beta;

  DecoderLayerScales scales;
  numeric::RequantParams rq_q, rq_k, rq_v, rq_logit, rq_sv, rq_proj;
  numeric::RequantParams rq_cq, rq_ck, rq_cv, rq_clogit, rq_csv, rq_cproj;
  numeric::RequantParams rq_hidden, rq_ffn_out;
};

struct QuantizedDecoder {
  ref::ModelConfig config;
  double memory_scale = 1.0;
  std::vector<QDecoderLayer> layers;
};

/// Calibrates scales from a traced float run on (target, memory).
std::vector<DecoderLayerScales> calibrate_decoder_scales(
    const ref::Decoder& decoder, const tensor::MatrixF& target,
    const tensor::MatrixF& memory, double margin = 1.25);

QuantizedDecoder quantize_decoder(
    const ref::DecoderWeights& weights,
    const std::vector<DecoderLayerScales>& scales);

/// Calibrate + quantize in one step.
QuantizedDecoder prepare_decoder(const ref::DecoderWeights& weights,
                                 const tensor::MatrixF& target,
                                 const tensor::MatrixF& memory);

}  // namespace protea::accel

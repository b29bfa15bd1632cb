#include "runtime/inference_session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/quantizer.hpp"

namespace protea::runtime {

void encoder_forward_into(const accel::QuantizedModel& qm,
                          const ref::ModelConfig& program,
                          const accel::AccelConfig& config,
                          const tensor::MatrixF& input, WorkspaceArena& ws,
                          accel::EngineStats* stats, tensor::MatrixF& output,
                          std::vector<EncoderLayerTrace>* traces,
                          StageGate* gate) {
  if (input.rows() != program.seq_len || input.cols() != program.d_model) {
    throw std::invalid_argument("forward: input shape mismatch");
  }
  if (traces != nullptr) {
    traces->clear();
    traces->resize(program.num_layers);
  }

  ws.reset();
  const size_t sl = input.rows();
  const size_t d = input.cols();
  auto x = ws.matrix_i8(sl, d);
  auto y = ws.matrix_i8(sl, d);
  auto concat = ws.matrix_i8(sl, d);

  // Quantize the input embedding at the first layer's input scale.
  numeric::Quantizer quant(8, /*pow2_scale=*/true);
  quant.set_scale(qm.layers.front().scales.x);
  quant.quantize(input.flat(), x.flat());

  const LayerOpContext ctx{.ws = ws,
                           .ts_mha = config.synth.ts_mha,
                           .ts_ffn = config.synth.ts_ffn,
                           .activation = program.activation,
                           .stats = stats};

  double out_scale = qm.layers.front().scales.x;
  for (uint32_t li = 0; li < program.num_layers; ++li) {
    const accel::QLayer& layer = qm.layers[li];
    // Between layers the calibrated scales line up (ln2 of layer l is the
    // input of layer l+1); realign with an exact shift when they differ.
    if (li > 0 && layer.scales.x != out_scale) {
      rescale_rows_inplace(x, out_scale, layer.scales.x);
    }

    std::vector<HeadTrace>* head_traces =
        traces != nullptr ? &(*traces)[li].heads : nullptr;
    FfnTrace* ffn_trace = traces != nullptr ? &(*traces)[li].ffn : nullptr;

    {
      const StageScope scope(gate, Stage::kMha);
      run_encoder_mha_stage(ctx, layer, x, concat, head_traces);
    }
    {
      const StageScope scope(gate, Stage::kFfn);
      run_encoder_ffn_stage(ctx, layer, concat, x, y, ffn_trace);
    }

    if (traces != nullptr) {
      (*traces)[li].concat =
          tensor::to_matrix(tensor::ConstMatrixViewI8(concat));
      (*traces)[li].out = tensor::to_matrix(tensor::ConstMatrixViewI8(y));
    }
    std::swap(x, y);
    out_scale = layer.scales.ln2;
  }

  if (output.rows() != sl || output.cols() != d) {
    output = tensor::MatrixF(sl, d);
  }
  quant.set_scale(out_scale);
  quant.dequantize(x.flat(), output.flat());
}

void decoder_forward_into(const accel::QuantizedDecoder& qd,
                          const accel::AccelConfig& config,
                          const tensor::MatrixF& target,
                          const tensor::MatrixF& memory, WorkspaceArena& ws,
                          accel::EngineStats* stats, tensor::MatrixF& output,
                          numeric::KvStorage kv_storage) {
  const ref::ModelConfig& cfg = qd.config;
  if (target.cols() != cfg.d_model || memory.cols() != cfg.d_model) {
    throw std::invalid_argument("decoder forward: width mismatch");
  }
  if (target.rows() == 0 || target.rows() > cfg.seq_len) {
    throw std::invalid_argument("decoder forward: bad target length");
  }
  if (memory.rows() > config.synth.max_seq_len) {
    throw std::invalid_argument("decoder forward: memory too long");
  }

  ws.reset();
  const size_t t_len = target.rows();
  const size_t d = cfg.d_model;
  auto x = ws.matrix_i8(t_len, d);
  auto y = ws.matrix_i8(t_len, d);
  auto mem_q = ws.matrix_i8(memory.rows(), memory.cols());

  // Quantize the target stream and the encoder memory once.
  numeric::Quantizer quant(8, true);
  quant.set_scale(qd.layers.front().scales.x);
  quant.quantize(target.flat(), x.flat());
  quant.set_scale(qd.memory_scale);
  quant.quantize(memory.flat(), mem_q.flat());

  const LayerOpContext ctx{.ws = ws,
                           .ts_mha = config.synth.ts_mha,
                           .ts_ffn = config.synth.ts_ffn,
                           .activation = cfg.activation,
                           .stats = stats};

  const numeric::KvCodec* kv_codec = numeric::kv_codec(kv_storage);
  double out_scale = qd.layers.front().scales.x;
  for (const accel::QDecoderLayer& layer : qd.layers) {
    if (layer.scales.x != out_scale) {
      rescale_rows_inplace(x, out_scale, layer.scales.x);
    }
    run_decoder_layer(ctx, layer, x, mem_q, y, kv_codec);
    std::swap(x, y);
    out_scale = layer.scales.ln3;
  }

  if (output.rows() != t_len || output.cols() != d) {
    output = tensor::MatrixF(t_len, d);
  }
  quant.set_scale(out_scale);
  quant.dequantize(x.flat(), output.flat());
}

InferenceSession::InferenceSession(const accel::AccelConfig& config,
                                   const accel::QuantizedModel& model)
    : config_(&config), model_(&model) {
  config.validate();
  accel::validate_runtime(config.synth, model.config);
}

void InferenceSession::forward_into(const tensor::MatrixF& input,
                                    tensor::MatrixF& output,
                                    StageGate* gate) {
  encoder_forward_into(*model_, model_->config, *config_, input, ws_,
                       &stats_, output, /*traces=*/nullptr, gate);
}

tensor::MatrixF InferenceSession::forward(const tensor::MatrixF& input) {
  tensor::MatrixF output;
  forward_into(input, output);
  return output;
}

}  // namespace protea::runtime

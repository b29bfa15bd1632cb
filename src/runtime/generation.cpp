#include "runtime/generation.hpp"

#include <algorithm>
#include <stdexcept>

#include "numeric/quantizer.hpp"
#include "runtime/prefix_cache.hpp"

namespace protea::runtime {

// --- GenerationSession -------------------------------------------------------

GenerationSession::GenerationSession(const accel::AccelConfig& config,
                                     const accel::QuantizedDecoder& model,
                                     accel::EngineStats* stats,
                                     const GenerationOptions& options)
    : config_(&config),
      model_(&model),
      options_(options),
      stats_(stats != nullptr ? stats : &own_stats_) {
  config.validate();
  accel::validate_runtime(config.synth, model.config);
  kv_.configure(model.config.num_layers, model.config.num_heads,
                model.config.head_dim(), model.config.seq_len,
                config.synth.max_seq_len,
                KvCacheOptions{.block_rows = options_.kv_block_rows,
                               .pool = options_.kv_pool,
                               .storage = options_.kv_storage});
  warm();
}

void GenerationSession::run_rows(const tensor::MatrixF& rows,
                                 tensor::MatrixF& states, StageGate* gate,
                                 accel::EngineStats* stats) {
  const ref::ModelConfig& cfg = model_->config;
  const size_t n = rows.rows();
  const size_t d = cfg.d_model;
  const size_t pos = kv_.len();

  // The block table grows here, on demand — a standalone session with a
  // private pool can always cover its capacity, while the traffic engine
  // pre-reserves every unit's rows so this never throws mid-flight.
  kv_.reserve_rows(pos + n);

  const auto m = ws_.mark();
  auto x = ws_.matrix_i8(n, d);
  auto y = ws_.matrix_i8(n, d);

  numeric::Quantizer quant(8, /*pow2_scale=*/true);
  quant.set_scale(model_->layers.front().scales.x);
  quant.quantize(rows.flat(), x.flat());

  const LayerOpContext ctx{.ws = ws_,
                           .ts_mha = config_->synth.ts_mha,
                           .ts_ffn = config_->synth.ts_ffn,
                           .activation = cfg.activation,
                           .stats = stats};

  double out_scale = model_->layers.front().scales.x;
  for (size_t li = 0; li < model_->layers.size(); ++li) {
    const accel::QDecoderLayer& layer = model_->layers[li];
    if (layer.scales.x != out_scale) {
      rescale_rows_inplace(x, out_scale, layer.scales.x);
    }
    run_decoder_layer_cached(ctx, layer, x, pos, kv_, li, y, gate);
    std::swap(x, y);
    out_scale = layer.scales.ln3;
  }
  kv_.append(n);

  if (states.rows() != n || states.cols() != d) {
    states = tensor::MatrixF(n, d);
  }
  quant.set_scale(out_scale);
  quant.dequantize(x.flat(), states.flat());
  ws_.rewind(m);
}

void GenerationSession::warm() {
  // Fake a full cache (the pool zero-fills its blocks, so the engines
  // read defined bytes) and run one step at the worst-case shape: the
  // arena's consolidated block then covers every real decode_step, which
  // only ever allocates the same sequence of equal-or-smaller views.
  // This runs once, in the constructor. A shared pool clamps the warm
  // shape to the rows it can back right now: a session built while the
  // pool cannot back a full sequence warms only those rows (none when
  // the pool is fully held), and its arena grows on the first longer
  // step.
  kv_.begin_sequence(kv_.memory_capacity());
  const size_t warm_rows = std::min(
      kv_.capacity(),
      kv_.reserved_rows() + kv_.pool()->free_blocks() * kv_.block_rows());
  if (warm_rows == 0) {
    kv_.begin_sequence(0);
    return;
  }
  kv_.reserve_rows(warm_rows);
  if (warm_rows > 1) {
    kv_.append(warm_rows - 1);
  }
  const tensor::MatrixF token(1, model_->config.d_model, 0.0f);
  tensor::MatrixF state;
  run_rows(token, state, /*gate=*/nullptr, /*stats=*/nullptr);
  kv_.begin_sequence(0);
  kv_.release_blocks();
  ws_.reset();
}

void GenerationSession::prefill_begin(const tensor::MatrixF& memory,
                                      StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  if (memory.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (memory.rows() == 0 || memory.rows() > kv_.memory_capacity()) {
    throw std::invalid_argument("prefill: bad memory length");
  }
  kv_.begin_sequence(memory.rows());
  fill_cross(memory, gate);
}

void GenerationSession::fill_cross(const tensor::MatrixF& memory,
                                   StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  // One-time cross K/V projection of the quantized encoder memory — the
  // work the full-recompute path redoes on every autoregressive step.
  const auto m = ws_.mark();
  auto mem_q = ws_.matrix_i8(memory.rows(), memory.cols());
  numeric::Quantizer quant(8, true);
  quant.set_scale(model_->memory_scale);
  quant.quantize(memory.flat(), mem_q.flat());

  const LayerOpContext ctx{.ws = ws_,
                           .ts_mha = config_->synth.ts_mha,
                           .ts_ffn = config_->synth.ts_ffn,
                           .activation = cfg.activation,
                           .stats = stats_};
  {
    // The projections run on the MHA-module (QKV/projection) engines.
    const StageScope scope(gate, Stage::kMha);
    for (size_t li = 0; li < model_->layers.size(); ++li) {
      fill_cross_kv_cache(ctx,
                          decoder_cross_attention_desc(model_->layers[li]),
                          mem_q, kv_.layer(li));
    }
  }
  ws_.rewind(m);
}

size_t GenerationSession::prefill_begin_cached(
    PrefixCache& cache, const tensor::MatrixF& prefix,
    const tensor::MatrixF& memory, tensor::MatrixF& states, StageGate* gate,
    bool* cross_hit_out) {
  const ref::ModelConfig& cfg = model_->config;
  if (memory.cols() != cfg.d_model || prefix.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (memory.rows() == 0 || memory.rows() > kv_.memory_capacity()) {
    throw std::invalid_argument("prefill: bad memory length");
  }
  if (prefix.rows() == 0 || prefix.rows() > kv_.capacity()) {
    throw std::invalid_argument("prefill: bad prefix length");
  }
  kv_.begin_sequence(memory.rows());

  bool cross_hit = false;
  const size_t adopted = cache.adopt(memory, prefix, kv_, states, &cross_hit);
  if (!cross_hit) {
    fill_cross(memory, gate);
    cache.publish_cross(memory, kv_);
  }
  if (cross_hit_out != nullptr) *cross_hit_out = cross_hit;
  return adopted;
}

bool GenerationSession::prefill_begin_cross(PrefixCache& cache,
                                            const tensor::MatrixF& memory,
                                            StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  if (memory.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (memory.rows() == 0 || memory.rows() > kv_.memory_capacity()) {
    throw std::invalid_argument("prefill: bad memory length");
  }
  kv_.begin_sequence(memory.rows());
  if (cache.cross_into(memory, kv_)) return true;
  fill_cross(memory, gate);
  cache.publish_cross(memory, kv_);
  return false;
}

void GenerationSession::publish_prefix(PrefixCache& cache,
                                       const tensor::MatrixF& prefix,
                                       const tensor::MatrixF& memory,
                                       const tensor::MatrixF& states) {
  cache.publish(memory, prefix, states, kv_);
}

void GenerationSession::prefill_rows(const tensor::MatrixF& rows,
                                     tensor::MatrixF& states,
                                     StageGate* gate) {
  if (kv_.memory_len() == 0) {
    throw std::logic_error("prefill_rows: prefill_begin() first");
  }
  if (rows.cols() != model_->config.d_model) {
    throw std::invalid_argument("prefill_rows: width mismatch");
  }
  if (rows.rows() == 0 || kv_.len() + rows.rows() > kv_.capacity()) {
    throw std::invalid_argument("prefill_rows: bad row count");
  }
  run_rows(rows, states, gate, stats_);
}

void GenerationSession::prefill(const tensor::MatrixF& prefix,
                                const tensor::MatrixF& memory,
                                tensor::MatrixF& states, StageGate* gate) {
  const ref::ModelConfig& cfg = model_->config;
  if (prefix.cols() != cfg.d_model) {
    throw std::invalid_argument("prefill: width mismatch");
  }
  if (prefix.rows() == 0 || prefix.rows() > kv_.capacity()) {
    throw std::invalid_argument("prefill: bad prefix length");
  }
  prefill_begin(memory, gate);

  const size_t t_rows = prefix.rows();
  const size_t chunk = options_.prefill_chunk;
  if (chunk == 0 || chunk >= t_rows) {
    run_rows(prefix, states, gate, stats_);
    return;
  }
  // Bounded-chunk passes: every op is row-wise and the causal mask only
  // looks backwards, so the chunked walk is bit-identical to one pass.
  if (states.rows() != t_rows || states.cols() != cfg.d_model) {
    states = tensor::MatrixF(t_rows, cfg.d_model);
  }
  tensor::MatrixF chunk_states;
  for (size_t pos = 0; pos < t_rows; pos += chunk) {
    const size_t n = std::min(chunk, t_rows - pos);
    const auto rows = prefix.slice_rows(pos, n);
    run_rows(rows, chunk_states, gate, stats_);
    for (size_t r = 0; r < n; ++r) {
      std::copy(chunk_states.row(r).begin(), chunk_states.row(r).end(),
                states.row(pos + r).begin());
    }
  }
}

void GenerationSession::decode_step(const tensor::MatrixF& token,
                                    tensor::MatrixF& state,
                                    StageGate* gate) {
  if (kv_.memory_len() == 0) {
    throw std::logic_error("decode_step: prefill() a sequence first");
  }
  if (token.rows() != 1 || token.cols() != model_->config.d_model) {
    throw std::invalid_argument("decode_step: token must be 1 x d_model");
  }
  if (kv_.len() >= kv_.capacity()) {
    throw std::invalid_argument("decode_step: target capacity reached");
  }
  run_rows(token, state, gate, stats_);
}

bool GenerationSession::try_reserve_rows(size_t rows) {
  return kv_.try_reserve_rows(rows);
}

void GenerationSession::end_sequence() { kv_.release_blocks(); }

void GenerationSession::fork_from(GenerationSession& parent,
                                  bool eager_copy) {
  if (&parent == this) {
    throw std::invalid_argument("GenerationSession::fork_from: self fork");
  }
  if (model_ != parent.model_) {
    throw std::invalid_argument(
        "GenerationSession::fork_from: sessions must share one model");
  }
  kv_.fork_from(parent.kv_, eager_copy);  // enforces the shared pool
}

size_t GenerationSession::swap_out(std::vector<int8_t>& dst) {
  return kv_.swap_out(dst);
}

bool GenerationSession::try_swap_in(std::span<const int8_t> src,
                                    size_t rows) {
  return kv_.try_swap_in(src, rows);
}

}  // namespace protea::runtime

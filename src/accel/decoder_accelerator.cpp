#include "accel/decoder_accelerator.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "hw/frequency_model.hpp"
#include "hw/hbm.hpp"
#include "hw/resource_model.hpp"
#include "runtime/inference_session.hpp"
#include "util/math_util.hpp"

namespace protea::accel {
namespace {

/// Shared tail of every decoder cycle model: derives clocking, latency,
/// throughput and DSP utilization from total_cycles and macs.
void finalize_report(const AccelConfig& config, PerfReport& report) {
  report.fmax_mhz = hw::fmax_mhz(config.synth);
  report.latency_ms = hw::cycles_to_ms(report.total_cycles, report.fmax_mhz);
  report.ops = 2 * report.macs;
  report.gops =
      static_cast<double>(report.ops) / (report.latency_ms * 1e-3) / 1e9;
  const auto resources = hw::estimate_resources(config.synth);
  report.dsp_utilization =
      static_cast<double>(report.macs) /
      (static_cast<double>(resources.total_pes) *
       static_cast<double>(report.total_cycles));
}

/// One pass of the decoder stack over `rows` target rows starting at
/// position `start`. Its self-attention spans the start + rows rows
/// cached so far, so chunking a prefill really changes the QK/SV
/// totals: every estimator walks the pass list the runtime executes.
struct Pass {
  uint64_t start = 0;
  uint64_t rows = 0;
};

/// The decoder cycle model: the encoder's engines sequenced per pass.
/// Charges the 13 row stages and the MACs of every pass, the one-time
/// cross_kv memory projection when `cross_kv` is set (a cached cross
/// projection skips it), and, unless `dequant_storage` is int8, a
/// bytes-only kv_dequant stage for the stored K/V codes each pass
/// streams.
PerfReport cost_passes(const AccelConfig& config,
                       const ref::ModelConfig& model, uint64_t memory_len,
                       std::span<const Pass> passes, bool cross_kv,
                       numeric::KvStorage dequant_storage) {
  enum Stage {
    kSelfQkv, kSelfQk, kSelfSoftmax, kSelfSv,
    kCrossQ, kCrossKv, kCrossQk, kCrossSoftmax, kCrossSv,
    kSelfProj, kCrossProj, kFfnExpand, kFfnContract, kLayernorm,
    kKvDequant, kStages
  };
  static constexpr const char* kNames[kStages] = {
      "self_qkv", "self_qk", "self_softmax", "self_sv",
      "cross_q", "cross_kv", "cross_qk", "cross_softmax", "cross_sv",
      "self_proj", "cross_proj", "ffn_expand", "ffn_contract", "layernorm",
      "kv_dequant"};

  const hw::SynthParams& sp = config.synth;
  const TimingConstants& tc = config.timing;
  const uint64_t s_len = memory_len;
  const uint64_t h = model.num_heads;
  const uint64_t d = model.d_model;
  const uint64_t dk = d / h;
  const uint64_t f = model.ffn_hidden();
  const hw::Cycles depth = tc.pipeline_depth;
  using util::ceil_div;

  const uint64_t tiles_d = ceil_div(d, static_cast<uint64_t>(sp.ts_mha));
  const uint32_t ii_qkv = hw::achieved_ii(4 * sp.ts_mha);
  const uint32_t ii_proj = hw::achieved_ii(2 * sp.ts_mha);
  // QK reductions are unrolled for the synthesized head width; SV
  // loops over `keys` rows at sl_unroll PEs.
  const auto ii_qk = static_cast<uint32_t>(
      ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
  const auto ii_sv = [&sp](uint64_t keys) {
    return static_cast<uint32_t>(
        ceil_div(keys, static_cast<uint64_t>(sp.sl_unroll)));
  };
  const FfnTiling ft = ffn_tiling(config, model);
  const hw::Cycles ln_row =
      3 * ceil_div(d, static_cast<uint64_t>(tc.ln_lanes)) +
      tc.ln_row_overhead;

  struct Tally {
    uint64_t invocations = 0;
    hw::Cycles cycles = 0;
    uint64_t bytes = 0;
  };
  Tally tally[kStages];
  const auto charge = [&tally](Stage s, uint64_t invocations,
                               hw::Cycles cycles, uint64_t bytes = 0) {
    tally[s].invocations += invocations;
    tally[s].cycles += cycles;
    tally[s].bytes += bytes;
  };
  const bool dequant = dequant_storage != numeric::KvStorage::kInt8;
  uint64_t layer_macs = 0;  // per layer; scaled by num_layers below

  for (const Pass& p : passes) {
    const uint64_t n = p.rows;
    const uint64_t kv = p.start + p.rows;
    // Self-attention (engines in parallel across heads): the pass's K/V
    // append to the cache, then QK/softmax/SV span all kv cached rows.
    charge(kSelfQkv, tiles_d,
           tiles_d * n * hw::pipelined_loop(dk, ii_qkv, depth));
    charge(kSelfQk, 1, n * hw::pipelined_loop(kv, ii_qk, depth));
    charge(kSelfSoftmax, 1, n * (2 * kv + tc.softmax_row_overhead));
    charge(kSelfSv, 1, n * hw::pipelined_loop(dk, ii_sv(kv), depth));
    // Cross-attention: Q from the pass rows against the memory's K/V —
    // single-projection passes at half the QKV engine's read parallelism.
    charge(kCrossQ, tiles_d,
           tiles_d * n * hw::pipelined_loop(dk, ii_proj, depth));
    charge(kCrossQk, 1, n * hw::pipelined_loop(s_len, ii_qk, depth));
    charge(kCrossSoftmax, 1, n * (2 * s_len + tc.softmax_row_overhead));
    charge(kCrossSv, 1, n * hw::pipelined_loop(dk, ii_sv(s_len), depth));
    // Projections + FFN on the FFN engines (same tiling as the encoder).
    const hw::Cycles access = n * ft.row_cycles;
    charge(kSelfProj, ft.rows_d * ft.cols_d, ft.rows_d * ft.cols_d * access);
    charge(kCrossProj, ft.rows_d * ft.cols_d, ft.rows_d * ft.cols_d * access);
    charge(kFfnExpand, ft.rows_d * ft.cols_f, ft.rows_d * ft.cols_f * access);
    charge(kFfnContract, ft.rows_f * ft.cols_d,
           ft.rows_f * ft.cols_d * access);
    charge(kLayernorm, 3, 3 * n * ln_row);
    if (dequant) {
      // Over a quantized cache the QK/SV kernels stream the stored codes
      // and decode them through the LUT in flight: zero engine cycles
      // (the LUT rides the existing pack and read loops), but the stored
      // prefix bytes are real traffic the int8 path's in-place reads
      // don't re-count.
      charge(kKvDequant, h, 0,
             h * numeric::kv_storage_bytes(2 * kv * dk, dequant_storage));
    }
    layer_macs += 3 * n * d * d + 2 * n * kv * d + n * d * d;  // self
    layer_macs += n * d * d + 2 * n * s_len * d + n * d * d;   // cross
    layer_macs += 2 * n * d * f;                               // ffn
  }
  if (cross_kv) {
    charge(kCrossKv, tiles_d,
           2 * tiles_d * s_len * hw::pipelined_loop(dk, ii_proj, depth));
    layer_macs += 2 * s_len * d * d;
  }

  PerfReport report;
  for (int s = 0; s < kStages; ++s) {
    if ((s == kCrossKv && !cross_kv) || (s == kKvDequant && !dequant)) {
      continue;
    }
    report.stages.push_back(StageTiming{.name = kNames[s],
                                        .invocations = tally[s].invocations,
                                        .compute = tally[s].cycles,
                                        .total = tally[s].cycles,
                                        .bytes_loaded = tally[s].bytes});
    report.layer_cycles += tally[s].cycles;
    report.bytes_loaded += tally[s].bytes;
  }
  report.total_cycles = report.layer_cycles * model.num_layers;
  report.bytes_loaded *= model.num_layers;
  report.macs = model.num_layers * layer_macs;
  finalize_report(config, report);
  return report;
}

/// KV-cached generation: the prefill `costing` describes, then `width`
/// decode steps at every position in [prefill_len, steps_end), rolled up
/// as the two stages "prefill" and `steps_stage`.
PerfReport cost_generation(const AccelConfig& config,
                           const ref::ModelConfig& model,
                           uint32_t prefill_len, uint32_t memory_len,
                           const GenerationCosting& costing,
                           uint32_t steps_end, uint32_t width,
                           const char* steps_stage) {
  const PerfReport prefill = estimate_prefill_performance(
      config, model, prefill_len, memory_len, costing);
  std::vector<Pass> steps;
  for (uint32_t pos = prefill_len; pos < steps_end; ++pos) {
    steps.push_back(Pass{.start = pos, .rows = 1});
  }
  const PerfReport decode = cost_passes(config, model, memory_len, steps,
                                        /*cross_kv=*/false,
                                        costing.kv_storage);
  const hw::Cycles step_cycles = width * decode.total_cycles;
  const uint64_t step_bytes = width * decode.bytes_loaded;

  PerfReport report;
  report.stages.push_back(StageTiming{.name = "prefill",
                                      .invocations = 1,
                                      .compute = prefill.total_cycles,
                                      .total = prefill.total_cycles,
                                      .bytes_loaded = 0});
  report.stages.push_back(StageTiming{.name = steps_stage,
                                      .invocations = width * steps.size(),
                                      .compute = step_cycles,
                                      .total = step_cycles,
                                      .bytes_loaded = step_bytes});
  report.bytes_loaded = step_bytes;
  report.total_cycles = prefill.total_cycles + step_cycles;
  report.layer_cycles = report.total_cycles / model.num_layers;
  report.macs = prefill.macs + width * decode.macs;
  finalize_report(config, report);
  return report;
}

}  // namespace

ProteaDecoderAccelerator::ProteaDecoderAccelerator(AccelConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

void ProteaDecoderAccelerator::load_model(QuantizedDecoder model) {
  validate_runtime(config_.synth, model.config);
  gen_.reset();  // bound to the previous model's weights and shapes
  model_ = std::move(model);
  stats_ = EngineStats{};
}

const QuantizedDecoder& ProteaDecoderAccelerator::model() const {
  if (!model_) {
    throw std::logic_error("ProteaDecoderAccelerator: no model loaded");
  }
  return *model_;
}

tensor::MatrixF ProteaDecoderAccelerator::forward(
    const tensor::MatrixF& target, const tensor::MatrixF& memory) {
  const QuantizedDecoder& qd = model();
  // Single decoder forward implementation shared with the serving runtime
  // (runtime/inference_session.hpp): masked self-attention,
  // cross-attention and FFN all sequence the unified layer-op blocks.
  tensor::MatrixF result;
  runtime::decoder_forward_into(qd, config_, target, memory, ws_, &stats_,
                                result);
  return result;
}

tensor::MatrixF ProteaDecoderAccelerator::prefill(
    const tensor::MatrixF& prefix, const tensor::MatrixF& memory) {
  const QuantizedDecoder& qd = model();
  if (gen_ == nullptr) {
    gen_ = std::make_unique<runtime::GenerationSession>(config_, qd,
                                                        &stats_);
  }
  tensor::MatrixF states;
  gen_->prefill(prefix, memory, states);
  return states;
}

tensor::MatrixF ProteaDecoderAccelerator::decode_step(
    const tensor::MatrixF& token) {
  if (gen_ == nullptr) {
    throw std::logic_error(
        "ProteaDecoderAccelerator: prefill() before decode_step()");
  }
  tensor::MatrixF state;
  gen_->decode_step(token, state);
  return state;
}

size_t ProteaDecoderAccelerator::generation_position() const {
  return gen_ != nullptr ? gen_->position() : 0;
}

PerfReport ProteaDecoderAccelerator::performance(
    uint32_t target_len, uint32_t memory_len) const {
  return estimate_decoder_performance(config_, model().config, target_len,
                                      memory_len);
}

PerfReport ProteaDecoderAccelerator::step_performance(
    uint32_t pos, uint32_t memory_len) const {
  return estimate_decode_step_performance(config_, model().config, pos,
                                          memory_len);
}

uint64_t kv_row_bytes(const ref::ModelConfig& model,
                      numeric::KvStorage storage) {
  model.validate();
  // Per-head stored width, NOT kv_storage_bytes(row elements): this is
  // exactly how KvCache/KvBlockPool size their rows, and packed fp4
  // rounds up per head (odd head_dim is rejected by the runtime).
  return uint64_t{model.num_layers} * model.num_heads * 2 *
         numeric::kv_storage_bytes(model.head_dim(), storage);
}

PerfReport estimate_decoder_performance(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t target_len,
                                        uint32_t memory_len) {
  return estimate_prefill_performance(config, model, target_len, memory_len);
}

PerfReport estimate_decode_step_performance(const AccelConfig& config,
                                            const ref::ModelConfig& model,
                                            uint32_t pos,
                                            uint32_t memory_len,
                                            bool kv_gather_fallback,
                                            numeric::KvStorage kv_storage) {
  config.validate();
  validate_runtime(config.synth, model);
  if (kv_gather_fallback) {
    throw std::invalid_argument(
        "decode step perf: the gather read path no longer exists");
  }
  if (pos >= model.seq_len) {
    throw std::invalid_argument("decode step perf: bad position");
  }
  if (memory_len == 0 || memory_len > config.synth.max_seq_len) {
    throw std::invalid_argument("decode step perf: bad memory length");
  }
  // One query row over the pos + 1 cached rows. The memory's K/V
  // projections were cached at prefill, so the per-step cross_kv stage
  // (the full model's dominant memory-length term) disappears.
  const Pass step{.start = pos, .rows = 1};
  return cost_passes(config, model, memory_len, {&step, 1},
                     /*cross_kv=*/false, kv_storage);
}

KvFootprint estimate_kv_footprint(const ref::ModelConfig& model,
                                  uint32_t rows, uint32_t block_rows,
                                  numeric::KvStorage storage) {
  if (rows == 0 || rows > model.seq_len || block_rows == 0) {
    throw std::invalid_argument("kv footprint: bad rows/block_rows");
  }
  KvFootprint fp;
  fp.row_bytes = kv_row_bytes(model, storage);
  // The per-slot baseline stays 1 byte/element regardless of storage
  // (only the paged pool packs).
  fp.dense_bytes =
      kv_row_bytes(model, numeric::KvStorage::kInt8) * model.seq_len;
  fp.blocks = util::ceil_div(rows, block_rows);
  fp.paged_bytes = uint64_t{fp.blocks} * block_rows * fp.row_bytes;
  return fp;
}

ForkedKvFootprint estimate_forked_kv_footprint(const ref::ModelConfig& model,
                                               uint32_t prompt_rows,
                                               uint32_t new_rows,
                                               uint32_t beams,
                                               uint32_t block_rows,
                                               numeric::KvStorage storage) {
  if (prompt_rows == 0 || beams == 0 || block_rows == 0 ||
      prompt_rows + new_rows > model.seq_len) {
    throw std::invalid_argument("forked kv footprint: bad arguments");
  }
  ForkedKvFootprint fp =
      forked_kv_blocks(prompt_rows, new_rows, beams, block_rows);
  fp.row_bytes = kv_row_bytes(model, storage);
  const uint64_t block_bytes = uint64_t{block_rows} * fp.row_bytes;
  const uint32_t full = util::ceil_div(prompt_rows + new_rows, block_rows);
  fp.cow_bytes = fp.cow_blocks * block_bytes;
  fp.eager_bytes = uint64_t{beams} * full * block_bytes;
  fp.bytes_saved = fp.eager_bytes - fp.cow_bytes;
  return fp;
}

ForkedKvFootprint forked_kv_blocks(uint32_t prompt_rows, uint32_t new_rows,
                                   uint32_t beams, uint32_t block_rows) {
  if (prompt_rows == 0 || beams == 0 || block_rows == 0) {
    throw std::invalid_argument("forked kv blocks: zero argument");
  }
  ForkedKvFootprint fp;
  fp.shared_blocks = util::ceil_div(prompt_rows, block_rows);
  // A beam's private worst case: every block past the last fully-shared
  // one — its divergent tail plus the COW copy of the straddling block.
  fp.private_blocks = util::ceil_div(prompt_rows + new_rows, block_rows) -
                      prompt_rows / block_rows;
  fp.cow_blocks =
      uint64_t{fp.shared_blocks} + uint64_t{beams} * fp.private_blocks;
  return fp;
}

PerfReport estimate_beam_generation_performance(const AccelConfig& config,
                                                const ref::ModelConfig& model,
                                                uint32_t prefill_len,
                                                uint32_t total_len,
                                                uint32_t memory_len,
                                                uint32_t beam_width) {
  // total_len may exceed seq_len by one: the last selected token is
  // scored from the final decoded state and never appended, so the
  // deepest modeled step position is total_len - 2 <= seq_len - 1.
  if (prefill_len == 0 || beam_width == 0 || prefill_len > total_len ||
      total_len > uint32_t{model.seq_len} + 1) {
    throw std::invalid_argument("beam generation perf: bad lengths");
  }
  return cost_generation(config, model, prefill_len, memory_len, {},
                         total_len - 1, beam_width, "beam_steps");
}

PerfReport estimate_prefill_performance(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t prefill_len,
                                        uint32_t memory_len,
                                        const GenerationCosting& costing) {
  config.validate();
  validate_runtime(config.synth, model);
  if (prefill_len == 0 || prefill_len > model.seq_len) {
    throw std::invalid_argument("prefill perf: bad prefill length");
  }
  if (memory_len == 0 || memory_len > config.synth.max_seq_len) {
    throw std::invalid_argument("prefill perf: bad memory length");
  }
  if (costing.adopted_rows >= prefill_len) {
    throw std::invalid_argument(
        "prefill perf: adopted_rows must leave a tail row");
  }
  // The executed pass schedule: rows [adopted_rows, prefill_len) in
  // chunk-row passes.
  const uint64_t start = costing.adopted_rows;
  const uint64_t chunk = costing.prefill_chunk == 0 ? prefill_len - start
                                                    : costing.prefill_chunk;
  std::vector<Pass> passes;
  for (uint64_t pos = start; pos < prefill_len; pos += chunk) {
    passes.push_back(
        Pass{.start = pos, .rows = std::min(chunk, prefill_len - pos)});
  }
  return cost_passes(config, model, memory_len, passes,
                     /*cross_kv=*/!costing.cross_cached,
                     numeric::KvStorage::kInt8);
}

PerfReport estimate_generation_performance(const AccelConfig& config,
                                           const ref::ModelConfig& model,
                                           uint32_t prefill_len,
                                           uint32_t total_len,
                                           uint32_t memory_len,
                                           const GenerationCosting& costing) {
  if (prefill_len == 0 || prefill_len > total_len ||
      total_len > model.seq_len) {
    throw std::invalid_argument("generation perf: bad lengths");
  }
  return cost_generation(config, model, prefill_len, memory_len, costing,
                         total_len, 1, "decode_steps");
}

PrefixCacheSavings estimate_prefix_cache_savings(
    const AccelConfig& config, const ref::ModelConfig& model,
    uint32_t prefill_len, uint32_t memory_len,
    const GenerationCosting& costing) {
  GenerationCosting cold = costing;
  cold.adopted_rows = 0;
  cold.cross_cached = false;
  const PerfReport cold_r = estimate_prefill_performance(
      config, model, prefill_len, memory_len, cold);
  const PerfReport warm_r = estimate_prefill_performance(
      config, model, prefill_len, memory_len, costing);
  PrefixCacheSavings s;
  s.macs_saved = cold_r.macs - warm_r.macs;
  s.rows_skipped = costing.adopted_rows;
  // Adopted rows live in the shared pool, so they count at the stored
  // width (matching PrefixCacheStats::bytes_adopted, which multiplies
  // by the pool's storage-aware row_bytes). Cross projections below
  // stay 1 byte/element: the cross cache always stores int8 rows.
  s.kv_bytes = uint64_t{costing.adopted_rows} *
               kv_row_bytes(model, costing.kv_storage);
  s.cross_bytes = costing.cross_cached
                      ? uint64_t{memory_len} *
                            kv_row_bytes(model, numeric::KvStorage::kInt8)
                      : 0;
  s.ms_saved = cold_r.latency_ms - warm_r.latency_ms;
  return s;
}

PreemptionCost estimate_preemption_cost(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t rows_cached,
                                        uint32_t memory_len,
                                        uint32_t block_rows,
                                        numeric::KvStorage storage) {
  if (rows_cached == 0 || rows_cached > model.seq_len || block_rows == 0) {
    throw std::invalid_argument("preemption cost: bad rows/block_rows");
  }
  PreemptionCost cost;
  // Swap moves the victim's whole block-table bytes twice: spill at
  // eviction, rescatter at restore. Partial tail blocks travel whole —
  // the same bytes KvCache::swap_out actually copies, at the pool's
  // stored width (quantized storage tilts victim selection toward swap
  // exactly as the executed spill shrinks).
  const KvFootprint fp =
      estimate_kv_footprint(model, rows_cached, block_rows, storage);
  cost.swap_bytes = 2 * fp.paged_bytes;
  const hw::HbmModel hbm;
  const uint32_t channels =
      std::min(config.synth.hbm_channels_used, hbm.config().channels);
  const double fmax = hw::fmax_mhz(config.synth);
  cost.swap_ms =
      hw::cycles_to_ms(hbm.load_cycles(cost.swap_bytes, channels), fmax);
  // Drop-and-recompute re-runs the cached rows through the stack. The
  // replay is chunked (prompt pass + fed-token pass) but every cycle
  // model here is row-wise, so one prefill-shaped estimate is exact.
  const PerfReport recompute =
      estimate_decoder_performance(config, model, rows_cached, memory_len);
  cost.recompute_macs = recompute.macs;
  cost.recompute_ms = recompute.latency_ms;
  cost.prefer_swap = cost.swap_ms < cost.recompute_ms;
  return cost;
}

}  // namespace protea::accel

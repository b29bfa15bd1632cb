// Extension bench (paper §VI future work): decoder-layer latency as a
// function of target and memory lengths, plus the autoregressive
// generation cost curve — full-recompute (the naive controller reruns
// the whole prefix every step, O(T^2) total work) against the KV-cached
// generation engine (prefill + O(len) incremental steps, O(T) total) —
// and the paged and copy-on-write self-KV footprint models. Writes
// bench_results/decoder_scaling.csv. One executed small-model run times
// greedy decode both ways and reports whether the tokens agree.
#include <cstdio>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "bench_common.hpp"
#include "ref/weights.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

/// Greedy argmax against a random vocabulary head (stand-in for the
/// trained output projection).
uint32_t argmax_token(const protea::tensor::MatrixF& head,
                      std::span<const float> state) {
  uint32_t best = 0;
  double best_score = -1e300;
  for (uint32_t v = 0; v < head.rows(); ++v) {
    double score = 0.0;
    for (size_t c = 0; c < state.size(); ++c) {
      score += static_cast<double>(head(v, c)) * state[c];
    }
    if (score > best_score) {
      best_score = score;
      best = v;
    }
  }
  return best;
}

}  // namespace

int main() {
  using namespace protea;

  const accel::AccelConfig cfg;
  ref::ModelConfig model;
  model.name = "decoder-bert";
  model.seq_len = 128;   // max target length
  model.d_model = 768;
  model.num_heads = 8;
  model.num_layers = 6;
  model.activation = ref::Activation::kGelu;

  util::Table table({"Target len", "Memory len", "Latency (ms)", "GOPS",
                     "Self-attn share", "Cross-attn share", "FFN share"});
  table.set_title(
      "EXTENSION (paper SVI) — decoder latency vs target/memory length "
      "(d=768, h=8, N=6)");
  util::CsvWriter csv(bench::results_dir() + "/decoder_scaling.csv",
                      {"target_len", "memory_len", "latency_ms", "gops",
                       "self_cycles", "cross_cycles", "ffn_cycles"});

  for (uint32_t t_len : {16u, 32u, 64u, 128u}) {
    for (uint32_t s_len : {32u, 64u, 128u}) {
      const auto report =
          accel::estimate_decoder_performance(cfg, model, t_len, s_len);
      hw::Cycles self = 0, cross = 0, ffn = 0;
      for (const auto& stage : report.stages) {
        if (stage.name.rfind("self_", 0) == 0 &&
            stage.name != "self_proj") {
          self += stage.total;
        } else if (stage.name.rfind("cross_", 0) == 0 &&
                   stage.name != "cross_proj") {
          cross += stage.total;
        } else {
          ffn += stage.total;
        }
      }
      const auto pct = [&](hw::Cycles c) {
        return bench::fmt(100.0 * static_cast<double>(c) /
                              static_cast<double>(report.layer_cycles),
                          0) +
               "%";
      };
      table.row({std::to_string(t_len), std::to_string(s_len),
                 bench::fmt(report.latency_ms, 1),
                 bench::fmt(report.gops, 1), pct(self), pct(cross),
                 pct(ffn)});
      csv.row({std::to_string(t_len), std::to_string(s_len),
               bench::fmt(report.latency_ms, 3),
               bench::fmt(report.gops, 2), std::to_string(self),
               std::to_string(cross), std::to_string(ffn)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- generation cost: full recompute vs KV cache (cycle model) -----------
  // Full recompute: step t reruns the whole t-row prefix (and reprojects
  // the memory's cross K/V). KV cache: one prefill plus one-row steps.
  util::Table gen({"Tokens", "Full recompute (ms)", "KV-cached (ms)",
                   "Speedup", "MAC ratio"});
  gen.set_title(
      "Greedy generation cost from BOS (memory len 64): naive "
      "full-recompute controller vs KV-cached engine");
  const uint32_t mem_len = 64;
  for (uint32_t total : {8u, 16u, 32u, 64u, 128u}) {
    double full_ms = 0.0;
    uint64_t full_macs = 0;
    for (uint32_t t = 1; t <= total; ++t) {
      const auto step =
          accel::estimate_decoder_performance(cfg, model, t, mem_len);
      full_ms += step.latency_ms;
      full_macs += step.macs;
    }
    const auto cached = accel::estimate_generation_performance(
        cfg, model, /*prefill_len=*/1, total, mem_len);
    gen.row({std::to_string(total), bench::fmt(full_ms, 1),
             bench::fmt(cached.latency_ms, 1),
             bench::fmt(full_ms / cached.latency_ms, 2),
             bench::fmt(static_cast<double>(full_macs) /
                            static_cast<double>(cached.macs),
                        2)});
  }
  std::printf("%s\n", gen.to_string().c_str());

  // --- executed comparison (small model, wall clock + token agreement) -----
  bool identical = true;
  {
    constexpr uint32_t kVocab = 64;
    ref::ModelConfig small;
    small.name = "decoder-small";
    small.seq_len = 32;
    small.d_model = 128;
    small.num_heads = 4;
    small.num_layers = 2;
    small.activation = ref::Activation::kRelu;

    const auto weights = ref::make_random_decoder_weights(small, 11);
    tensor::MatrixF memory(16, small.d_model);
    tensor::MatrixF calib(small.seq_len, small.d_model);
    util::Xoshiro256 rng(12);
    for (float& x : memory.flat()) {
      x = static_cast<float>(rng.normal());
    }
    for (float& x : calib.flat()) {
      x = static_cast<float>(rng.normal());
    }
    tensor::MatrixF vocab_head(kVocab, small.d_model);
    for (float& x : vocab_head.flat()) {
      x = static_cast<float>(rng.normal());
    }
    tensor::MatrixF embed(kVocab, small.d_model);
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    const auto embed_rows = [&](const std::vector<uint32_t>& tokens) {
      tensor::MatrixF m(tokens.size(), small.d_model);
      for (size_t r = 0; r < tokens.size(); ++r) {
        for (size_t c = 0; c < small.d_model; ++c) {
          m(r, c) = embed(tokens[r], c);
        }
      }
      return m;
    };

    accel::AccelConfig hw_cfg;
    accel::ProteaDecoderAccelerator dec(hw_cfg);
    dec.load_model(accel::prepare_decoder(weights, calib, memory));

    const uint32_t steps = small.seq_len - 1;
    // Full-recompute greedy decode.
    std::vector<uint32_t> full_tokens = {0};
    util::Stopwatch full_watch;
    for (uint32_t t = 0; t < steps; ++t) {
      const auto states = dec.forward(embed_rows(full_tokens), memory);
      full_tokens.push_back(
          argmax_token(vocab_head, states.row(states.rows() - 1)));
    }
    const double full_ms = full_watch.milliseconds();

    // KV-cached greedy decode (prefill BOS, then one row per step). A
    // throwaway prefill first, so the one-time session construction +
    // arena warmup isn't charged to the timed steady-state path.
    std::vector<uint32_t> cached_tokens = {0};
    (void)dec.prefill(embed_rows(cached_tokens), memory);
    util::Stopwatch cached_watch;
    auto states = dec.prefill(embed_rows(cached_tokens), memory);
    cached_tokens.push_back(
        argmax_token(vocab_head, states.row(states.rows() - 1)));
    for (uint32_t t = 1; t < steps; ++t) {
      const auto state =
          dec.decode_step(embed_rows({cached_tokens.back()}));
      cached_tokens.push_back(argmax_token(vocab_head, state.row(0)));
    }
    const double cached_ms = cached_watch.milliseconds();

    identical = full_tokens == cached_tokens;
    std::printf(
        "executed greedy decode, %u steps (d=%u, N=%u): "
        "full recompute %.2f ms, KV-cached %.2f ms (%.2fx), tokens %s\n\n",
        steps, small.d_model, small.num_layers, full_ms, cached_ms,
        full_ms / cached_ms, identical ? "IDENTICAL" : "DIVERGED");
  }

  // --- paged KV footprint model ----------------------------------------------
  // The modeled per-slot baseline reserves the full programmed capacity;
  // the paged pool holds ceil(rows / block_rows) blocks per sequence. For
  // short-sequence mixes the ratio is the extra concurrency a shared
  // block pool admits at equal arena footprint.
  {
    util::Table kv({"Cached rows", "Dense self-KV (KiB)",
                    "Paged self-KV (KiB)", "Footprint ratio"});
    kv.set_title(
        "Self-KV footprint per sequence (d=768, N=6, capacity 128, "
        "16-row blocks): dense slot reservation vs paged blocks");
    const uint32_t kv_block_rows = 16;
    for (uint32_t rows : {8u, 16u, 32u, 64u, 128u}) {
      const auto fp =
          accel::estimate_kv_footprint(model, rows, kv_block_rows);
      kv.row({std::to_string(rows),
              bench::fmt(static_cast<double>(fp.dense_bytes) / 1024.0, 1),
              bench::fmt(static_cast<double>(fp.paged_bytes) / 1024.0, 1),
              bench::fmt(static_cast<double>(fp.dense_bytes) /
                             static_cast<double>(fp.paged_bytes),
                         2)});
    }
    std::printf("%s\n", kv.to_string().c_str());
  }

  // --- COW forking footprint model -------------------------------------------
  // Beam search forks K branches off one prefill. COW shares the prompt
  // lineage once (each beam privately holds only its divergent tail);
  // the eager reference copies the whole lineage per beam.
  {
    util::Table fk({"Beams", "Shared blocks", "Private/beam",
                    "COW self-KV (KiB)", "Eager self-KV (KiB)",
                    "Saved by COW"});
    fk.set_title(
        "Forked self-KV footprint (d=768, N=6, prompt 64 + 32 new, "
        "16-row blocks): COW prompt sharing vs eager per-beam copies");
    for (uint32_t beams : {2u, 4u, 8u}) {
      const auto fp = accel::estimate_forked_kv_footprint(
          model, /*prompt_rows=*/64, /*new_rows=*/32, beams,
          /*block_rows=*/16);
      fk.row({std::to_string(beams), std::to_string(fp.shared_blocks),
              std::to_string(fp.private_blocks),
              bench::fmt(static_cast<double>(fp.cow_bytes) / 1024.0, 1),
              bench::fmt(static_cast<double>(fp.eager_bytes) / 1024.0, 1),
              bench::fmt(100.0 * static_cast<double>(fp.bytes_saved) /
                             static_cast<double>(fp.eager_bytes),
                         0) +
                  "%"});
    }
    std::printf("%s\n", fk.to_string().c_str());

    const auto beam_perf = accel::estimate_beam_generation_performance(
        cfg, model, /*prefill_len=*/64, /*total_len=*/96, mem_len,
        /*beam_width=*/4);
    std::printf(
        "beam search K=4, prompt 64 -> 96 tokens (memory len 64): "
        "%.1f ms, %.2f GMAC (model)\n\n",
        beam_perf.latency_ms, static_cast<double>(beam_perf.macs) * 1e-9);
  }

  std::printf("CSV written to bench_results/decoder_scaling.csv\n");
  return identical ? 0 : 1;
}

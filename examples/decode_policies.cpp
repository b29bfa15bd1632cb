// Domain example: decode policies over one serving stack — greedy,
// seeded sampling and width-K beam search, all against the same
// KV-cached generation engine (runtime/decode_policy.hpp).
//
// Greedy and sampled requests plug into the continuous-batching
// TrafficEngine through TokenStream callbacks (the engine stays
// vocabulary-free); beam search runs on copy-on-write KV forking: one
// prefill of the prompt, then every beam adopts the prompt's block table
// by refcount and pays a single block copy at its first divergent
// append. The run prints the pool accounting that makes the sharing
// visible — K beams at near-1x prompt footprint — and cross-checks the
// COW beams against the eager-copy reference (bit-identical hypotheses).
#include <cstdio>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

int main() {
  using namespace protea;

  constexpr uint32_t kVocab = 48;
  ref::ModelConfig model;
  model.name = "decode-policies";
  model.seq_len = 24;  // max target length
  model.d_model = 64;
  model.num_heads = 4;
  model.num_layers = 2;
  model.activation = ref::Activation::kRelu;

  // Random weights + a float vocab head / embedding table stand-in.
  util::Xoshiro256 rng(77);
  tensor::MatrixF memory(8, model.d_model);
  tensor::MatrixF calib(model.seq_len, model.d_model);
  for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
  for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
  tensor::MatrixF head(kVocab, model.d_model);
  tensor::MatrixF embed(kVocab, model.d_model);
  for (float& x : head.flat()) x = static_cast<float>(rng.normal());
  for (float& x : embed.flat()) x = static_cast<float>(rng.normal() * 0.5);
  const runtime::VocabModel vocab{&head, &embed};

  const auto weights = ref::make_random_decoder_weights(model, 5);
  auto qd = accel::prepare_decoder(weights, calib, memory);
  const accel::AccelConfig hw_config;

  const std::vector<uint32_t> prompt = {7, 3, 19, 4};
  const auto embed_rows = [&](const std::vector<uint32_t>& tokens) {
    tensor::MatrixF m(tokens.size(), model.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      for (size_t c = 0; c < model.d_model; ++c) {
        m(r, c) = embed(tokens[r], c);
      }
    }
    return m;
  };
  const auto print_tokens = [](const char* label,
                               const std::vector<uint32_t>& tokens) {
    std::printf("%-28s", label);
    for (uint32_t t : tokens) std::printf(" %2u", t);
    std::printf("\n");
  };

  // --- greedy + sampled streams through the serving engine -----------------
  // One greedy request plus three sampled ones with different seeds; the
  // per-request TokenStream owns all policy state, so the engine's
  // slot/thread choices cannot change the streams.
  runtime::TrafficEngine engine(hw_config, std::move(qd));
  std::vector<std::unique_ptr<runtime::TokenStream>> streams;
  std::vector<runtime::GenerationRequest> requests;
  for (int i = 0; i < 4; ++i) {
    runtime::DecodePolicy policy;
    if (i > 0) {
      policy.sample = true;
      policy.temperature = 0.9f;
      policy.top_k = 8;
      policy.repetition_penalty = 1.2f;
      policy.seed = 100 + static_cast<uint64_t>(i);
    }
    streams.push_back(
        std::make_unique<runtime::TokenStream>(policy, vocab, 32));
    streams.back()->reset(prompt);
    runtime::GenerationRequest req;
    req.prefix = embed_rows(prompt);
    req.memory = &memory;
    req.max_new_tokens = 10;
    req.next_token = streams.back()->callback();
    requests.push_back(std::move(req));
  }
  runtime::TrafficOptions engine_opts;
  engine_opts.slots = 2;
  engine_opts.kv_block_rows = 4;
  engine.run(requests, engine_opts);
  std::printf("decode policies over one engine (prompt: 7 3 19 4)\n\n");
  print_tokens("greedy:", streams[0]->tokens());
  for (int i = 1; i < 4; ++i) {
    char label[64];
    std::snprintf(label, sizeof(label),
                  "sampled (T=0.9 k=8 seed %d):", 100 + i);
    print_tokens(label, streams[i]->tokens());
  }

  // --- width-4 beam search on COW forks -------------------------------------
  runtime::BeamSearchOptions beam_opts;
  beam_opts.beam_width = 4;
  beam_opts.max_new_tokens = 10;
  beam_opts.kv_block_rows = 4;
  runtime::BeamSearchDecoder beam(hw_config, engine.model(), vocab,
                                  beam_opts);
  const auto hyps = beam.generate(prompt, memory);
  const auto& stats = beam.last_run();

  runtime::BeamSearchOptions eager_opts = beam_opts;
  eager_opts.cow = false;
  runtime::BeamSearchDecoder eager(hw_config, engine.model(), vocab,
                                   eager_opts);
  const auto eager_hyps = eager.generate(prompt, memory);
  bool identical = hyps.size() == eager_hyps.size();
  for (size_t i = 0; identical && i < hyps.size(); ++i) {
    identical = hyps[i].tokens == eager_hyps[i].tokens;
  }

  std::printf("\nbeam search K=4 (length-normalized scores):\n");
  for (size_t i = 0; i < hyps.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof(label), "beam %zu (score %.3f):", i,
                  hyps[i].score);
    print_tokens(label, hyps[i].tokens);
  }
  std::printf(
      "\nCOW pool accounting: peak %zu unique blocks "
      "(worst-case bound %zu, eager reference %zu), %llu block copies "
      "across %llu forks; hypotheses vs eager-copy caches: %s\n",
      stats.kv_blocks_peak, stats.worst_case_blocks,
      eager.last_run().kv_blocks_peak,
      static_cast<unsigned long long>(stats.cow_copies),
      static_cast<unsigned long long>(stats.forks),
      identical ? "IDENTICAL" : "DIVERGED");
  return identical ? 0 : 1;
}

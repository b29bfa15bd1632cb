// Decode-policy subsystem: the logits pipeline (repetition penalty,
// temperature, top-k, top-p), greedy/sampled TokenStreams plugged into
// the UNCHANGED generation engine + scheduler (stepped == threaded token
// for token, because all policy state is per-request), beam-vs-greedy
// relationships, and the beam cycle model's MAC cross-check against the
// executed engine schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

struct PolicyFixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;
  tensor::MatrixF head, embed;
  runtime::VocabModel vocab;

  explicit PolicyFixture(uint32_t seq_len = 16, uint64_t seed = 800,
                         uint32_t vocab_size = 24) {
    cfg.seq_len = seq_len;
    cfg.d_model = 48;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(6, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
    util::Xoshiro256 rng(seed + 7);
    head = tensor::MatrixF(vocab_size, cfg.d_model);
    embed = tensor::MatrixF(vocab_size, cfg.d_model);
    for (float& x : head.flat()) x = static_cast<float>(rng.normal());
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    vocab.head = &head;
    vocab.embed = &embed;
  }

  /// Prompt token rows through the embedding table.
  tensor::MatrixF embed_rows(std::span<const uint32_t> tokens) const {
    tensor::MatrixF m(tokens.size(), cfg.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      std::copy(embed.row(tokens[r]).begin(), embed.row(tokens[r]).end(),
                m.row(r).begin());
    }
    return m;
  }
};

// --- LogitsProcessor ---------------------------------------------------------

TEST(LogitsProcessor, TemperatureScalesWithoutReordering) {
  runtime::DecodePolicy p;
  p.temperature = 0.5f;
  runtime::LogitsProcessor proc(p, 4);
  std::vector<float> logits = {1.0f, -2.0f, 3.0f, 0.5f};
  proc.process(logits, {});
  EXPECT_FLOAT_EQ(logits[0], 2.0f);
  EXPECT_FLOAT_EQ(logits[1], -4.0f);
  EXPECT_FLOAT_EQ(logits[2], 6.0f);
  EXPECT_FLOAT_EQ(logits[3], 1.0f);
}

TEST(LogitsProcessor, TopKMasksEverythingBelowTheKthLogit) {
  runtime::DecodePolicy p;
  p.top_k = 2;
  runtime::LogitsProcessor proc(p, 5);
  std::vector<float> logits = {0.1f, 2.0f, -1.0f, 1.5f, 0.0f};
  proc.process(logits, {});
  EXPECT_FLOAT_EQ(logits[1], 2.0f);
  EXPECT_FLOAT_EQ(logits[3], 1.5f);
  EXPECT_EQ(logits[0], -kInf);
  EXPECT_EQ(logits[2], -kInf);
  EXPECT_EQ(logits[4], -kInf);
}

TEST(LogitsProcessor, TopPKeepsTheSmallestSufficientNucleus) {
  runtime::DecodePolicy p;
  p.top_p = 0.6f;
  runtime::LogitsProcessor proc(p, 4);
  // Probabilities ~ [0.643, 0.236, 0.087, 0.032]: the top-1 mass 0.643
  // already reaches 0.6, so only the argmax survives.
  std::vector<float> logits = {2.0f, 1.0f, 0.0f, -1.0f};
  proc.process(logits, {});
  EXPECT_FLOAT_EQ(logits[0], 2.0f);
  EXPECT_EQ(logits[1], -kInf);
  EXPECT_EQ(logits[2], -kInf);
  EXPECT_EQ(logits[3], -kInf);

  // p = 0.85 needs the top two (0.643 + 0.236 = 0.879).
  runtime::DecodePolicy p2;
  p2.top_p = 0.85f;
  runtime::LogitsProcessor proc2(p2, 4);
  std::vector<float> logits2 = {2.0f, 1.0f, 0.0f, -1.0f};
  proc2.process(logits2, {});
  EXPECT_FLOAT_EQ(logits2[0], 2.0f);
  EXPECT_FLOAT_EQ(logits2[1], 1.0f);
  EXPECT_EQ(logits2[2], -kInf);
  EXPECT_EQ(logits2[3], -kInf);
}

TEST(LogitsProcessor, RepetitionPenaltyDemotesHistoryOncePerToken) {
  runtime::DecodePolicy p;
  p.repetition_penalty = 2.0f;
  runtime::LogitsProcessor proc(p, 4);
  std::vector<float> logits = {2.0f, -1.0f, 0.5f, 1.0f};
  // Token 0 appears twice in history: the penalty must apply once.
  const std::vector<uint32_t> history = {0, 1, 0};
  proc.process(logits, history);
  EXPECT_FLOAT_EQ(logits[0], 1.0f);   // positive: divided once
  EXPECT_FLOAT_EQ(logits[1], -2.0f);  // negative: multiplied (demoted)
  EXPECT_FLOAT_EQ(logits[2], 0.5f);   // untouched
  EXPECT_FLOAT_EQ(logits[3], 1.0f);
}

TEST(LogitsProcessor, ValidatesPolicyAndInputs) {
  runtime::DecodePolicy bad;
  bad.temperature = 0.0f;
  EXPECT_THROW(runtime::LogitsProcessor(bad, 4), std::invalid_argument);
  bad = runtime::DecodePolicy{};
  bad.top_p = 0.0f;
  EXPECT_THROW(runtime::LogitsProcessor(bad, 4), std::invalid_argument);
  bad = runtime::DecodePolicy{};
  bad.top_k = 5;
  EXPECT_THROW(runtime::LogitsProcessor(bad, 4), std::invalid_argument);
  bad = runtime::DecodePolicy{};
  bad.eos_token = 4;
  EXPECT_THROW(runtime::LogitsProcessor(bad, 4), std::invalid_argument);

  runtime::LogitsProcessor proc(runtime::DecodePolicy{}, 4);
  std::vector<float> wrong(3);
  EXPECT_THROW(proc.process(wrong, {}), std::invalid_argument);
}

TEST(DecodePolicyHelpers, ArgmaxTiesGoToTheLowestIndex) {
  const std::vector<float> logits = {1.0f, 3.0f, 3.0f, 0.0f};
  EXPECT_EQ(runtime::argmax_logit(logits), 1u);
}

TEST(DecodePolicyHelpers, LogSoftmaxNormalizesAndKeepsMasks) {
  std::vector<float> logits = {1.0f, 2.0f, -kInf};
  runtime::log_softmax_inplace(logits);
  EXPECT_EQ(logits[2], -kInf);
  const double total = std::exp(static_cast<double>(logits[0])) +
                       std::exp(static_cast<double>(logits[1]));
  EXPECT_NEAR(total, 1.0, 1e-6);  // float logits bound the precision
  EXPECT_LT(logits[0], logits[1]);
}

// --- TokenStream -------------------------------------------------------------

TEST(TokenStream, GreedyEmitsEosAndStops) {
  // Identity-ish head: logits = state, so a one-hot state forces the
  // argmax. Token 2 is EOS.
  tensor::MatrixF head(4, 4, 0.0f), embed(4, 4, 0.0f);
  for (size_t v = 0; v < 4; ++v) head(v, v) = 1.0f;
  runtime::VocabModel vocab{&head, &embed};
  runtime::DecodePolicy p;
  p.eos_token = 2;
  runtime::TokenStream stream(p, vocab, 8);
  stream.reset();

  tensor::MatrixF next;
  const std::vector<float> pick1 = {0.0f, 9.0f, 0.0f, 0.0f};
  EXPECT_TRUE(stream.next_token(pick1, next));
  const std::vector<float> pick_eos = {0.0f, 0.0f, 9.0f, 0.0f};
  EXPECT_FALSE(stream.next_token(pick_eos, next));
  EXPECT_EQ(stream.tokens(), (std::vector<uint32_t>{1, 2}));
}

TEST(TokenStream, SamplingIsSeedDeterministicAndTopK1IsGreedy) {
  PolicyFixture fx;
  runtime::DecodePolicy sampled;
  sampled.sample = true;
  sampled.temperature = 0.8f;
  sampled.top_k = 8;
  sampled.seed = 42;

  const auto run_stream = [&](const runtime::DecodePolicy& p) {
    runtime::TokenStream stream(p, fx.vocab, 16);
    const std::vector<uint32_t> prompt = {1, 2};
    stream.reset(prompt);
    runtime::GenerationSession session(fx.acfg, fx.qd);
    tensor::MatrixF states, state, next;
    session.prefill(fx.embed_rows(prompt), fx.memory, states);
    bool more = stream.next_token(states.row(states.rows() - 1), next);
    for (int t = 0; t < 6 && more; ++t) {
      session.decode_step(next, state);
      more = stream.next_token(state.row(0), next);
    }
    return stream.tokens();
  };

  const auto a = run_stream(sampled);
  const auto b = run_stream(sampled);
  EXPECT_EQ(a, b) << "same seed must reproduce the same stream";

  runtime::DecodePolicy other = sampled;
  other.seed = 43;
  // Different seeds *may* coincide but should not on this fixture.
  EXPECT_NE(run_stream(other), a);

  // A 1-token nucleus degenerates to greedy.
  runtime::DecodePolicy k1 = sampled;
  k1.top_k = 1;
  runtime::DecodePolicy greedy;
  greedy.temperature = sampled.temperature;
  greedy.top_k = 1;
  EXPECT_EQ(run_stream(k1), run_stream(greedy));
}

TEST(TokenStream, SchedulerSteppedAndThreadedEmitIdenticalStreams) {
  // Sampling policies ride the UNCHANGED engine through the
  // next_token callback; per-request RNG + history make the streams
  // invariant to slots/threads/chunking.
  PolicyFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  const size_t n_req = 5;
  std::vector<std::vector<uint32_t>> prompts;
  for (size_t i = 0; i < n_req; ++i) {
    prompts.push_back({static_cast<uint32_t>(i),
                       static_cast<uint32_t>((i * 7 + 3) % 24)});
  }

  const auto run_mode = [&](size_t threads, size_t prefill_chunk) {
    std::vector<std::unique_ptr<runtime::TokenStream>> streams;
    std::vector<runtime::GenerationRequest> requests;
    for (size_t i = 0; i < n_req; ++i) {
      runtime::DecodePolicy p;
      p.sample = true;
      p.temperature = 0.9f;
      p.top_k = 6;
      p.repetition_penalty = 1.3f;
      p.seed = 1000 + i;
      streams.push_back(std::make_unique<runtime::TokenStream>(
          p, fx.vocab, 16));
      streams.back()->reset(prompts[i]);
      runtime::GenerationRequest req;
      req.prefix = fx.embed_rows(prompts[i]);
      req.memory = &fx.memory;
      req.max_new_tokens = 5;
      req.next_token = streams.back()->callback();
      requests.push_back(std::move(req));
    }
    runtime::TrafficOptions opts;
    opts.slots = 3;
    opts.threads = threads;
    opts.prefill_chunk = prefill_chunk;
    opts.kv_block_rows = 4;
    engine.run(requests, opts);
    std::vector<std::vector<uint32_t>> tokens;
    for (auto& s : streams) tokens.push_back(s->tokens());
    return tokens;
  };

  const auto stepped = run_mode(1, 0);
  const auto threaded = run_mode(3, 0);
  const auto chunked = run_mode(1, 1);
  EXPECT_EQ(stepped, threaded);
  EXPECT_EQ(stepped, chunked);
}

// --- beam search relationships ----------------------------------------------

TEST(BeamSearch, WidthOneWithNeutralShapingIsGreedy) {
  PolicyFixture fx;
  const std::vector<uint32_t> prompt = {4, 9};
  const uint32_t max_new = 7;

  runtime::BeamSearchOptions opts;
  opts.beam_width = 1;
  opts.max_new_tokens = max_new;
  opts.length_penalty = 0.0f;
  opts.kv_block_rows = 4;
  runtime::BeamSearchDecoder beam(fx.acfg, fx.qd, fx.vocab, opts);
  const auto hyps = beam.generate(prompt, fx.memory);
  ASSERT_EQ(hyps.size(), 1u);

  runtime::TokenStream greedy(runtime::DecodePolicy{}, fx.vocab, 16);
  greedy.reset(prompt);
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states, state, next;
  session.prefill(fx.embed_rows(prompt), fx.memory, states);
  greedy.next_token(states.row(states.rows() - 1), next);
  for (uint32_t t = 1; t < max_new; ++t) {
    session.decode_step(next, state);
    greedy.next_token(state.row(0), next);
  }
  EXPECT_EQ(hyps[0].tokens, greedy.tokens());
  EXPECT_FALSE(hyps[0].finished);
}

TEST(BeamSearch, WiderBeamNeverScoresBelowGreedyOnThisFixture) {
  PolicyFixture fx(16, 810);
  const std::vector<uint32_t> prompt = {2, 11, 7};

  runtime::BeamSearchOptions base;
  base.beam_width = 1;
  base.max_new_tokens = 8;
  base.length_penalty = 0.0f;
  base.kv_block_rows = 4;
  runtime::BeamSearchDecoder greedy(fx.acfg, fx.qd, fx.vocab, base);
  const auto g = greedy.generate(prompt, fx.memory);

  runtime::BeamSearchOptions wide = base;
  wide.beam_width = 4;
  runtime::BeamSearchDecoder beam(fx.acfg, fx.qd, fx.vocab, wide);
  const auto b = beam.generate(prompt, fx.memory);

  ASSERT_FALSE(g.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_GE(b[0].sum_logprob, g[0].sum_logprob - 1e-12);
  // Hypotheses come back best-first.
  for (size_t i = 1; i < b.size(); ++i) {
    EXPECT_LE(b[i].score, b[i - 1].score);
  }
}

TEST(BeamSearch, LengthPenaltyPrefersLongerFinishes) {
  // Pure scoring check: sum / ((5+len)/6)^alpha grows milder with alpha.
  runtime::BeamSearchOptions opts;
  const double sum = -10.0;
  const auto norm = [](double alpha, size_t len) {
    return std::pow((5.0 + static_cast<double>(len)) / 6.0, alpha);
  };
  EXPECT_GT(sum / norm(0.6, 8), sum / norm(0.0, 8));  // less negative
  EXPECT_GT(norm(0.6, 8), norm(0.6, 2));
}

TEST(BeamSearch, ValidatesOptionsAndPrompt) {
  PolicyFixture fx;
  runtime::BeamSearchOptions opts;
  opts.beam_width = 0;
  EXPECT_THROW(
      runtime::BeamSearchDecoder(fx.acfg, fx.qd, fx.vocab, opts),
      std::invalid_argument);
  opts = runtime::BeamSearchOptions{};
  opts.kv_block_rows = 0;  // COW needs paging
  EXPECT_THROW(
      runtime::BeamSearchDecoder(fx.acfg, fx.qd, fx.vocab, opts),
      std::invalid_argument);
  opts = runtime::BeamSearchOptions{};
  opts.beam_width = 25;  // > vocab
  EXPECT_THROW(
      runtime::BeamSearchDecoder(fx.acfg, fx.qd, fx.vocab, opts),
      std::invalid_argument);

  opts = runtime::BeamSearchOptions{};
  opts.beam_width = 2;
  opts.max_new_tokens = 4;
  runtime::BeamSearchDecoder dec(fx.acfg, fx.qd, fx.vocab, opts);
  EXPECT_THROW(dec.generate({}, fx.memory), std::invalid_argument);
  const std::vector<uint32_t> oob = {99};
  EXPECT_THROW(dec.generate(oob, fx.memory), std::invalid_argument);
  const std::vector<uint32_t> prompt(fx.cfg.seq_len, 1);
  // prompt + max_new > seq_len + 1 cannot be cached.
  EXPECT_THROW(dec.generate(prompt, fx.memory), std::invalid_argument);
}

TEST(BeamSearch, GroupPreemptRestoreIsBitIdentical) {
  PolicyFixture fx(16, 820);
  const std::vector<uint32_t> prompt = {3, 12, 6};
  // K+V bytes per cached row across the stack: layers x heads x 2 x head_dim.
  const size_t row_bytes = 2 * 4 * 2 * 12;

  for (const bool cow : {true, false}) {
    runtime::BeamSearchOptions opts;
    opts.beam_width = 3;
    opts.max_new_tokens = 6;
    opts.kv_block_rows = 4;
    opts.cow = cow;
    runtime::BeamSearchDecoder ref(fx.acfg, fx.qd, fx.vocab, opts);
    const auto want = ref.generate(prompt, fx.memory);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(ref.last_run().group_preemptions, 0u);

    // Same run against a shared pool, preempted once mid-decode: the
    // whole group (blocks AND admission credit) drains back to the pool,
    // then restores via re-prefill + re-fork + per-beam replay.
    const size_t worst = runtime::beam_worst_case_blocks(
        prompt.size(), opts.max_new_tokens, opts.beam_width,
        opts.kv_block_rows, cow);
    runtime::KvBlockPool pool;
    pool.configure(worst + 2, opts.kv_block_rows, row_bytes);
    opts.kv_pool = &pool;
    bool fired = false;
    uint32_t drained_checks = 0;
    opts.preempt_point = [&fired](uint32_t generated) {
      if (generated == 2 && !fired) {
        fired = true;
        return true;
      }
      return false;
    };
    opts.on_preempted = [&pool, &drained_checks] {
      EXPECT_EQ(pool.used_blocks(), 0u);
      ++drained_checks;
    };
    runtime::BeamSearchDecoder dec(fx.acfg, fx.qd, fx.vocab, opts);
    const auto got = dec.generate(prompt, fx.memory);

    EXPECT_EQ(drained_checks, 1u) << "cow=" << cow;
    EXPECT_EQ(dec.last_run().group_preemptions, 1u) << "cow=" << cow;
    EXPECT_GT(dec.last_run().replayed_rows, 0u) << "cow=" << cow;
    ASSERT_EQ(got.size(), want.size()) << "cow=" << cow;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tokens, want[i].tokens) << "cow=" << cow << " i=" << i;
      EXPECT_EQ(got[i].sum_logprob, want[i].sum_logprob)
          << "cow=" << cow << " i=" << i;
      EXPECT_EQ(got[i].score, want[i].score) << "cow=" << cow << " i=" << i;
      EXPECT_EQ(got[i].finished, want[i].finished)
          << "cow=" << cow << " i=" << i;
    }
  }
}

// --- cycle-model cross-checks ------------------------------------------------

TEST(BeamPerfModel, EstimatedMacsMatchTheExecutedSchedule) {
  PolicyFixture fx;
  const std::vector<uint32_t> prompt = {5, 3, 8};
  const uint32_t max_new = 6;
  const uint32_t beam_width = 4;

  runtime::BeamSearchOptions opts;
  opts.beam_width = beam_width;
  opts.max_new_tokens = max_new;
  opts.kv_block_rows = 4;
  runtime::BeamSearchDecoder dec(fx.acfg, fx.qd, fx.vocab, opts);
  (void)dec.generate(prompt, fx.memory);

  const auto estimate = accel::estimate_beam_generation_performance(
      fx.acfg, fx.cfg, static_cast<uint32_t>(prompt.size()),
      static_cast<uint32_t>(prompt.size()) + max_new, fx.memory.rows(),
      beam_width);
  EXPECT_EQ(dec.last_run().macs, estimate.macs)
      << "the cycle model must mirror the executed fork/step schedule";
  EXPECT_EQ(dec.last_run().decode_steps,
            uint64_t{beam_width} * (max_new - 1));

  // Beam cost scales with K on the step side only: prefill is shared.
  const auto k1 = accel::estimate_beam_generation_performance(
      fx.acfg, fx.cfg, 3, 3 + max_new, fx.memory.rows(), 1);
  const auto gen = accel::estimate_generation_performance(
      fx.acfg, fx.cfg, 3, 3 + max_new - 1, fx.memory.rows());
  EXPECT_EQ(k1.macs, gen.macs);  // K=1 == plain generation (same steps)
  EXPECT_THROW(accel::estimate_beam_generation_performance(
                   fx.acfg, fx.cfg, 0, 4, 8, 2),
               std::invalid_argument);
}

TEST(ForkedKvFootprint, ModelsSharedVsPrivateBlocksAndSavings) {
  ref::ModelConfig m;
  m.seq_len = 64;
  m.d_model = 768;
  m.num_heads = 8;
  m.num_layers = 6;
  const auto fp = accel::estimate_forked_kv_footprint(m, /*prompt=*/24,
                                                      /*new_rows=*/8,
                                                      /*beams=*/4,
                                                      /*block_rows=*/8);
  EXPECT_EQ(fp.row_bytes, uint64_t{6} * 8 * 2 * 96);
  EXPECT_EQ(fp.shared_blocks, 3u);   // ceil(24 / 8)
  EXPECT_EQ(fp.private_blocks, 1u);  // ceil(32 / 8) - 24 / 8
  const uint64_t block_bytes = 8 * fp.row_bytes;
  EXPECT_EQ(fp.cow_bytes, (3 + 4 * 1) * block_bytes);
  EXPECT_EQ(fp.eager_bytes, uint64_t{4} * 4 * block_bytes);
  EXPECT_EQ(fp.bytes_saved, fp.eager_bytes - fp.cow_bytes);
  EXPECT_GT(fp.bytes_saved, 0u);

  // A mid-block fork point charges each beam the straddling block too.
  const auto straddle = accel::estimate_forked_kv_footprint(m, 20, 8, 4, 8);
  EXPECT_EQ(straddle.shared_blocks, 3u);
  EXPECT_EQ(straddle.private_blocks, 2u);

  EXPECT_THROW(accel::estimate_forked_kv_footprint(m, 0, 8, 4, 8),
               std::invalid_argument);
  EXPECT_THROW(accel::estimate_forked_kv_footprint(m, 60, 8, 4, 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace protea

// Randomized stress/property tests for continuous batching of closed
// batches through the serving engine: mixed prompt lengths, staggered
// admission, early finishes, slot reuse and shared-pool block exhaustion,
// run with fixed seeds. The invariant throughout: every scheduling mode —
// stepped or threaded, dense or paged, derived or undersized pool,
// chunked or one-shot prefill — emits token-for-token (bit-for-bit)
// identical results, because per-sequence work is scheduling-invariant
// and the int8 datapath is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

using runtime::TrafficClassStats;

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

struct StressFixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit StressFixture(uint64_t seed = 500) {
    cfg.seq_len = 12;
    cfg.d_model = 48;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(8, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }
};

/// Builds a FRESH randomized request mix from `seed` — fresh because
/// early-EOS requests carry a countdown that must restart for every
/// engine run (the callback sequence is per-request deterministic, so
/// identical counters give identical runs). The mix covers: prompt
/// lengths 1..seq_len-2, max_new 0..6, early EOS, and one
/// capacity-edge request (prefix + max_new == seq_len + 1).
std::vector<runtime::GenerationRequest> build_requests(
    const StressFixture& fx, size_t count, uint64_t seed) {
  const uint32_t d = fx.cfg.d_model;
  std::vector<runtime::GenerationRequest> requests;
  util::Xoshiro256 rng(seed);
  for (size_t i = 0; i < count; ++i) {
    runtime::GenerationRequest req;
    const size_t prefix_rows = 1 + rng.next() % (fx.cfg.seq_len - 2);
    req.prefix = random_input(prefix_rows, d, seed + 10 + i);
    req.memory = &fx.memory;
    // Clamp to the request bound: prefix + max_new <= seq_len + 1.
    req.max_new_tokens = static_cast<uint32_t>(
        std::min<size_t>(rng.next() % 7, fx.cfg.seq_len + 1 - prefix_rows));
    if (i == 0) {  // capacity edge: wants one more token than cache rows
      req.prefix = random_input(fx.cfg.seq_len, d, seed + 10 + i);
      req.max_new_tokens = 1;
    }
    // Deterministic pure token policy: feed a scaled copy back. Every
    // third request finishes early through the callback (EOS).
    const float scale = 0.25f + 0.05f * static_cast<float>(i % 5);
    const int eos_after =
        (i % 3 == 2) ? static_cast<int>(rng.next() % 3) : -1;
    auto countdown = std::make_shared<int>(eos_after);
    req.next_token = [d, scale, countdown](std::span<const float> state,
                                           tensor::MatrixF& next) {
      if (*countdown == 0) return false;
      if (*countdown > 0) --*countdown;
      if (next.rows() != 1 || next.cols() != d) {
        next = tensor::MatrixF(1, d);
      }
      for (size_t c = 0; c < d; ++c) next(0, c) = scale * state[c];
      return true;
    };
    requests.push_back(std::move(req));
  }
  return requests;
}

void expect_same_results(const std::vector<runtime::TrafficResult>& a,
                         const std::vector<runtime::TrafficResult>& b,
                         const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].steps, b[i].steps) << what << " request " << i;
    ASSERT_EQ(a[i].states, b[i].states) << what << " request " << i;
  }
}

TEST(GenerationStress, AllSchedulingModesMatchTokenForToken) {
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  constexpr size_t kRequests = 10;
  constexpr uint64_t kSeed = 600;

  // Reference: deterministic stepped loop, one slot (pure sequential),
  // dense caches — the PR-3 baseline semantics.
  runtime::TrafficOptions reference;
  reference.slots = 1;
  reference.kv_block_rows = 0;
  const auto expected =
      engine.run(build_requests(fx, kRequests, kSeed), reference);

  // Stepped, multi-slot, paged (default kv_pool_blocks: derived pool).
  runtime::TrafficOptions stepped;
  stepped.slots = 4;
  stepped.kv_block_rows = 4;
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), stepped),
      expected, "stepped/paged");
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::completed),
            kRequests);

  // Stepped, shared pool + chunked prefill.
  runtime::TrafficOptions shared;
  shared.slots = 4;
  shared.kv_block_rows = 4;
  shared.kv_pool_blocks = 16;
  shared.prefill_chunk = 3;
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), shared),
      expected, "stepped/shared/chunked");
  EXPECT_GE(engine.last_run().prefill_chunks,
            engine.last_run().total(&TrafficClassStats::completed));

  // Threaded continuous batching over the module-slot semaphores (the
  // paper's single two-stage accelerator), shared pool.
  runtime::TrafficOptions threaded;
  threaded.slots = 4;
  threaded.threads = 4;
  threaded.mha_slots = 1;
  threaded.ffn_slots = 1;
  threaded.kv_block_rows = 4;
  threaded.kv_pool_blocks = 16;
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), threaded),
      expected, "threaded/shared");
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::completed), kRequests);

  // Threaded, chunked, on the derived pool (kv_pool_blocks = 0): every
  // seat can hold a full-capacity sequence, so nothing ever waits for
  // blocks or is preempted.
  runtime::TrafficOptions derived;
  derived.slots = 4;
  derived.threads = 2;
  derived.kv_block_rows = 2;
  derived.kv_pool_blocks = 0;
  derived.prefill_chunk = 2;
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), derived),
      expected, "threaded/derived pool");
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::kv_block_waits), 0u);
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::preemptions), 0u);
}

TEST(GenerationStress, BlockExhaustionDefersAdmissionWithoutCorruption) {
  // Shared pool sized for ~1.5 worst-case sequences: requests must
  // WAIT for blocks (kv_block_waits > 0) or be preempted, and the
  // outputs must still match the unconstrained reference exactly.
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  constexpr size_t kRequests = 8;
  constexpr uint64_t kSeed = 700;

  runtime::TrafficOptions reference;
  reference.slots = 1;
  reference.kv_block_rows = 0;
  const auto expected =
      engine.run(build_requests(fx, kRequests, kSeed), reference);

  runtime::TrafficOptions starved;
  starved.slots = 4;
  starved.kv_block_rows = 2;
  starved.kv_pool_blocks = 9;  // one request can need up to 6 blocks
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), starved),
      expected, "stepped/starved");
  const auto& stats = engine.last_run();
  EXPECT_GT(stats.total(&TrafficClassStats::kv_block_waits), 0u);
  EXPECT_LE(stats.kv_blocks_peak, 9u);

  // Same starvation level, threaded: the coordinator still owns every
  // pool mutation and preempts strictly worse-ranked seats when growth
  // comes up short — the run must complete with identical outputs.
  runtime::TrafficOptions starved_threaded = starved;
  starved_threaded.threads = 4;
  starved_threaded.mha_slots = 2;
  starved_threaded.ffn_slots = 2;
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), starved_threaded),
      expected, "threaded/starved");
}

TEST(GenerationStress, SlotReuseAcrossManySequences) {
  // 12 requests through 2 slots: each slot serves ~6 sequences
  // back-to-back, recycling its session storage and blocks every time.
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  constexpr size_t kRequests = 12;
  constexpr uint64_t kSeed = 800;

  runtime::TrafficOptions reference;
  reference.slots = 1;
  reference.kv_block_rows = 0;
  const auto expected =
      engine.run(build_requests(fx, kRequests, kSeed), reference);

  runtime::TrafficOptions two_slots;
  two_slots.slots = 2;
  two_slots.kv_block_rows = 3;
  two_slots.kv_pool_blocks = 10;
  expect_same_results(
      engine.run(build_requests(fx, kRequests, kSeed), two_slots),
      expected, "two-slot reuse");
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::completed), kRequests);
  EXPECT_LE(engine.last_run().max_active, 2u);
}

TEST(GenerationStress, FixedSeedRunsAreReproducible) {
  // The stepped engine is deterministic end to end: two runs from the
  // same seed produce identical stats-relevant schedules and identical
  // bits, including under backpressure.
  StressFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions opts;
  opts.slots = 3;
  opts.kv_block_rows = 2;
  opts.kv_pool_blocks = 12;
  opts.prefill_chunk = 2;

  const auto first = engine.run(build_requests(fx, 9, 900), opts);
  const auto stats_first = engine.last_run();
  const auto second = engine.run(build_requests(fx, 9, 900), opts);
  const auto& stats_second = engine.last_run();
  expect_same_results(first, second, "repeat run");
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].admitted_round, second[i].admitted_round) << i;
    EXPECT_EQ(first[i].retired_round, second[i].retired_round) << i;
  }
  EXPECT_EQ(stats_first.rounds, stats_second.rounds);
  EXPECT_EQ(stats_first.decode_steps, stats_second.decode_steps);
  EXPECT_EQ(stats_first.prefill_chunks, stats_second.prefill_chunks);
  EXPECT_EQ(stats_first.total(&TrafficClassStats::kv_block_waits),
            stats_second.total(&TrafficClassStats::kv_block_waits));
}

}  // namespace
}  // namespace protea

// Copy-on-write KV block forking: the KvBlockPool refcount / lazy-zero
// contract, and — the tentpole invariant — bit-identity of fork() +
// divergent decode against an eager full-copy fork (and a fresh replay)
// across randomized (T, block_size, fork point, width) shapes, including
// fork-on-block-boundary and fork-then-free orderings. Beam search rides
// the same machinery: COW and eager forks emit identical hypotheses, a
// reused decoder reports the same per-run results as a fresh one, and
// the executed block peak stays within the COW-aware worst-case bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

/// Model + quantized decoder at a given target capacity (seq_len).
struct CowFixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit CowFixture(uint32_t seq_len, uint64_t seed = 500) {
    cfg.seq_len = seq_len;
    cfg.d_model = 48;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(6, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }

  size_t row_bytes() const {
    return cfg.num_layers * cfg.num_heads * 2 * cfg.head_dim();
  }
};

// --- KvBlockPool refcount / lazy-zero contract ------------------------------

TEST(KvBlockPoolCow, ForkRefCountsUniqueBlocksOnce) {
  runtime::KvBlockPool pool;
  pool.configure(4, 2, 16);

  std::vector<uint32_t> held;
  ASSERT_TRUE(pool.try_reserve(2, held));
  EXPECT_EQ(pool.used_blocks(), 2u);
  EXPECT_EQ(pool.shared_blocks(), 0u);

  // A fork bumps refcounts without consuming pool capacity: occupancy
  // still counts unique blocks once.
  pool.fork_ref(held);
  EXPECT_EQ(pool.used_blocks(), 2u);
  EXPECT_EQ(pool.shared_blocks(), 2u);
  EXPECT_EQ(pool.ref_count(held[0]), 2u);

  // The first release only drops references; blocks stay live.
  pool.release(held);
  EXPECT_EQ(pool.used_blocks(), 2u);
  EXPECT_EQ(pool.shared_blocks(), 0u);
  EXPECT_EQ(pool.free_blocks(), 2u);

  // The last release frees them.
  pool.release(held);
  EXPECT_EQ(pool.used_blocks(), 0u);
  EXPECT_EQ(pool.free_blocks(), 4u);

  // Releasing past the last reference is still a loud double free.
  EXPECT_THROW(pool.release(held), std::logic_error);
  EXPECT_THROW(pool.fork_ref(held), std::invalid_argument);  // not live

  // A span listing the same block twice is an over-release even while
  // OTHER forks still hold references: one call drops one reference per
  // distinct block, never the caller's holding twice.
  std::vector<uint32_t> shared;
  ASSERT_TRUE(pool.try_reserve(1, shared));
  pool.fork_ref(shared);  // refcount 2
  const std::vector<uint32_t> dup = {shared[0], shared[0]};
  EXPECT_THROW(pool.release(dup), std::logic_error);
  EXPECT_EQ(pool.ref_count(shared[0]), 2u);  // rollback kept both refs
  pool.release(shared);
  pool.release(shared);
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(KvBlockPoolCow, LazyZeroFillOnFirstHandOutAfterFree) {
  runtime::KvBlockPool pool;
  pool.configure(2, 2, 8);
  EXPECT_EQ(pool.zero_fills(), 0u);

  std::vector<uint32_t> held;
  ASSERT_TRUE(pool.try_reserve(1, held));
  // Fresh blocks were zeroed once at configure() — no lazy fill needed.
  EXPECT_EQ(pool.zero_fills(), 0u);
  for (size_t r = 0; r < 2; ++r) {
    std::memset(pool.row_data(held[0], r), 0x5a, 8);
  }
  pool.release(held);

  // Recycling scrubs the block on hand-out, exactly once.
  std::vector<uint32_t> again;
  ASSERT_TRUE(pool.try_reserve(1, again));
  EXPECT_EQ(again[0], held[0]);
  EXPECT_EQ(pool.zero_fills(), 1u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t b = 0; b < 8; ++b) {
      ASSERT_EQ(pool.row_data(again[0], r)[b], 0) << "row " << r;
    }
  }

  // A duplicate (COW copy) of a live block skips the redundant zeroing:
  // its hand-out is fully overwritten by the copy.
  std::memset(pool.row_data(again[0], 0), 0x77, 8);
  const uint32_t copy = pool.duplicate(again[0]);
  EXPECT_EQ(pool.zero_fills(), 1u);  // unchanged
  EXPECT_EQ(pool.row_data(copy, 0)[3], 0x77);
  pool.release(again);
  const uint32_t copies[] = {copy};
  pool.release(copies);
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(KvBlockPoolCow, MakePrivateCopiesSharedBlocksOnly) {
  runtime::KvBlockPool pool;
  pool.configure(3, 1, 4);
  std::vector<uint32_t> held;
  ASSERT_TRUE(pool.try_reserve(1, held));
  std::memset(pool.row_data(held[0], 0), 0x11, 4);
  const auto privatize = [&pool](uint32_t block) {
    pool.make_private_span(std::span<uint32_t>(&block, 1));
    return block;
  };

  // Sole holder: writing in place is safe, no copy happens.
  EXPECT_EQ(privatize(held[0]), held[0]);
  EXPECT_EQ(pool.cow_copies(), 0u);

  // Shared: make_private_span peels off a bit-exact copy and drops one
  // reference on the source.
  pool.fork_ref(held);
  const uint32_t copy = privatize(held[0]);
  EXPECT_NE(copy, held[0]);
  EXPECT_EQ(pool.cow_copies(), 1u);
  EXPECT_EQ(pool.ref_count(held[0]), 1u);
  EXPECT_EQ(pool.ref_count(copy), 1u);
  EXPECT_EQ(pool.row_data(copy, 0)[0], 0x11);
  EXPECT_EQ(pool.used_blocks(), 2u);

  const uint32_t copies[] = {copy};
  pool.release(copies);
  pool.release(held);
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- fork + divergent decode == eager copy == fresh replay ------------------

/// Forks `width` COW children and `width` eager children off one parent
/// prefilled with `fork_point` prompt rows, decodes a DIFFERENT token
/// stream on each pair (parent included, so the shared blocks see
/// divergent appends from every side), and asserts each COW child is
/// bit-identical to its eager twin and to a fresh replay at every step.
void expect_fork_matches_eager(const CowFixture& fx, size_t fork_point,
                               size_t block_rows, size_t width,
                               uint64_t seed) {
  runtime::KvBlockPool pool;
  const size_t lineage =
      (fx.cfg.seq_len + block_rows - 1) / block_rows;
  pool.configure((2 * width + 2) * lineage, block_rows, fx.row_bytes());

  runtime::GenerationOptions opts;
  opts.kv_block_rows = block_rows;
  opts.kv_pool = &pool;
  runtime::GenerationSession parent(fx.acfg, fx.qd, nullptr, opts);

  const auto prompt = random_input(fork_point, fx.cfg.d_model, seed);
  tensor::MatrixF prefill_states;
  parent.prefill(prompt, fx.memory, prefill_states);

  std::vector<std::unique_ptr<runtime::GenerationSession>> cow, eager;
  for (size_t c = 0; c < width; ++c) {
    cow.push_back(std::make_unique<runtime::GenerationSession>(
        fx.acfg, fx.qd, nullptr, opts));
    cow.back()->fork_from(parent, /*eager_copy=*/false);
    eager.push_back(std::make_unique<runtime::GenerationSession>(
        fx.acfg, fx.qd, nullptr, opts));
    eager.back()->fork_from(parent, /*eager_copy=*/true);
  }
  if (width >= 1 && fork_point >= block_rows) {
    EXPECT_GT(pool.shared_blocks(), 0u)
        << "fork did not actually share prompt blocks";
  }

  const size_t steps = fx.cfg.seq_len - fork_point;
  tensor::MatrixF cs, es, ps, rs;
  // Parent decodes its own continuation interleaved with the children,
  // so every side appends into what used to be shared blocks.
  const auto parent_tokens =
      random_input(steps, fx.cfg.d_model, seed + 1);
  std::vector<tensor::MatrixF> child_tokens;
  for (size_t c = 0; c < width; ++c) {
    child_tokens.push_back(
        random_input(steps, fx.cfg.d_model, seed + 2 + c));
  }
  std::vector<std::vector<tensor::MatrixF>> cow_states(width);
  for (size_t t = 0; t < steps; ++t) {
    parent.decode_step(parent_tokens.slice_rows(t, 1), ps);
    for (size_t c = 0; c < width; ++c) {
      cow[c]->decode_step(child_tokens[c].slice_rows(t, 1), cs);
      eager[c]->decode_step(child_tokens[c].slice_rows(t, 1), es);
      ASSERT_EQ(cs, es) << "cow vs eager, child " << c << " step " << t
                        << " fork@" << fork_point << " bs=" << block_rows;
      cow_states[c].push_back(cs);
    }
  }

  // Fresh replay (private pool): prefill + the same divergent stream.
  for (size_t c = 0; c < width; ++c) {
    runtime::GenerationOptions solo_opts;
    solo_opts.kv_block_rows = block_rows;
    runtime::GenerationSession solo(fx.acfg, fx.qd, nullptr, solo_opts);
    tensor::MatrixF solo_prefill;
    solo.prefill(prompt, fx.memory, solo_prefill);
    ASSERT_EQ(solo_prefill, prefill_states);
    for (size_t t = 0; t < steps; ++t) {
      solo.decode_step(child_tokens[c].slice_rows(t, 1), rs);
      ASSERT_EQ(cow_states[c][t], rs)
          << "cow vs replay, child " << c << " step " << t;
    }
  }

  parent.end_sequence();
  for (auto& s : cow) s->end_sequence();
  for (auto& s : eager) s->end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);  // refcounts drained completely
}

TEST(KvCow, ForkOnAndAroundBlockBoundariesIsBitIdentical) {
  CowFixture fx(8, 510);
  expect_fork_matches_eager(fx, 4, 4, 2, 600);  // fork ON the boundary
  expect_fork_matches_eager(fx, 5, 4, 2, 601);  // one past it
  expect_fork_matches_eager(fx, 3, 4, 2, 602);  // one before it
  expect_fork_matches_eager(fx, 2, 1, 3, 603);  // single-row blocks
  expect_fork_matches_eager(fx, 6, 16, 2, 604); // block > capacity
}

TEST(KvCow, RandomizedForkShapesAreBitIdentical) {
  util::Xoshiro256 rng(520);
  const uint32_t capacities[] = {6, 9, 13};
  const size_t block_sizes[] = {1, 2, 3, 5};
  for (int trial = 0; trial < 4; ++trial) {
    const uint32_t cap =
        capacities[rng.next() % (sizeof(capacities) / sizeof(uint32_t))];
    const size_t bs =
        block_sizes[rng.next() % (sizeof(block_sizes) / sizeof(size_t))];
    const size_t fork_point = 1 + rng.next() % (cap - 1);
    const size_t width = 1 + rng.next() % 3;
    CowFixture fx(cap, 530 + trial);
    expect_fork_matches_eager(fx, fork_point, bs, width,
                              700 + trial * 10);
  }
}

TEST(KvCow, ForkThenFreeOrderingKeepsSharedBlocksAlive) {
  // The parent retires FIRST: its release must only drop references —
  // the child keeps decoding over the shared prefix, bit-identical to a
  // replay. Then the reverse order on a second fork.
  CowFixture fx(10, 540);
  runtime::KvBlockPool pool;
  pool.configure(12, 3, fx.row_bytes());
  runtime::GenerationOptions opts;
  opts.kv_block_rows = 3;
  opts.kv_pool = &pool;

  runtime::GenerationSession parent(fx.acfg, fx.qd, nullptr, opts);
  runtime::GenerationSession child(fx.acfg, fx.qd, nullptr, opts);
  const auto prompt = random_input(5, fx.cfg.d_model, 541);
  const auto tokens = random_input(5, fx.cfg.d_model, 542);

  tensor::MatrixF states, cs, rs;
  parent.prefill(prompt, fx.memory, states);
  child.fork_from(parent);
  const size_t held_before = pool.used_blocks();
  parent.end_sequence();  // parent dies first
  EXPECT_EQ(pool.used_blocks(), held_before);  // child's refs held on

  runtime::GenerationSession solo(fx.acfg, fx.qd);
  tensor::MatrixF solo_states;
  solo.prefill(prompt, fx.memory, solo_states);
  for (size_t t = 0; t < 5; ++t) {
    child.decode_step(tokens.slice_rows(t, 1), cs);
    solo.decode_step(tokens.slice_rows(t, 1), rs);
    ASSERT_EQ(cs, rs) << "step " << t;
  }
  child.end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);

  // Reverse order: the child dies first, the parent keeps decoding.
  parent.prefill(prompt, fx.memory, states);
  child.fork_from(parent);
  child.end_sequence();
  runtime::GenerationSession solo2(fx.acfg, fx.qd);
  solo2.prefill(prompt, fx.memory, solo_states);
  for (size_t t = 0; t < 5; ++t) {
    parent.decode_step(tokens.slice_rows(t, 1), cs);
    solo2.decode_step(tokens.slice_rows(t, 1), rs);
    ASSERT_EQ(cs, rs) << "parent-after-child step " << t;
  }
  parent.end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(KvCow, ForkValidatesPoolAndGeometry) {
  CowFixture fx(8, 550);
  runtime::KvBlockPool pool;
  pool.configure(8, 2, fx.row_bytes());
  runtime::GenerationOptions shared;
  shared.kv_block_rows = 2;
  shared.kv_pool = &pool;
  runtime::GenerationSession a(fx.acfg, fx.qd, nullptr, shared);
  runtime::GenerationSession b(fx.acfg, fx.qd, nullptr, shared);

  EXPECT_THROW(a.fork_from(a), std::invalid_argument);  // self fork

  // Forking across two PRIVATE pools cannot share blocks.
  runtime::GenerationSession p1(fx.acfg, fx.qd);
  runtime::GenerationSession p2(fx.acfg, fx.qd);
  tensor::MatrixF states;
  p1.prefill(random_input(2, fx.cfg.d_model, 551), fx.memory, states);
  EXPECT_THROW(p2.fork_from(p1), std::invalid_argument);

  // A different model is a different session family.
  CowFixture other(8, 553);
  runtime::GenerationSession o(other.acfg, other.qd, nullptr, shared);
  a.prefill(random_input(2, fx.cfg.d_model, 554), fx.memory, states);
  EXPECT_THROW(o.fork_from(a), std::invalid_argument);
}

// --- beam search over COW forks ---------------------------------------------

struct BeamFixture {
  CowFixture fx;
  tensor::MatrixF head, embed;
  runtime::VocabModel vocab;

  explicit BeamFixture(uint32_t seq_len = 16, uint64_t seed = 560,
                       uint32_t vocab_size = 24)
      : fx(seq_len, seed) {
    util::Xoshiro256 rng(seed + 7);
    head = tensor::MatrixF(vocab_size, fx.cfg.d_model);
    embed = tensor::MatrixF(vocab_size, fx.cfg.d_model);
    for (float& x : head.flat()) x = static_cast<float>(rng.normal());
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    vocab.head = &head;
    vocab.embed = &embed;
  }
};

void expect_same_hypotheses(
    const std::vector<runtime::BeamHypothesis>& a,
    const std::vector<runtime::BeamHypothesis>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tokens, b[i].tokens) << what << " hypothesis " << i;
    EXPECT_EQ(a[i].sum_logprob, b[i].sum_logprob) << what << " " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " " << i;
    EXPECT_EQ(a[i].finished, b[i].finished) << what << " " << i;
  }
}

TEST(BeamSearchCow, CowMatchesEagerAndStaysWithinWorstCaseBound) {
  BeamFixture bf(16, 570);
  const std::vector<uint32_t> prompt = {1, 2, 3, 4, 5, 6};

  runtime::BeamSearchOptions cow_opts;
  cow_opts.beam_width = 4;
  cow_opts.max_new_tokens = 8;
  cow_opts.kv_block_rows = 2;
  cow_opts.cow = true;
  runtime::BeamSearchDecoder cow_dec(bf.fx.acfg, bf.fx.qd, bf.vocab,
                                     cow_opts);
  const auto cow_hyps = cow_dec.generate(prompt, bf.fx.memory);

  runtime::BeamSearchOptions eager_opts = cow_opts;
  eager_opts.cow = false;
  runtime::BeamSearchDecoder eager_dec(bf.fx.acfg, bf.fx.qd, bf.vocab,
                                       eager_opts);
  const auto eager_hyps = eager_dec.generate(prompt, bf.fx.memory);

  // The acceptance invariant: COW-forked beams emit tokens bit-identical
  // to eager-copy reference caches.
  expect_same_hypotheses(cow_hyps, eager_hyps, "cow vs eager");
  ASSERT_EQ(cow_hyps.size(), 4u);

  // Sharing actually happened, within the worst-case block bound
  // (beam_worst_case_blocks) every run is held to.
  const auto& cs = cow_dec.last_run();
  const auto& es = eager_dec.last_run();
  EXPECT_GT(cs.cow_copies, 0u);
  EXPECT_GT(cs.forks, 0u);
  EXPECT_LE(cs.kv_blocks_peak, cs.worst_case_blocks);
  EXPECT_LE(es.kv_blocks_peak, es.worst_case_blocks);
  EXPECT_LT(cs.kv_blocks_peak, es.kv_blocks_peak)
      << "COW should hold fewer unique blocks than eager copies";
  // K beams at near-1x prompt footprint: unique prompt+tail blocks stay
  // well under K private lineages.
  const size_t unshared_equiv =
      4 * ((prompt.size() + cow_opts.max_new_tokens - 1 + 1) / 2);
  EXPECT_LT(cs.kv_blocks_peak, unshared_equiv);
  EXPECT_EQ(cow_dec.pool().used_blocks(), 0u);  // fully drained
}

void expect_same_stats(const runtime::BeamSearchStats& a,
                       const runtime::BeamSearchStats& b, const char* what) {
  EXPECT_EQ(a.worst_case_blocks, b.worst_case_blocks) << what;
  EXPECT_EQ(a.kv_blocks_peak, b.kv_blocks_peak) << what;
  EXPECT_EQ(a.cow_copies, b.cow_copies) << what;
  EXPECT_EQ(a.forks, b.forks) << what;
  EXPECT_EQ(a.decode_steps, b.decode_steps) << what;
  EXPECT_EQ(a.macs, b.macs) << what;
}

TEST(BeamSearchCow, ReusedDecoderIsBitIdentical) {
  // Every last_run() field is per run: after a longer prompt raised the
  // pool's occupancy, a reused decoder serving a short prompt reports
  // exactly what a fresh decoder does, and leaves the pool drained.
  BeamFixture bf(14, 580);
  const std::vector<uint32_t> long_prompt = {3, 1, 4, 1, 5, 9, 2};
  const std::vector<uint32_t> prompt = {3, 1, 4};

  for (const bool cow : {true, false}) {
    SCOPED_TRACE(cow ? "cow" : "eager");
    runtime::BeamSearchOptions opts;
    opts.beam_width = 4;
    opts.max_new_tokens = 7;
    opts.kv_block_rows = 3;
    opts.cow = cow;
    runtime::BeamSearchDecoder fresh(bf.fx.acfg, bf.fx.qd, bf.vocab, opts);
    const auto want = fresh.generate(prompt, bf.fx.memory);
    const runtime::BeamSearchStats want_stats = fresh.last_run();

    runtime::BeamSearchDecoder reused(bf.fx.acfg, bf.fx.qd, bf.vocab, opts);
    reused.generate(long_prompt, bf.fx.memory);
    EXPECT_GT(reused.last_run().kv_blocks_peak, want_stats.kv_blocks_peak);
    for (int run = 0; run < 2; ++run) {
      expect_same_hypotheses(reused.generate(prompt, bf.fx.memory), want,
                             "reused vs fresh");
      expect_same_stats(reused.last_run(), want_stats, "reused vs fresh");
      EXPECT_EQ(reused.pool().used_blocks(), 0u);
    }
  }
}

TEST(BeamSearchCow, WorstCaseBoundFormula) {
  using runtime::beam_worst_case_blocks;
  // prompt 10, br 4: shared lineage ceil(10/4)=3; per-beam tail spans
  // blocks [floor(10/4), ceil((10+max_new-1)/4)).
  EXPECT_EQ(beam_worst_case_blocks(10, 7, 4, 4, true),
            3u + 4u * (4u - 2u));
  // Boundary prompt: no straddling block, tail is the pure divergence.
  EXPECT_EQ(beam_worst_case_blocks(8, 5, 2, 4, true), 2u + 2u * 1u);
  // Eager: two generations of full private lineages.
  EXPECT_EQ(beam_worst_case_blocks(8, 5, 2, 4, false), 2u * 2u * 3u);
  EXPECT_THROW(beam_worst_case_blocks(0, 1, 1, 1, true),
               std::invalid_argument);

  // The COW bound is the forked-KV memory model's count: K beams
  // emitting max_new tokens each hold prompt + max_new - 1 rows.
  const ref::ModelConfig model;  // seq_len 64 covers every shape below
  for (const uint32_t prompt : {1u, 2u, 5u, 8u, 13u}) {
    for (const uint32_t max_new : {1u, 2u, 7u, 16u}) {
      for (const uint32_t width : {1u, 2u, 4u}) {
        for (const uint32_t br : {1u, 3u, 4u, 16u}) {
          SCOPED_TRACE(::testing::Message()
                       << "prompt " << prompt << " max_new " << max_new
                       << " width " << width << " block_rows " << br);
          const size_t worst =
              beam_worst_case_blocks(prompt, max_new, width, br, true);
          const accel::ForkedKvFootprint fp =
              accel::estimate_forked_kv_footprint(model, prompt,
                                                  max_new - 1, width, br);
          EXPECT_EQ(worst, fp.shared_blocks + width * fp.private_blocks);
          EXPECT_EQ(worst * br * fp.row_bytes, fp.cow_bytes);
        }
      }
    }
  }
}

}  // namespace
}  // namespace protea

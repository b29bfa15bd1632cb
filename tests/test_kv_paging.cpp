// Property tests for the paged KV-cache layer: the KvBlockPool free
// list's all-or-nothing reservation contract, and — the central
// invariant — bit-identity of paged decode against the full-recompute
// forward across randomized (T, capacity, block_size) triples,
// including block-boundary-straddling sequence lengths, single-token
// blocks and shared-pool sequences with block exhaustion backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/inference_session.hpp"
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
struct PagingFixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit PagingFixture(uint32_t seq_len, uint64_t seed = 200) {
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
};

// --- KvBlockPool free-list contract -----------------------------------------

TEST(KvBlockPool, AllOrNothingReservationAndPeakTracking) {
  runtime::KvBlockPool pool;
  pool.configure(4, 2, 16);
  EXPECT_EQ(pool.free_blocks(), 4u);
  EXPECT_EQ(pool.block_bytes(), 32u);

  std::vector<uint32_t> held;
  EXPECT_TRUE(pool.try_reserve(3, held));
  EXPECT_EQ(held.size(), 3u);
  EXPECT_EQ(pool.used_blocks(), 3u);
  EXPECT_EQ(pool.peak_used_blocks(), 3u);

  // Shortfall takes NOTHING (a partial grab would deadlock two waiters)
  // and records one backpressure event.
  std::vector<uint32_t> more;
  EXPECT_FALSE(pool.try_reserve(2, more));
  EXPECT_TRUE(more.empty());
  EXPECT_EQ(pool.free_blocks(), 1u);
  EXPECT_EQ(pool.exhaustion_events(), 1u);

  pool.release(held);
  held.clear();
  EXPECT_EQ(pool.free_blocks(), 4u);
  EXPECT_EQ(pool.peak_used_blocks(), 3u);  // high-water mark sticks

  // Recycled blocks come back in free-list order; reservation succeeds
  // again with the same all-or-nothing semantics.
  EXPECT_TRUE(pool.try_reserve(4, held));
  EXPECT_EQ(pool.free_blocks(), 0u);
  EXPECT_EQ(pool.peak_used_blocks(), 4u);
  pool.release(held);
}

TEST(KvBlockPool, ValidatesArguments) {
  runtime::KvBlockPool pool;
  EXPECT_THROW(pool.configure(0, 2, 16), std::invalid_argument);
  std::vector<uint32_t> out;
  EXPECT_THROW(pool.try_reserve(1, out), std::logic_error);  // unconfigured

  pool.configure(2, 2, 16);
  const uint32_t bad = 7;
  EXPECT_THROW(pool.release({&bad, 1}), std::invalid_argument);
  EXPECT_EQ(pool.free_blocks(), 2u);  // failed release mutated nothing

  // Double frees — of an already-free block, or duplicated WITHIN one
  // span — must throw and leave the pool consistent, never alias one
  // block to two sequences.
  std::vector<uint32_t> held;
  ASSERT_TRUE(pool.try_reserve(1, held));
  const std::vector<uint32_t> dup = {held[0], held[0]};
  EXPECT_THROW(pool.release(dup), std::logic_error);
  EXPECT_EQ(pool.free_blocks(), 1u);  // rollback kept the held block held
  pool.release(held);
  EXPECT_THROW(pool.release(held), std::logic_error);
  EXPECT_EQ(pool.free_blocks(), 2u);
}

TEST(KvCache, LayoutGuards) {
  // Zero rows per block is a zero dimension, like a zero head count,
  // with or without a pool; so is a session's kv_block_rows = 0.
  runtime::KvCache cache;
  EXPECT_THROW(
      cache.configure(1, 2, 8, 4, 4, runtime::KvCacheOptions{.block_rows = 0}),
      std::invalid_argument);
  runtime::KvBlockPool pool;
  pool.configure(2, 2, 999);
  EXPECT_THROW(
      cache.configure(1, 2, 8, 4, 4,
                      runtime::KvCacheOptions{.block_rows = 0, .pool = &pool}),
      std::invalid_argument);
  const PagingFixture fx(4);
  EXPECT_THROW(runtime::GenerationSession(fx.acfg, fx.qd, nullptr,
                                          {.kv_block_rows = 0}),
               std::invalid_argument);

  // A pool whose row geometry does not match the stack is rejected.
  EXPECT_THROW(
      cache.configure(1, 2, 8, 4, 4,
                      runtime::KvCacheOptions{.block_rows = 2, .pool = &pool}),
      std::invalid_argument);

  // An unconfigured cache has no pool to swap or adopt through.
  std::vector<int8_t> spill;
  EXPECT_EQ(cache.swap_bytes(), 0u);
  EXPECT_THROW(cache.swap_out(spill), std::logic_error);
  EXPECT_THROW(cache.try_swap_in(spill, 0), std::logic_error);
  const uint32_t block = 0;
  EXPECT_THROW(cache.adopt_prefix({&block, 1}, 1), std::logic_error);
}

// --- paged == full recompute, bit for bit (the central invariant) -----------

/// Runs prefill(T rows) + decode-to-capacity on a paged session and
/// asserts every emitted state equals the matching row of ONE
/// full-recompute forward over the whole stream (the prompt rows, then
/// the decode inputs): causal attention makes row t depend only on rows
/// <= t. The session reads its prefix block-strided (QK/SV stream the
/// block table via span lists, softmax fused on the i32 accumulator),
/// so it streams span runs and never gathers.
void expect_matches_full_recompute(const PagingFixture& fx, size_t t_rows,
                                   size_t block_rows, uint64_t seed) {
  const auto prefix = random_input(t_rows, fx.cfg.d_model, seed);
  const auto tokens =
      random_input(fx.cfg.seq_len, fx.cfg.d_model, seed + 1);
  tensor::MatrixF stream = tokens;  // decode inputs at rows [T, seq_len)
  for (size_t r = 0; r < t_rows; ++r) {
    std::copy(prefix.row(r).begin(), prefix.row(r).end(),
              stream.row(r).begin());
  }
  runtime::WorkspaceArena ws;
  tensor::MatrixF full;
  runtime::decoder_forward_into(fx.qd, fx.acfg, stream, fx.memory, ws,
                                nullptr, full);

  accel::EngineStats stats;
  runtime::GenerationOptions opts;
  opts.kv_block_rows = block_rows;
  runtime::GenerationSession session(fx.acfg, fx.qd, &stats, opts);

  tensor::MatrixF states;
  session.prefill(prefix, fx.memory, states);
  ASSERT_EQ(states, full.slice_rows(0, t_rows))
      << "prefill T=" << t_rows << " bs=" << block_rows;

  tensor::MatrixF state;
  for (size_t t = t_rows; t < fx.cfg.seq_len; ++t) {
    session.decode_step(tokens.slice_rows(t, 1), state);
    ASSERT_EQ(state, full.slice_rows(t, 1))
        << "pos " << t << " T=" << t_rows << " bs=" << block_rows;
  }
  // The session held exactly ceil(rows / bs) blocks at the end.
  EXPECT_EQ(session.cache().block_table().size(),
            (fx.cfg.seq_len + block_rows - 1) / block_rows);
  EXPECT_GT(stats.span_runs, 0u);
  EXPECT_EQ(stats.gathered_bytes, 0u);
}

TEST(KvPaging, BoundaryStraddlingTriplesAreBitIdentical) {
  // Hand-picked edges: single-token blocks, prompts ending exactly on a
  // block boundary, one past it, one before it, a block larger than the
  // whole capacity, and a prompt filling capacity outright — at block
  // sizes 4/5 and at 3, which straddles everywhere (8 and 13 are not
  // multiples of 3).
  {
    PagingFixture fx(8, 210);
    expect_matches_full_recompute(fx, 5, 1, 300);   // single-token blocks
    expect_matches_full_recompute(fx, 4, 4, 301);   // prompt == boundary
    expect_matches_full_recompute(fx, 5, 4, 302);   // one past the boundary
    expect_matches_full_recompute(fx, 3, 4, 303);   // one before the boundary
    expect_matches_full_recompute(fx, 3, 16, 304);  // block > capacity
    expect_matches_full_recompute(fx, 8, 4, 305);   // prompt fills capacity
  }
  {
    PagingFixture fx(13, 211);  // capacity not a multiple of any block
    expect_matches_full_recompute(fx, 7, 4, 306);
    expect_matches_full_recompute(fx, 12, 5, 307);
  }
  {
    PagingFixture fx(8, 270);
    expect_matches_full_recompute(fx, 5, 1, 600);
    expect_matches_full_recompute(fx, 3, 3, 601);   // prompt == boundary
    expect_matches_full_recompute(fx, 4, 3, 602);   // one past it
    expect_matches_full_recompute(fx, 2, 3, 603);   // one before it
    expect_matches_full_recompute(fx, 5, 16, 604);  // block > capacity
  }
  {
    PagingFixture fx(13, 271);
    expect_matches_full_recompute(fx, 7, 3, 605);
    expect_matches_full_recompute(fx, 13, 3, 606);  // prompt fills capacity
  }
}

TEST(KvPaging, RandomizedTriplesAreBitIdentical) {
  // Fixed-seed randomized sweep over (T, capacity, block_size): the
  // paged layout must be invisible to the numerics for every shape.
  util::Xoshiro256 rng(220);
  const uint32_t capacities[] = {6, 9, 12, 16};
  const size_t block_sizes[] = {1, 2, 3, 5, 8};
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t cap =
        capacities[rng.next() % (sizeof(capacities) / sizeof(uint32_t))];
    const size_t bs =
        block_sizes[rng.next() % (sizeof(block_sizes) / sizeof(size_t))];
    const size_t t_rows = 1 + rng.next() % cap;
    PagingFixture fx(cap, 230 + trial);
    expect_matches_full_recompute(fx, t_rows, bs, 400 + trial * 10);
  }
}

TEST(KvPaging, SharedPoolInterleavedSequencesStayIsolated) {
  // Two sessions on ONE pool, decoding in lockstep: block tables
  // interleave in the pool, yet each sequence's states must match a
  // private-pool run bit for bit (no neighbor corruption).
  PagingFixture fx(12, 240);
  runtime::KvBlockPool pool;
  pool.configure(/*blocks=*/8, /*block_rows=*/3,
                 fx.cfg.num_layers * fx.cfg.num_heads * 2 *
                     fx.cfg.head_dim());

  runtime::GenerationOptions shared_opts;
  shared_opts.kv_block_rows = 3;
  shared_opts.kv_pool = &pool;
  runtime::GenerationSession a(fx.acfg, fx.qd, nullptr, shared_opts);
  runtime::GenerationSession b(fx.acfg, fx.qd, nullptr, shared_opts);
  runtime::GenerationSession solo(fx.acfg, fx.qd);

  const auto prefix_a = random_input(4, fx.cfg.d_model, 241);
  const auto prefix_b = random_input(2, fx.cfg.d_model, 242);
  const auto tokens = random_input(12, fx.cfg.d_model, 243);

  tensor::MatrixF sa, sb, ref_states;
  a.prefill(prefix_a, fx.memory, sa);
  b.prefill(prefix_b, fx.memory, sb);

  tensor::MatrixF stepped_a, stepped_b;
  std::vector<tensor::MatrixF> states_a, states_b;
  for (size_t t = 0; t < 6; ++t) {  // interleaved lockstep decode
    a.decode_step(tokens.slice_rows(t, 1), stepped_a);
    b.decode_step(tokens.slice_rows(t, 1), stepped_b);
    states_a.push_back(stepped_a);
    states_b.push_back(stepped_b);
  }
  EXPECT_GT(pool.used_blocks(), 0u);

  // Replay each sequence on a private session and compare.
  tensor::MatrixF ref_step;
  solo.prefill(prefix_a, fx.memory, ref_states);
  EXPECT_EQ(ref_states, sa);
  for (size_t t = 0; t < 6; ++t) {
    solo.decode_step(tokens.slice_rows(t, 1), ref_step);
    EXPECT_EQ(states_a[t], ref_step) << "seq a pos " << t;
  }
  solo.prefill(prefix_b, fx.memory, ref_states);
  EXPECT_EQ(ref_states, sb);
  for (size_t t = 0; t < 6; ++t) {
    solo.decode_step(tokens.slice_rows(t, 1), ref_step);
    EXPECT_EQ(states_b[t], ref_step) << "seq b pos " << t;
  }

  // end_sequence releases every held block back to the pool.
  a.end_sequence();
  b.end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(KvPaging, ExhaustedPoolThrowsInsteadOfCorrupting) {
  // A session decoding past what the shared pool can back must fail
  // loudly (KvBlockExhausted) — never overwrite a neighbor's rows.
  PagingFixture fx(12, 250);
  runtime::KvBlockPool pool;
  pool.configure(/*blocks=*/2, /*block_rows=*/2,
                 fx.cfg.num_layers * fx.cfg.num_heads * 2 *
                     fx.cfg.head_dim());
  runtime::GenerationOptions opts;
  opts.kv_block_rows = 2;
  opts.kv_pool = &pool;
  runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);

  const auto prefix = random_input(3, fx.cfg.d_model, 251);
  const auto token = random_input(1, fx.cfg.d_model, 252);
  tensor::MatrixF states, state;
  session.prefill(prefix, fx.memory, states);  // 2 blocks (4 rows)
  session.decode_step(token, state);           // row 4 fits the reservation
  EXPECT_THROW(session.decode_step(token, state),
               runtime::KvBlockExhausted);
  // The failed step reserved nothing and cached nothing.
  EXPECT_EQ(session.position(), 4u);
  EXPECT_EQ(pool.free_blocks(), 0u);
  session.end_sequence();
  EXPECT_EQ(pool.free_blocks(), 2u);
}

TEST(KvPaging, BlockReuseAfterReleaseIsBitIdentical) {
  // Blocks recycled through the free list must behave like fresh ones:
  // run a sequence, release, run a different sequence, compare against
  // an untouched session.
  PagingFixture fx(10, 260);
  runtime::GenerationOptions opts;
  opts.kv_block_rows = 2;
  runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);

  tensor::MatrixF states;
  session.prefill(random_input(9, fx.cfg.d_model, 261), fx.memory, states);
  const uint64_t fills_before = session.cache().pool()->zero_fills();
  session.end_sequence();
  // Releasing is cheap: blocks are only MARKED dirty, the scrub happens
  // lazily at the next hand-out (and exactly once per recycled block).
  EXPECT_EQ(session.cache().pool()->zero_fills(), fills_before);

  const auto prefix = random_input(4, fx.cfg.d_model, 262);
  const auto memory2 = random_input(5, fx.cfg.d_model, 263);
  tensor::MatrixF reused, fresh;
  session.prefill(prefix, memory2, reused);
  EXPECT_GT(session.cache().pool()->zero_fills(), fills_before);
  runtime::GenerationSession session2(fx.acfg, fx.qd, nullptr, opts);
  session2.prefill(prefix, memory2, fresh);
  EXPECT_EQ(reused, fresh);
}

// --- block-strided spans under copy-on-write forks --------------------------

TEST(KvPaging, ForkedTablesMidDivergenceReadOwnSpans) {
  // COW fork mid-decode, then divergent continuations: the forked
  // sibling's span lists must resolve through ITS block table — after
  // divergence the straddling block is privatized by the first write, so
  // the child must never observe the parent's post-fork rows (and vice
  // versa). Both lineages are checked against fresh solo replays.
  PagingFixture fx(14, 280);
  for (const size_t block_rows : {size_t{1}, size_t{3}}) {
    runtime::KvBlockPool pool;
    pool.configure(/*blocks=*/32, block_rows,
                   fx.cfg.num_layers * fx.cfg.num_heads * 2 *
                       fx.cfg.head_dim());
    runtime::GenerationOptions opts;
    opts.kv_block_rows = block_rows;
    opts.kv_pool = &pool;
    runtime::GenerationSession parent(fx.acfg, fx.qd, nullptr, opts);
    runtime::GenerationSession child(fx.acfg, fx.qd, nullptr, opts);

    const auto prompt = random_input(4, fx.cfg.d_model, 281);
    const auto shared_tok = random_input(3, fx.cfg.d_model, 282);
    const auto tok_p = random_input(7, fx.cfg.d_model, 283);
    const auto tok_c = random_input(7, fx.cfg.d_model, 284);

    // Prefill + 3 shared steps, then fork mid-block (position 7 with
    // block_rows 3 leaves a partially filled straddling block).
    tensor::MatrixF states, ps, cs, rs;
    parent.prefill(prompt, fx.memory, states);
    for (size_t t = 0; t < 3; ++t) {
      parent.decode_step(shared_tok.slice_rows(t, 1), ps);
    }
    child.fork_from(parent);

    // Interleave divergent steps so each lineage writes between the
    // other's reads.
    std::vector<tensor::MatrixF> parent_states, child_states;
    for (size_t t = 0; t < 7; ++t) {
      parent.decode_step(tok_p.slice_rows(t, 1), ps);
      child.decode_step(tok_c.slice_rows(t, 1), cs);
      parent_states.push_back(ps);
      child_states.push_back(cs);
    }

    // Solo replays of each full lineage are the ground truth.
    runtime::GenerationSession solo(fx.acfg, fx.qd);
    for (const bool is_child : {false, true}) {
      solo.prefill(prompt, fx.memory, states);
      for (size_t t = 0; t < 3; ++t) {
        solo.decode_step(shared_tok.slice_rows(t, 1), rs);
      }
      const auto& tok = is_child ? tok_c : tok_p;
      const auto& got = is_child ? child_states : parent_states;
      for (size_t t = 0; t < 7; ++t) {
        solo.decode_step(tok.slice_rows(t, 1), rs);
        EXPECT_EQ(got[t], rs)
            << (is_child ? "child" : "parent") << " pos " << t
            << " bs=" << block_rows;
      }
    }
    parent.end_sequence();
    child.end_sequence();
    EXPECT_EQ(pool.used_blocks(), 0u);
  }
}

// --- deterministic failpoints (traffic-engine fault injection) --------------

TEST(KvBlockPool, FailpointScheduleSkipsThenFailsThenDrains) {
  runtime::KvBlockPool pool;
  pool.configure(6, 2, 16);
  pool.inject_failures(2, 2);  // let 2 attempts through, fail the next 2

  std::vector<uint32_t> a, b, c;
  EXPECT_TRUE(pool.try_reserve(1, a));   // skip 1
  EXPECT_TRUE(pool.try_reserve(1, b));   // skip 2
  EXPECT_FALSE(pool.try_reserve(1, c));  // injected failure 1
  EXPECT_TRUE(c.empty());                // failed takes take NOTHING
  EXPECT_EQ(pool.failpoint_trips(), 1u);
  EXPECT_FALSE(pool.try_reserve(1, c));  // injected failure 2
  EXPECT_EQ(pool.failpoint_trips(), 2u);
  // Injected failures read as ordinary exhaustion to observers.
  EXPECT_EQ(pool.exhaustion_events(), 2u);

  // Schedule drained: the pool is healthy again without clear_failures().
  EXPECT_TRUE(pool.try_reserve(1, c));
  EXPECT_EQ(pool.failpoint_trips(), 2u);
  pool.release(a);
  pool.release(b);
  pool.release(c);
}

// --- preemption swap-out / swap-in at the cache level ------------------------

TEST(KvPaging, CacheSwapRoundTripPreservesBlockBytes) {
  runtime::KvBlockPool pool;
  pool.configure(6, 2, 8);
  runtime::KvCache cache;
  runtime::KvCacheOptions opts;
  opts.block_rows = 2;
  opts.pool = &pool;
  cache.configure(1, 1, 4, 8, 4, opts);  // row_bytes = 1*1*2*4 = 8
  cache.begin_sequence(2);
  ASSERT_TRUE(cache.try_reserve_rows(5));  // 3 blocks, tail half-filled

  // Stamp a distinct byte pattern across every held block (including
  // the unfilled tail rows — they must ride along unchanged).
  std::vector<int8_t> stamp;
  int v = 1;
  for (const uint32_t b : cache.block_table()) {
    for (size_t r = 0; r < pool.block_rows(); ++r) {
      int8_t* row = pool.row_data(b, r);
      for (size_t i = 0; i < pool.row_bytes(); ++i) {
        row[i] = static_cast<int8_t>(v++ & 0x7f);
        stamp.push_back(row[i]);
      }
    }
  }
  cache.append(5);

  EXPECT_EQ(cache.swap_bytes(), 3 * pool.block_bytes());
  std::vector<int8_t> spill;
  const size_t rows = cache.swap_out(spill);
  EXPECT_EQ(rows, 5u);
  ASSERT_EQ(spill.size(), stamp.size());
  EXPECT_EQ(spill, stamp);  // table-order spill is byte-exact
  EXPECT_EQ(pool.used_blocks(), 0u);
  EXPECT_EQ(cache.swap_bytes(), 0u);

  // Restore skips the lazy re-zero (the copy overwrites every byte).
  const uint64_t zero_fills_before = pool.zero_fills();
  ASSERT_TRUE(cache.try_swap_in(spill, rows));
  EXPECT_EQ(pool.zero_fills(), zero_fills_before);
  EXPECT_EQ(cache.len(), 5u);
  ASSERT_EQ(cache.block_table().size(), 3u);
  size_t off = 0;
  for (const uint32_t b : cache.block_table()) {
    EXPECT_EQ(std::memcmp(pool.row_data(b, 0), stamp.data() + off,
                          pool.block_bytes()),
              0);
    off += pool.block_bytes();
  }
  cache.release_blocks();

  // A spill that is not a whole block count, or rows beyond what the
  // blocks hold, is a caller bug.
  EXPECT_THROW(cache.try_swap_in(std::span<const int8_t>(spill).first(7), 5),
               std::invalid_argument);
  EXPECT_THROW(cache.try_swap_in(spill, 7), std::invalid_argument);
}

}  // namespace
}  // namespace protea

// Tests for the cross-request prefix cache (runtime/prefix_cache.hpp):
// bit-identity of adopted-prefix decoding against cold prefill across
// prefix lengths, block sizes, chunk sizes and COW forks; exact
// agreement of the executed MAC savings with the perf model
// (estimate_prefix_cache_savings); LRU eviction under pool pressure
// that never touches a live table; and pool drain after teardown —
// plus the shared-document fleet's hit counts and prefill cut, the
// closed-batch and traffic-engine integrations, and the seeded
// shared-prefix storm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/prefix_cache.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "traffic_fixture.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

using test::expect_same_traffic_stats;
using test::random_input;

ref::ModelConfig small_config() {
  ref::ModelConfig c;
  c.seq_len = 12;
  c.d_model = 48;
  c.num_heads = 4;
  c.num_layers = 2;
  c.activation = ref::Activation::kGelu;
  return c;
}

struct Fixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit Fixture(uint64_t seed = 90) {
    cfg = small_config();
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(6, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }

  size_t row_bytes() const {
    return cfg.num_layers * cfg.num_heads * 2 * cfg.head_dim();
  }
};

/// Feeds prompt rows [from, prompt.rows()) in `chunk`-row passes
/// (0 = one pass), accumulating the per-chunk outputs into `out` — the
/// schedule the traffic engine executes and the one
/// estimate_prefill_performance models.
void feed_chunks(runtime::GenerationSession& s, const tensor::MatrixF& prompt,
                 size_t from, size_t chunk, tensor::MatrixF& out) {
  tensor::MatrixF part;
  size_t pos = from;
  while (pos < prompt.rows()) {
    const size_t n =
        chunk == 0 ? prompt.rows() - pos : std::min(chunk, prompt.rows() - pos);
    s.prefill_rows(prompt.slice_rows(pos, n), part, nullptr);
    for (size_t r = 0; r < n; ++r) {
      std::copy(part.row(r).begin(), part.row(r).end(),
                out.row(pos + r).begin());
    }
    pos += n;
  }
}

// --- adoption bit-identity + exact modeled savings ---------------------------

TEST(PrefixCache, AdoptedDecodeBitIdenticalAndSavingsExact) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const auto tok0 = random_input(1, d, 101);
  const auto tok1 = random_input(1, d, 102);

  for (const size_t br : {size_t{2}, size_t{4}}) {
    for (const size_t chunk : {size_t{0}, size_t{1}, size_t{3}}) {
      for (const size_t plen : {size_t{3}, size_t{4}, size_t{7}, size_t{8}}) {
        SCOPED_TRACE("br=" + std::to_string(br) + " chunk=" +
                     std::to_string(chunk) + " plen=" + std::to_string(plen));
        const auto prompt = random_input(plen, d, 200 + plen);

        runtime::KvBlockPool pool;
        pool.configure(64, br, fx.row_bytes());
        runtime::PrefixCache cache;
        cache.configure(pool, br, d);
        const runtime::GenerationOptions opts{.kv_block_rows = br,
                                              .kv_pool = &pool,
                                              .prefill_chunk = chunk};

        // Dense-reference ground truth (private pool, one-shot prefill).
        runtime::GenerationSession ref_sess(fx.acfg, fx.qd);
        tensor::MatrixF ref_states, ref_d0, ref_d1;
        ref_sess.prefill(prompt, fx.memory, ref_states);
        ref_sess.decode_step(tok0, ref_d0);
        ref_sess.decode_step(tok1, ref_d1);

        // Cold paged run: miss path, then publish the finished prompt.
        accel::EngineStats cs;
        runtime::GenerationSession cold(fx.acfg, fx.qd, &cs, opts);
        const uint64_t cold0 = cs.macs;
        tensor::MatrixF cold_states(plen, d);
        cold.prefill_begin(fx.memory, nullptr);
        feed_chunks(cold, prompt, 0, chunk, cold_states);
        const uint64_t cold_prefill = cs.macs - cold0;
        cache.publish_cross(fx.memory, cold.cache());
        cold.publish_prefix(cache, prompt, fx.memory, cold_states);
        EXPECT_EQ(cold_states, ref_states);
        tensor::MatrixF cold_d0, cold_d1;
        cold.decode_step(tok0, cold_d0);
        cold.decode_step(tok1, cold_d1);
        EXPECT_EQ(cold_d0, ref_d0);
        EXPECT_EQ(cold_d1, ref_d1);
        cold.end_sequence();

        // Warm run: adoption must cover every full block but the tail.
        accel::EngineStats ws;
        runtime::GenerationSession warm(fx.acfg, fx.qd, &ws, opts);
        const uint64_t warm0 = ws.macs;
        tensor::MatrixF warm_states(plen, d);  // a miss leaves it untouched
        const size_t adopted =
            warm.prefill_begin_cached(cache, prompt, fx.memory, warm_states);
        EXPECT_EQ(adopted, (plen - 1) / br * br);
        feed_chunks(warm, prompt, adopted, chunk, warm_states);
        const uint64_t warm_prefill = ws.macs - warm0;
        EXPECT_EQ(warm_states, ref_states);
        tensor::MatrixF warm_d0, warm_d1;
        warm.decode_step(tok0, warm_d0);
        warm.decode_step(tok1, warm_d1);
        EXPECT_EQ(warm_d0, ref_d0);
        EXPECT_EQ(warm_d1, ref_d1);

        // Executed savings must match the perf model EXACTLY.
        accel::GenerationCosting costing;
        costing.prefill_chunk = static_cast<uint32_t>(chunk);
        costing.adopted_rows = static_cast<uint32_t>(adopted);
        costing.cross_cached = true;
        const accel::PrefixCacheSavings sv = accel::estimate_prefix_cache_savings(
            fx.acfg, fx.cfg, static_cast<uint32_t>(plen),
            static_cast<uint32_t>(fx.memory.rows()), costing);
        EXPECT_EQ(cold_prefill - warm_prefill, sv.macs_saved);
        EXPECT_EQ(sv.rows_skipped, adopted);
        EXPECT_EQ(sv.kv_bytes, adopted * pool.row_bytes());
        EXPECT_EQ(sv.cross_bytes, fx.cfg.num_layers * fx.cfg.num_heads * 2 *
                                      fx.memory.rows() * fx.cfg.head_dim());

        // The cache's own counters hold the same quantities (zero
        // adoptable blocks — e.g. plen <= br — is a counted miss, not a
        // hit).
        const runtime::PrefixCacheStats ps = cache.stats();
        EXPECT_EQ(ps.prefix_hits, adopted > 0 ? 1u : 0u);
        EXPECT_EQ(ps.prefix_misses, adopted > 0 ? 0u : 1u);
        EXPECT_EQ(ps.rows_adopted, adopted);
        EXPECT_EQ(ps.cross_hits, 1u);
        EXPECT_EQ(ps.bytes_adopted + ps.cross_bytes_reused,
                  sv.kv_bytes + sv.cross_bytes);

        // Teardown drains the pool completely.
        warm.end_sequence();
        cache.clear();
        EXPECT_EQ(pool.used_blocks(), 0u);
      }
    }
  }
}

TEST(PrefixCache, CrossOnlyReuseSavesExactlyTheProjection) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const size_t br = 4;
  runtime::KvBlockPool pool;
  pool.configure(32, br, fx.row_bytes());
  runtime::PrefixCache cache;
  cache.configure(pool, br, d);
  const runtime::GenerationOptions opts{.kv_block_rows = br, .kv_pool = &pool};

  const auto prompt_a = random_input(5, d, 301);
  const auto prompt_b = random_input(5, d, 302);  // differs from row 0

  accel::EngineStats cs;
  runtime::GenerationSession cold(fx.acfg, fx.qd, &cs, opts);
  const uint64_t cold0 = cs.macs;
  tensor::MatrixF states_a(5, d);
  cold.prefill_begin(fx.memory, nullptr);
  feed_chunks(cold, prompt_a, 0, 0, states_a);
  const uint64_t cold_prefill = cs.macs - cold0;
  cache.publish_cross(fx.memory, cold.cache());
  cold.end_sequence();

  // Same memory, unrelated prompt: cross hit, prefix miss.
  accel::EngineStats ws;
  runtime::GenerationSession warm(fx.acfg, fx.qd, &ws, opts);
  const uint64_t warm0 = ws.macs;
  tensor::MatrixF states_b(5, d);
  bool cross_hit = false;
  const size_t adopted = warm.prefill_begin_cached(cache, prompt_b, fx.memory,
                                                   states_b, nullptr,
                                                   &cross_hit);
  EXPECT_EQ(adopted, 0u);
  EXPECT_TRUE(cross_hit);
  feed_chunks(warm, prompt_b, 0, 0, states_b);
  const uint64_t warm_prefill = ws.macs - warm0;

  // The delta is exactly the one-time cross projection: 2 s d d per layer.
  const uint64_t s = fx.memory.rows();
  EXPECT_EQ(cold_prefill - warm_prefill,
            uint64_t{fx.cfg.num_layers} * 2 * s * d * d);
  EXPECT_EQ(cache.stats().cross_hits, 1u);
  EXPECT_EQ(cache.stats().prefix_misses, 1u);
  warm.end_sequence();
  cache.clear();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- COW fork divergence -----------------------------------------------------

TEST(PrefixCache, TwoAdoptersDivergeWithoutCorruption) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const size_t br = 2;
  runtime::KvBlockPool pool;
  pool.configure(64, br, fx.row_bytes());
  runtime::PrefixCache cache;
  cache.configure(pool, br, d);
  const runtime::GenerationOptions opts{.kv_block_rows = br, .kv_pool = &pool};

  const auto shared = random_input(6, d, 401);
  auto prompt_a = tensor::MatrixF(8, d);
  auto prompt_b = tensor::MatrixF(8, d);
  const auto tail_a = random_input(2, d, 402);
  const auto tail_b = random_input(2, d, 403);
  for (size_t r = 0; r < 6; ++r) {
    std::copy(shared.row(r).begin(), shared.row(r).end(),
              prompt_a.row(r).begin());
    std::copy(shared.row(r).begin(), shared.row(r).end(),
              prompt_b.row(r).begin());
  }
  for (size_t r = 0; r < 2; ++r) {
    std::copy(tail_a.row(r).begin(), tail_a.row(r).end(),
              prompt_a.row(6 + r).begin());
    std::copy(tail_b.row(r).begin(), tail_b.row(r).end(),
              prompt_b.row(6 + r).begin());
  }
  const auto tok = random_input(1, d, 404);

  // Seed the cache with prompt A.
  runtime::GenerationSession seeder(fx.acfg, fx.qd, nullptr, opts);
  tensor::MatrixF seed_states(8, d);
  seeder.prefill_begin(fx.memory, nullptr);
  feed_chunks(seeder, prompt_a, 0, 0, seed_states);
  cache.publish_cross(fx.memory, seeder.cache());
  seeder.publish_prefix(cache, prompt_a, fx.memory, seed_states);
  seeder.end_sequence();

  // Dense references for both prompts.
  runtime::GenerationSession ra(fx.acfg, fx.qd), rb(fx.acfg, fx.qd);
  tensor::MatrixF ref_a, ref_b, ref_da, ref_db;
  ra.prefill(prompt_a, fx.memory, ref_a);
  ra.decode_step(tok, ref_da);
  rb.prefill(prompt_b, fx.memory, ref_b);
  rb.decode_step(tok, ref_db);

  // Both adopters share the 6-row cached chain (A fully, B its shared
  // prefix), then diverge: decode must match each one's own cold run.
  runtime::GenerationSession sa(fx.acfg, fx.qd, nullptr, opts);
  runtime::GenerationSession sb(fx.acfg, fx.qd, nullptr, opts);
  tensor::MatrixF states_sa(8, d), states_sb(8, d);
  const size_t adopted_a =
      sa.prefill_begin_cached(cache, prompt_a, fx.memory, states_sa);
  const size_t adopted_b =
      sb.prefill_begin_cached(cache, prompt_b, fx.memory, states_sb);
  EXPECT_EQ(adopted_a, 6u);  // 3 blocks; tail rows 6..7 stay uncovered
  EXPECT_EQ(adopted_b, 6u);
  feed_chunks(sa, prompt_a, adopted_a, 1, states_sa);
  feed_chunks(sb, prompt_b, adopted_b, 1, states_sb);
  EXPECT_EQ(states_sa, ref_a);
  EXPECT_EQ(states_sb, ref_b);
  tensor::MatrixF da, db;
  sa.decode_step(tok, da);
  sb.decode_step(tok, db);
  EXPECT_EQ(da, ref_da);
  EXPECT_EQ(db, ref_db);

  sa.end_sequence();
  sb.end_sequence();
  cache.clear();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- eviction under pressure -------------------------------------------------

TEST(PrefixCache, ReclaimFreesOnlyColdBlocksAndNeverDeadlocks) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const size_t br = 2;
  runtime::KvBlockPool pool;
  pool.configure(8, br, fx.row_bytes());
  runtime::PrefixCache cache;
  cache.configure(pool, br, d);
  pool.set_reclaim_hook(
      [&cache](size_t want) { return cache.reclaim(want); });
  const runtime::GenerationOptions opts{.kv_block_rows = br, .kv_pool = &pool};

  const auto prompt_a = random_input(4, d, 501);
  const auto prompt_b = random_input(4, d, 502);
  const auto tok = random_input(1, d, 503);

  // Publish A and keep its session LIVE (blocks refcount 2).
  runtime::GenerationSession live(fx.acfg, fx.qd, nullptr, opts);
  tensor::MatrixF states_a(4, d);
  live.prefill_begin(fx.memory, nullptr);
  feed_chunks(live, prompt_a, 0, 0, states_a);
  cache.publish_cross(fx.memory, live.cache());
  live.publish_prefix(cache, prompt_a, fx.memory, states_a);
  tensor::MatrixF ref_step;
  {
    runtime::GenerationSession r(fx.acfg, fx.qd);
    tensor::MatrixF rs;
    r.prefill(prompt_a, fx.memory, rs);
    r.decode_step(tok, ref_step);
  }

  // Publish B and retire it: its 2 blocks stay cache-only (refcount 1).
  {
    runtime::GenerationSession s(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF states_b(4, d);
    s.prefill_begin(fx.memory, nullptr);
    feed_chunks(s, prompt_b, 0, 0, states_b);
    s.publish_prefix(cache, prompt_b, fx.memory, states_b);
    s.end_sequence();
  }
  // Pool: A live+cached = 2 blocks, B cached = 2, free = 4.
  EXPECT_EQ(pool.used_blocks(), 4u);
  EXPECT_EQ(cache.reclaimable_blocks(), 2u);

  // A 10-row newcomer needs 5 blocks > 4 free: the reserve must pull
  // B's two cold blocks through the reclaim hook — and must NOT touch
  // A's live-referenced blocks.
  runtime::GenerationSession big(fx.acfg, fx.qd, nullptr, opts);
  EXPECT_TRUE(big.try_reserve_rows(10));
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.reclaimable_blocks(), 0u);

  // The live adopter of A still decodes bit-identically.
  tensor::MatrixF step;
  live.decode_step(tok, step);
  EXPECT_EQ(step, ref_step);

  // A's chain survived (live reference pinned it): re-adoption still hits.
  big.end_sequence();
  runtime::GenerationSession again(fx.acfg, fx.qd, nullptr, opts);
  tensor::MatrixF states_again(4, d);
  EXPECT_EQ(again.prefill_begin_cached(cache, prompt_a, fx.memory,
                                       states_again),
            2u);  // 4-row prompt, 2-row blocks, tail block stays uncovered

  again.end_sequence();
  live.end_sequence();
  pool.set_reclaim_hook(nullptr);
  cache.clear();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- randomized property sweep ----------------------------------------------

TEST(PrefixCache, RandomizedSharedDocumentSweepStaysBitIdentical) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const size_t br = 2;
  runtime::KvBlockPool pool;
  pool.configure(48, br, fx.row_bytes());
  runtime::PrefixCache cache;
  cache.configure(pool, br, d);
  pool.set_reclaim_hook(
      [&cache](size_t want) { return cache.reclaim(want); });
  const runtime::GenerationOptions opts{.kv_block_rows = br, .kv_pool = &pool};

  const auto doc = random_input(fx.cfg.seq_len, d, 601);
  const auto tok = random_input(1, d, 602);
  util::Xoshiro256 rng(603);

  for (int iter = 0; iter < 24; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    // Prompts are document prefixes with a unique final row: rich radix
    // sharing, and every prompt strictly extends what it can adopt.
    const size_t plen = 2 + rng.next() % (fx.cfg.seq_len - 3);
    tensor::MatrixF prompt = doc.slice_rows(0, plen);
    const auto unique = random_input(1, d, 700 + iter);
    std::copy(unique.row(0).begin(), unique.row(0).end(),
              prompt.row(plen - 1).begin());
    const size_t chunk = rng.next() % 4;  // 0 = one pass

    runtime::GenerationSession ref_sess(fx.acfg, fx.qd);
    tensor::MatrixF ref_states, ref_step;
    ref_sess.prefill(prompt, fx.memory, ref_states);
    ref_sess.decode_step(tok, ref_step);

    runtime::GenerationSession s(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF states(plen, d);
    const size_t adopted =
        s.prefill_begin_cached(cache, prompt, fx.memory, states);
    ASSERT_LT(adopted, plen);
    feed_chunks(s, prompt, adopted, chunk, states);
    ASSERT_EQ(states, ref_states);
    tensor::MatrixF step;
    s.decode_step(tok, step);
    ASSERT_EQ(step, ref_step);
    s.publish_prefix(cache, prompt, fx.memory, states);
    s.end_sequence();

    if (iter % 5 == 4) cache.reclaim(1 + rng.next() % 3);
    ASSERT_EQ(cache.stats().blocks_held, pool.used_blocks());
  }
  pool.set_reclaim_hook(nullptr);
  cache.clear();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- shared-document fleet ---------------------------------------------------

TEST(PrefixCache, SharedDocumentFleetHitsForEveryLaterPromptAndCutsPrefill) {
  // Six prompts share one 12-row document (75% of each 16-row prompt)
  // over one memory. A cold pass prefills each on a private cache; the
  // warm pass routes them through one PrefixCache, so prompt 0 publishes
  // and prompts 1..5 adopt the document blocks and reuse the cached
  // cross projections: five prefix hits and five cross hits, with the
  // adopters' prefill MACs at least 2x below their cold runs.
  ref::ModelConfig cfg = small_config();
  cfg.seq_len = 32;
  cfg.d_model = 128;
  cfg.activation = ref::Activation::kRelu;
  const auto weights = ref::make_random_decoder_weights(cfg, 51);
  tensor::MatrixF memory(8, cfg.d_model);
  tensor::MatrixF calib(cfg.seq_len, cfg.d_model);
  util::Xoshiro256 rng(52);
  for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
  for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
  const auto qd = accel::prepare_decoder(weights, calib, memory);
  const accel::AccelConfig acfg;

  constexpr size_t kRequests = 6;
  constexpr size_t kDocRows = 12;
  constexpr size_t kPromptRows = 16;
  constexpr size_t kBlockRows = 4;
  constexpr size_t kChunk = 3;
  tensor::MatrixF doc(kDocRows, cfg.d_model);
  for (float& x : doc.flat()) x = static_cast<float>(rng.normal());
  std::vector<tensor::MatrixF> prompts;
  for (size_t i = 0; i < kRequests; ++i) {
    tensor::MatrixF p(kPromptRows, cfg.d_model);
    for (size_t r = 0; r < kDocRows; ++r) {
      std::copy(doc.row(r).begin(), doc.row(r).end(), p.row(r).begin());
    }
    for (size_t r = kDocRows; r < kPromptRows; ++r) {
      for (float& x : p.row(r)) x = static_cast<float>(rng.normal());
    }
    prompts.push_back(std::move(p));
  }

  std::vector<tensor::MatrixF> cold_states;
  std::vector<uint64_t> cold_macs;
  for (const tensor::MatrixF& prompt : prompts) {
    accel::EngineStats st;
    runtime::GenerationSession s(
        acfg, qd, &st, {.kv_block_rows = kBlockRows, .prefill_chunk = kChunk});
    const uint64_t before = st.macs;
    tensor::MatrixF states(kPromptRows, cfg.d_model);
    s.prefill_begin(memory, nullptr);
    feed_chunks(s, prompt, 0, kChunk, states);
    cold_macs.push_back(st.macs - before);
    cold_states.push_back(std::move(states));
    s.end_sequence();
  }

  runtime::KvBlockPool pool;
  pool.configure(64, kBlockRows,
                 cfg.num_layers * cfg.num_heads * 2 * cfg.head_dim());
  runtime::PrefixCache cache;
  cache.configure(pool, kBlockRows, cfg.d_model);
  size_t adopters = 0;
  uint64_t cold_adopter_macs = 0, warm_adopter_macs = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    accel::EngineStats st;
    runtime::GenerationSession s(acfg, qd, &st,
                                 {.kv_block_rows = kBlockRows,
                                  .kv_pool = &pool,
                                  .prefill_chunk = kChunk});
    const uint64_t before = st.macs;
    tensor::MatrixF states(kPromptRows, cfg.d_model);
    const size_t adopted =
        s.prefill_begin_cached(cache, prompts[i], memory, states);
    feed_chunks(s, prompts[i], adopted, kChunk, states);
    EXPECT_EQ(states, cold_states[i]) << "prompt " << i;
    if (adopted > 0) {
      ++adopters;
      cold_adopter_macs += cold_macs[i];
      warm_adopter_macs += st.macs - before;
    }
    s.publish_prefix(cache, prompts[i], memory, states);
    s.end_sequence();
  }
  const runtime::PrefixCacheStats ps = cache.stats();
  EXPECT_EQ(adopters, kRequests - 1);
  EXPECT_EQ(ps.prefix_hits, kRequests - 1);
  EXPECT_EQ(ps.cross_hits, kRequests - 1);
  EXPECT_GE(cold_adopter_macs, 2 * warm_adopter_macs);
  cache.clear();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- closed-batch integration ------------------------------------------------

runtime::GenerationRequest make_request(const tensor::MatrixF& prompt,
                                        const tensor::MatrixF& memory,
                                        uint32_t max_new) {
  runtime::GenerationRequest r;
  r.prefix = prompt;
  r.memory = &memory;
  r.max_new_tokens = max_new;
  r.next_token = [](std::span<const float> state, tensor::MatrixF& next) {
    if (next.rows() != 1 || next.cols() != state.size()) {
      next = tensor::MatrixF(1, state.size());
    }
    std::copy(state.begin(), state.end(), next.row(0).begin());
    return true;
  };
  return r;
}

TEST(PrefixCacheScheduler, CachedRunsBitIdenticalAndCount) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const auto doc = random_input(8, d, 801);
  std::vector<runtime::GenerationRequest> requests;
  for (int i = 0; i < 6; ++i) {
    const size_t plen = 4 + static_cast<size_t>(i) % 3;
    tensor::MatrixF prompt = doc.slice_rows(0, plen);
    const auto unique = random_input(1, d, 810 + i);
    std::copy(unique.row(0).begin(), unique.row(0).end(),
              prompt.row(plen - 1).begin());
    requests.push_back(make_request(prompt, fx.memory, 2));
  }

  runtime::TrafficEngine sched(fx.acfg, fx.qd);
  runtime::TrafficOptions off;
  off.slots = 3;
  off.prefill_chunk = 2;
  off.kv_block_rows = 2;
  off.kv_pool_blocks = 64;
  const auto baseline = sched.run(requests, off);

  runtime::TrafficOptions on = off;
  on.prefix_cache = true;
  const auto cached = sched.run(requests, on);
  ASSERT_EQ(cached.size(), baseline.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].states, baseline[i].states) << "request " << i;
    EXPECT_EQ(cached[i].steps, baseline[i].steps);
  }
  const runtime::SchedulerStats st = sched.last_run();
  EXPECT_GT(st.prefix_hits, 0u);
  EXPECT_GT(st.prefix_rows_adopted, 0u);
  EXPECT_GT(st.prefix_bytes_saved, 0u);
  EXPECT_GT(st.cross_kv_hits, 0u);

  // Threaded outputs stay bit-identical (hit/miss split may differ).
  on.threads = 3;
  const auto threaded = sched.run(requests, on);
  for (size_t i = 0; i < threaded.size(); ++i) {
    EXPECT_EQ(threaded[i].states, baseline[i].states) << "request " << i;
  }

  // kv_pool_blocks = 0 derives the pool (a full-capacity sequence per
  // seat); the cache works over it, bit-identically.
  runtime::TrafficOptions derived = on;
  derived.kv_pool_blocks = 0;
  const auto on_derived = sched.run(requests, derived);
  for (size_t i = 0; i < on_derived.size(); ++i) {
    EXPECT_EQ(on_derived[i].states, baseline[i].states) << "request " << i;
  }
}

// --- traffic-engine integration ----------------------------------------------

std::vector<runtime::TrafficRequest> storm_requests(
    const Fixture& fx, const std::vector<tensor::MatrixF>& prompts) {
  std::vector<runtime::TrafficRequest> reqs;
  for (size_t i = 0; i < prompts.size(); ++i) {
    runtime::TrafficRequest t;
    t.gen = make_request(prompts[i], fx.memory, 2);
    t.priority = static_cast<runtime::TrafficPriority>(i % 3);
    t.arrival_round = static_cast<uint32_t>(i / 2);
    reqs.push_back(std::move(t));
  }
  return reqs;
}

TEST(PrefixCacheTraffic, CachedTrafficBitIdenticalAndDeterministic) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const auto doc = random_input(8, d, 901);
  std::vector<tensor::MatrixF> prompts;
  for (int i = 0; i < 8; ++i) {
    const size_t plen = 4 + static_cast<size_t>(i) % 4;
    tensor::MatrixF prompt = doc.slice_rows(0, plen);
    const auto unique = random_input(1, d, 910 + i);
    std::copy(unique.row(0).begin(), unique.row(0).end(),
              prompt.row(plen - 1).begin());
    prompts.push_back(std::move(prompt));
  }
  const auto requests = storm_requests(fx, prompts);

  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions off;
  off.slots = 3;
  off.prefill_chunk = 2;
  off.kv_block_rows = 2;
  off.kv_pool_blocks = 64;  // ample: every request completes
  const auto baseline = engine.run(requests, off);

  runtime::TrafficOptions on = off;
  on.prefix_cache = true;
  const auto cached = engine.run(requests, on);
  runtime::SchedulerStats stepped = engine.last_run();
  ASSERT_EQ(cached.size(), baseline.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].outcome, runtime::TrafficOutcome::kCompleted);
    EXPECT_EQ(cached[i].states, baseline[i].states) << "request " << i;
  }
  EXPECT_GT(stepped.prefix_hits, 0u);
  EXPECT_GT(stepped.prefix_rows_adopted, 0u);
  EXPECT_GT(stepped.cross_kv_hits, 0u);

  // Threaded: outputs AND every prefix counter bit-identical (the cache
  // runs coordinator-side in both modes).
  on.threads = 3;
  const auto threaded = engine.run(requests, on);
  const runtime::SchedulerStats ts = engine.last_run();
  for (size_t i = 0; i < threaded.size(); ++i) {
    EXPECT_EQ(threaded[i].states, baseline[i].states) << "request " << i;
  }
  expect_same_traffic_stats(stepped, ts);
}

TEST(PrefixCacheTraffic, PressureWithCacheTerminatesAndStaysExact) {
  // Small pool + fault injection: admissions must reclaim cache blocks
  // (never deadlocking), preemption must fall back to recompute for
  // shared tables, and every completed output must stay bit-identical
  // to the unconstrained baseline.
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const auto doc = random_input(8, d, 951);
  std::vector<tensor::MatrixF> prompts;
  for (int i = 0; i < 10; ++i) {
    const size_t plen = 4 + static_cast<size_t>(i) % 4;
    tensor::MatrixF prompt = doc.slice_rows(0, plen);
    const auto unique = random_input(1, d, 960 + i);
    std::copy(unique.row(0).begin(), unique.row(0).end(),
              prompt.row(plen - 1).begin());
    prompts.push_back(std::move(prompt));
  }
  const auto requests = storm_requests(fx, prompts);

  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions easy;
  easy.slots = 2;
  easy.prefill_chunk = 2;
  easy.kv_block_rows = 2;
  easy.kv_pool_blocks = 64;
  const auto baseline = engine.run(requests, easy);

  runtime::TrafficOptions hard = easy;
  hard.slots = 3;
  hard.kv_pool_blocks = 14;  // forced contention
  hard.prefix_cache = true;
  hard.fail_skip = 6;
  hard.fail_count = 2;
  hard.stall_limit = 64;
  const auto stressed = engine.run(requests, hard);
  const runtime::SchedulerStats st = engine.last_run();
  size_t completed = 0;
  for (size_t i = 0; i < stressed.size(); ++i) {
    ASSERT_NE(stressed[i].outcome, runtime::TrafficOutcome::kPending);
    if (stressed[i].outcome == runtime::TrafficOutcome::kCompleted ||
        stressed[i].outcome == runtime::TrafficOutcome::kCompletedLate) {
      ++completed;
      EXPECT_EQ(stressed[i].states, baseline[i].states) << "request " << i;
    }
  }
  EXPECT_GT(completed, 0u);
  EXPECT_GT(st.prefix_hits + st.prefix_misses, 0u);

  // Threaded repeat of the same stress: stats identical except wall_ms.
  runtime::TrafficOptions hard_mt = hard;
  hard_mt.threads = 3;
  const auto stressed_mt = engine.run(requests, hard_mt);
  const runtime::SchedulerStats mt = engine.last_run();
  expect_same_traffic_stats(st, mt);
  for (size_t i = 0; i < stressed_mt.size(); ++i) {
    EXPECT_EQ(stressed_mt[i].outcome, stressed[i].outcome) << "request " << i;
    EXPECT_EQ(stressed_mt[i].states, stressed[i].states) << "request " << i;
  }
}

TEST(PrefixCacheTraffic, SeededSharedPrefixStormHoldsEveryInvariant) {
  // generate_trace's shared-prefix mode: every request opens with one of
  // four 8-row system prompts before its unique tail, served with the
  // prefix cache on over an undersized pool with failpoints armed.
  // Completed and cancelled bits match the solo references, the threaded
  // run reproduces the stepped one (prefix counters and trace included),
  // the cache fired, and adoption and reclaim never deadlock admission
  // while the pool stays under pressure.
  const test::StormModel hx;
  runtime::TraceConfig pcfg;
  pcfg.requests = 40;
  pcfg.mean_interarrival_rounds = 1.0;
  pcfg.burst_prob = 0.2;
  pcfg.burst_factor = 5.0;
  pcfg.heavy_tail_alpha = 1.1;
  pcfg.min_prompt = 1;  // unique tail rows; the 8 shared rows stack on top
  pcfg.max_prompt = 4;
  pcfg.min_new = 1;
  pcfg.max_new = 8;
  pcfg.sampled_fraction = 0.3;
  pcfg.beam_fraction = 0.0;
  pcfg.interactive_fraction = 0.25;
  pcfg.batch_fraction = 0.25;
  pcfg.deadline_fraction = 0.5;
  pcfg.deadline_slack = 0.8;
  pcfg.cancel_on_deadline_fraction = 0.1;
  pcfg.shared_prefix_count = 4;
  pcfg.shared_prefix_rows = 8;
  pcfg.seed = 20260808;
  const auto items = runtime::generate_trace(pcfg);
  const uint32_t shared = pcfg.shared_prefix_rows;
  const auto reference = test::solo_references(hx, items, shared);

  runtime::TrafficOptions popts;
  popts.slots = 5;
  popts.prefill_chunk = 2;
  popts.kv_block_rows = 4;
  popts.kv_pool_blocks = 16;  // live set + cached prefixes cannot all fit
  popts.recovery = runtime::PreemptionRecovery::kAuto;
  popts.swap_slots = 1;
  popts.shed_queue_depth = 6;
  popts.stall_limit = 64;
  popts.prefix_cache = true;
  popts.fail_skip = 20;
  popts.fail_count = 8;
  runtime::Telemetry tel_stepped, tel_threaded;
#ifdef PROTEA_TELEMETRY
  tel_stepped.configure();
  tel_threaded.configure();
#endif
  popts.telemetry = &tel_stepped;

  runtime::TrafficEngine engine(hx.acfg, hx.qd);
  auto stepped_built = test::build_storm_requests(hx, items, shared);
  const auto stepped = engine.run(stepped_built.reqs, popts);
  const runtime::SchedulerStats st = engine.last_run();
  ASSERT_EQ(stepped.size(), reference.size());
  size_t completed = 0, shed = 0;
  for (size_t i = 0; i < stepped.size(); ++i) {
    const runtime::TrafficResult& res = stepped[i];
    switch (res.outcome) {
      case runtime::TrafficOutcome::kCompleted:
      case runtime::TrafficOutcome::kCompletedLate:
        ++completed;
        EXPECT_EQ(res.steps, reference[i].steps) << "request " << i;
        EXPECT_EQ(res.states, reference[i].states) << "request " << i;
        break;
      case runtime::TrafficOutcome::kCancelled:
        ASSERT_LE(res.states.rows(), reference[i].states.rows());
        EXPECT_EQ(res.states, reference[i].states.slice_rows(
                                  0, res.states.rows()))
            << "request " << i;
        break;
      case runtime::TrafficOutcome::kShedOverload:
      case runtime::TrafficOutcome::kShedDeadline:
      case runtime::TrafficOutcome::kShedCapacity:
        ++shed;
        break;
      default:
        ADD_FAILURE() << "request " << i << " ended "
                      << runtime::traffic_outcome_name(res.outcome) << ": "
                      << res.shed_reason;
    }
  }

  runtime::TrafficOptions threaded_opts = popts;
  threaded_opts.threads = 4;
  threaded_opts.mha_slots = 2;
  threaded_opts.ffn_slots = 2;
  threaded_opts.telemetry = &tel_threaded;
  auto threaded_built = test::build_storm_requests(hx, items, shared);
  test::expect_same_results(stepped,
                            engine.run(threaded_built.reqs, threaded_opts));
  expect_same_traffic_stats(st, engine.last_run());

  EXPECT_GE(completed, 1u);
  EXPECT_GE(st.prefix_hits, 1u);
  EXPECT_GE(st.prefix_rows_adopted, 1u);
  EXPECT_GE(st.cross_kv_hits, 1u);
  EXPECT_GT(st.prefix_bytes_saved, 0u);
  EXPECT_GE(st.total(&runtime::TrafficClassStats::preemptions) + shed, 1u);
  EXPECT_GE(st.failpoint_trips, 1u);
#ifdef PROTEA_TELEMETRY
  // Adoption and publication are part of the deterministic virtual-time
  // sequence too.
  EXPECT_TRUE(runtime::virtual_equal(tel_stepped.trace.snapshot(),
                                     tel_threaded.trace.snapshot()));
  EXPECT_GE(tel_stepped.trace.count(runtime::TraceEventType::kPrefixAdopt),
            1u);
  EXPECT_GE(tel_stepped.trace.count(runtime::TraceEventType::kPrefixPublish),
            1u);
#endif
}

}  // namespace
}  // namespace protea

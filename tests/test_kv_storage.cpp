// Quantized KV-cache storage (numeric/fp8.hpp formats) property suite:
//
//   * byte-width regression sweep — every estimator that reports KV bytes
//     (estimate_kv_footprint, estimate_forked_kv_footprint,
//     estimate_preemption_cost, estimate_prefix_cache_savings, the
//     decode-step perf model's dequant traffic) must match the
//     bytes the runtime actually allocates and moves, for int8 AND every
//     quantized format — the "1 byte/element" assumptions this PR removed
//     can never silently come back;
//   * determinism of quantized paged decode: paged (read in place, fp4
//     included) == dense, byte-exact across COW forks, swap round trips,
//     prefix adoption and repeat runs — decode output depends only on
//     the storage choice, never on paging history;
//   * the mixed-format guards: a pool serving int8 and fp8 sequences has
//     IDENTICAL row widths for both, so adoption/forking across formats
//     must be refused by contract, not caught by geometry;
//   * fused LUT GEMM == decode-then-int8-GEMM, the identity the span
//     kernels' dequant fusion rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "numeric/fp8.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/prefix_cache.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

using numeric::KvStorage;

constexpr KvStorage kAllStorages[] = {KvStorage::kInt8, KvStorage::kFp8E4M3,
                                      KvStorage::kFp8E5M2,
                                      KvStorage::kFp4E2M1};
constexpr KvStorage kQuantStorages[] = {
    KvStorage::kFp8E4M3, KvStorage::kFp8E5M2, KvStorage::kFp4E2M1};

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

struct Fixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit Fixture(uint32_t seq_len = 12, uint64_t seed = 900) {
    cfg.seq_len = seq_len;
    cfg.d_model = 48;
    cfg.num_heads = 4;  // head_dim 12 — even, so fp4 packing is legal
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(6, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }

  /// KvCache/KvBlockPool row width at a storage format — the per-head
  /// form both use (layers x heads x 2 x stored head bytes).
  size_t row_bytes(KvStorage s) const {
    return cfg.num_layers * cfg.num_heads * 2 *
           numeric::kv_storage_bytes(cfg.head_dim(), s);
  }
};

// --- satellite: estimator bytes == runtime bytes, every format ---------------

TEST(KvStorageBytes, FootprintRowBytesMatchPoolGeometry) {
  Fixture fx;
  for (const KvStorage s : kAllStorages) {
    SCOPED_TRACE(numeric::kv_storage_name(s));
    const auto fp = accel::estimate_kv_footprint(fx.cfg, 7, 2, s);
    EXPECT_EQ(fp.row_bytes, fx.row_bytes(s));
    EXPECT_EQ(fp.blocks, 4u);
    EXPECT_EQ(fp.paged_bytes, 4u * 2 * fx.row_bytes(s));
    // The dense arena never packs (values round-trip in place), so its
    // reservation stays at the int8 width for every format.
    EXPECT_EQ(fp.dense_bytes,
              fx.row_bytes(KvStorage::kInt8) * fx.cfg.seq_len);

    const auto ffp = accel::estimate_forked_kv_footprint(fx.cfg, 5, 3, 2, 2, s);
    EXPECT_EQ(ffp.row_bytes, fx.row_bytes(s));

    // The session's private pool must carve rows of exactly this width.
    runtime::GenerationOptions opts;
    opts.kv_block_rows = 2;
    opts.kv_storage = s;
    runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF states;
    session.prefill(random_input(5, fx.cfg.d_model, 910), fx.memory, states);
    ASSERT_NE(session.cache().pool(), nullptr);
    EXPECT_EQ(session.cache().pool()->row_bytes(), fp.row_bytes);
    EXPECT_EQ(session.cache().pool()->block_bytes(), 2 * fp.row_bytes);
  }
  // The headline byte win: packed fp4 halves the int8/fp8 row width.
  EXPECT_EQ(fx.row_bytes(KvStorage::kFp8E4M3), fx.row_bytes(KvStorage::kInt8));
  EXPECT_EQ(fx.row_bytes(KvStorage::kFp4E2M1),
            fx.row_bytes(KvStorage::kInt8) / 2);
}

TEST(KvStorageBytes, DecodeStepModelInt8IsUntouchedAndQuantAddsDequant) {
  // int8 must be byte-identical to the pre-storage model (no new stage,
  // zero bytes); a quantized format adds ONLY the bytes-only kv_dequant
  // stage in strided mode — cycles and MACs never move with storage.
  Fixture fx;
  const uint32_t mem = static_cast<uint32_t>(fx.memory.rows());
  const auto base = accel::estimate_decode_step_performance(fx.acfg, fx.cfg,
                                                            6, mem);
  const auto int8 = accel::estimate_decode_step_performance(
      fx.acfg, fx.cfg, 6, mem, false, KvStorage::kInt8);
  EXPECT_EQ(int8.bytes_loaded, 0u);
  EXPECT_EQ(int8.total_cycles, base.total_cycles);
  EXPECT_EQ(int8.stages.size(), base.stages.size());

  for (const KvStorage s : kQuantStorages) {
    SCOPED_TRACE(numeric::kv_storage_name(s));
    const auto q = accel::estimate_decode_step_performance(fx.acfg, fx.cfg, 6,
                                                           mem, false, s);
    EXPECT_EQ(q.total_cycles, base.total_cycles);
    EXPECT_EQ(q.macs, base.macs);
    ASSERT_EQ(q.stages.size(), base.stages.size() + 1);
    const auto& dq = q.stages.back();
    EXPECT_EQ(dq.name, "kv_dequant");
    EXPECT_EQ(dq.total, 0u);
    const uint64_t kv_len = 7;  // pos 6 + the appended row
    EXPECT_EQ(dq.bytes_loaded,
              uint64_t{fx.cfg.num_heads} *
                  numeric::kv_storage_bytes(2 * kv_len * fx.cfg.head_dim(), s));
    EXPECT_EQ(q.bytes_loaded, dq.bytes_loaded * fx.cfg.num_layers);
  }
}

// --- paged == dense, deterministic, per format -------------------------------

TEST(KvStorageDecode, PagedMatchesDenseAcrossFormatsAndBlockSizes) {
  // A quantized format quantizes ONCE per stored element; dense (in-place
  // round-trip) and paged block-strided (LUT fused into the span reads,
  // per nibble for fp4) must see the same decoded values — bit-identical
  // outputs at every step, for every format, with no gathered bytes.
  Fixture fx(10);
  for (const KvStorage s : kQuantStorages) {
    for (const size_t br : {size_t{1}, size_t{3}, size_t{16}}) {
      SCOPED_TRACE(std::string(numeric::kv_storage_name(s)) + " br=" +
                   std::to_string(br));
      const auto prefix = random_input(4, fx.cfg.d_model, 930);
      const auto tokens = random_input(fx.cfg.seq_len, fx.cfg.d_model, 931);

      runtime::GenerationOptions dense_opts;
      dense_opts.kv_block_rows = 0;
      dense_opts.kv_storage = s;
      runtime::GenerationSession dense(fx.acfg, fx.qd, nullptr, dense_opts);

      accel::EngineStats strided_stats;
      runtime::GenerationOptions strided_opts;
      strided_opts.kv_block_rows = br;
      strided_opts.kv_storage = s;
      runtime::GenerationSession strided(fx.acfg, fx.qd, &strided_stats,
                                         strided_opts);

      tensor::MatrixF ds, ss;
      dense.prefill(prefix, fx.memory, ds);
      strided.prefill(prefix, fx.memory, ss);
      ASSERT_EQ(ss, ds);
      for (size_t t = prefix.rows(); t < fx.cfg.seq_len; ++t) {
        const auto token = tokens.slice_rows(t, 1);
        dense.decode_step(token, ds);
        strided.decode_step(token, ss);
        ASSERT_EQ(ss, ds) << "strided pos " << t;
      }
      // Every format streams the block table in place, codes decoded by
      // the GEMM kernels — zero gather traffic.
      EXPECT_EQ(strided_stats.gathered_bytes, 0u);
      EXPECT_GT(strided_stats.span_runs, 0u);
    }
  }
}

TEST(KvStorageDecode, RepeatRunsAreBitIdentical) {
  Fixture fx(10);
  for (const KvStorage s : kQuantStorages) {
    SCOPED_TRACE(numeric::kv_storage_name(s));
    const auto prefix = random_input(5, fx.cfg.d_model, 940);
    const auto tokens = random_input(fx.cfg.seq_len, fx.cfg.d_model, 941);
    std::vector<tensor::MatrixF> runs[2];
    for (int run = 0; run < 2; ++run) {
      runtime::GenerationOptions opts;
      opts.kv_block_rows = 2;
      opts.kv_storage = s;
      runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);
      tensor::MatrixF states;
      session.prefill(prefix, fx.memory, states);
      runs[run].push_back(states);
      for (size_t t = prefix.rows(); t < fx.cfg.seq_len; ++t) {
        session.decode_step(tokens.slice_rows(t, 1), states);
        runs[run].push_back(states);
      }
    }
    EXPECT_EQ(runs[0], runs[1]);
  }
}

// --- COW fork + swap round trip, per format ----------------------------------

TEST(KvStorageDecode, CowForkDivergenceBitIdenticalPerFormat) {
  Fixture fx(14);
  for (const KvStorage s : kQuantStorages) {
    SCOPED_TRACE(numeric::kv_storage_name(s));
    runtime::KvBlockPool pool;
    pool.configure(32, 3, fx.row_bytes(s));
    runtime::GenerationOptions opts;
    opts.kv_block_rows = 3;
    opts.kv_pool = &pool;
    opts.kv_storage = s;
    runtime::GenerationSession parent(fx.acfg, fx.qd, nullptr, opts);
    runtime::GenerationSession child(fx.acfg, fx.qd, nullptr, opts);

    const auto prompt = random_input(4, fx.cfg.d_model, 950);
    const auto shared_tok = random_input(3, fx.cfg.d_model, 951);
    const auto tok_p = random_input(7, fx.cfg.d_model, 952);
    const auto tok_c = random_input(7, fx.cfg.d_model, 953);

    tensor::MatrixF states, ps, cs, rs;
    parent.prefill(prompt, fx.memory, states);
    for (size_t t = 0; t < 3; ++t) {
      parent.decode_step(shared_tok.slice_rows(t, 1), ps);
    }
    child.fork_from(parent);  // mid-block: position 7, block_rows 3

    std::vector<tensor::MatrixF> parent_states, child_states;
    for (size_t t = 0; t < 7; ++t) {
      parent.decode_step(tok_p.slice_rows(t, 1), ps);
      child.decode_step(tok_c.slice_rows(t, 1), cs);
      parent_states.push_back(ps);
      child_states.push_back(cs);
    }

    runtime::GenerationOptions solo_opts;
    solo_opts.kv_block_rows = 3;
    solo_opts.kv_storage = s;
    runtime::GenerationSession solo(fx.acfg, fx.qd, nullptr, solo_opts);
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
            << (is_child ? "child" : "parent") << " pos " << t;
      }
      solo.end_sequence();
    }
  }
}

TEST(KvStorageSwap, RoundTripBitExactAndBytesMatchEstimator) {
  Fixture fx;
  for (const KvStorage s : kAllStorages) {
    SCOPED_TRACE(numeric::kv_storage_name(s));
    runtime::KvBlockPool pool;
    pool.configure(12, 2, fx.row_bytes(s));
    runtime::GenerationOptions opts;
    opts.kv_block_rows = 2;
    opts.kv_pool = &pool;
    opts.kv_storage = s;
    const size_t d = fx.cfg.d_model;
    const auto prompt = random_input(3, d, 960);
    constexpr size_t kSteps = 4;
    auto next_of = [d](const tensor::MatrixF& state) {
      tensor::MatrixF token(1, d);
      for (size_t c = 0; c < d; ++c) token(0, c) = 0.3f * state(0, c);
      return token;
    };

    runtime::GenerationSession ref(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF ref_prefill;
    ref.prefill(prompt, fx.memory, ref_prefill);
    std::vector<tensor::MatrixF> ref_states;
    tensor::MatrixF token(1, d);
    for (size_t c = 0; c < d; ++c) {
      token(0, c) = 0.3f * ref_prefill(ref_prefill.rows() - 1, c);
    }
    for (size_t t = 0; t < kSteps; ++t) {
      tensor::MatrixF state;
      ref.decode_step(token, state);
      ref_states.push_back(state);
      token = next_of(state);
    }

    runtime::GenerationSession victim(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF victim_prefill;
    victim.prefill(prompt, fx.memory, victim_prefill);
    ASSERT_EQ(victim_prefill, ref_prefill);
    for (size_t c = 0; c < d; ++c) {
      token(0, c) = 0.3f * victim_prefill(victim_prefill.rows() - 1, c);
    }
    for (size_t t = 0; t < 2; ++t) {
      tensor::MatrixF state;
      victim.decode_step(token, state);
      ASSERT_EQ(state, ref_states[t]);
      token = next_of(state);
    }

    // 5 cached rows, block_rows 2 -> 3 held blocks at the STORED width.
    std::vector<int8_t> spill;
    const size_t held_bytes = victim.swap_bytes();
    const size_t rows = victim.swap_out(spill);
    EXPECT_EQ(rows, prompt.rows() + 2);
    EXPECT_EQ(spill.size(), held_bytes);
    EXPECT_EQ(spill.size(), 3 * 2 * fx.row_bytes(s));
    // The preemption model's swap figure is exactly the executed spill
    // plus the restore — twice the held bytes, at the stored width.
    const auto cost = accel::estimate_preemption_cost(
        fx.acfg, fx.cfg, static_cast<uint32_t>(rows),
        static_cast<uint32_t>(fx.memory.rows()), 2, s);
    EXPECT_EQ(cost.swap_bytes, 2 * spill.size());

    victim.prefill_begin(fx.memory);
    ASSERT_TRUE(victim.try_swap_in(spill, rows));
    for (size_t t = 2; t < kSteps; ++t) {
      tensor::MatrixF state;
      victim.decode_step(token, state);
      ASSERT_EQ(state, ref_states[t]) << "post-restore step " << t;
      token = next_of(state);
    }
  }
}

// --- prefix cache: per-format adoption + the mixed-format guards -------------

TEST(KvStoragePrefix, AdoptionBitIdenticalAndSavingsExactPerFormat) {
  Fixture fx;
  const size_t d = fx.cfg.d_model;
  const auto tok0 = random_input(1, d, 970);
  const auto tok1 = random_input(1, d, 971);
  for (const KvStorage s : kQuantStorages) {
    SCOPED_TRACE(numeric::kv_storage_name(s));
    const size_t br = 2;
    const auto prompt = random_input(7, d, 972);

    runtime::KvBlockPool pool;
    pool.configure(64, br, fx.row_bytes(s));
    runtime::PrefixCache cache;
    cache.configure(pool, br, d, runtime::PrefixCache::Options{.storage = s});
    const runtime::GenerationOptions opts{
        .kv_block_rows = br, .kv_pool = &pool, .kv_storage = s};

    // Cold run publishes; warm adopts — decode after adoption must match
    // the cold sequence bit for bit (the same-format ground truth).
    runtime::GenerationSession cold(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF cold_states;
    cold.prefill_begin(fx.memory);
    cold.prefill_rows(prompt, cold_states);
    cache.publish_cross(fx.memory, cold.cache());
    cold.publish_prefix(cache, prompt, fx.memory, cold_states);
    tensor::MatrixF cold_d0, cold_d1;
    cold.decode_step(tok0, cold_d0);
    cold.decode_step(tok1, cold_d1);
    cold.end_sequence();

    accel::EngineStats ws;
    runtime::GenerationSession warm(fx.acfg, fx.qd, &ws, opts);
    tensor::MatrixF warm_states(prompt.rows(), d);
    const size_t adopted =
        warm.prefill_begin_cached(cache, prompt, fx.memory, warm_states);
    EXPECT_EQ(adopted, (prompt.rows() - 1) / br * br);
    tensor::MatrixF tail;
    warm.prefill_rows(
        prompt.slice_rows(adopted, prompt.rows() - adopted), tail);
    for (size_t r = 0; r < tail.rows(); ++r) {
      std::copy(tail.row(r).begin(), tail.row(r).end(),
                warm_states.row(adopted + r).begin());
    }
    EXPECT_EQ(warm_states, cold_states);
    tensor::MatrixF warm_d0, warm_d1;
    warm.decode_step(tok0, warm_d0);
    warm.decode_step(tok1, warm_d1);
    EXPECT_EQ(warm_d0, cold_d0);
    EXPECT_EQ(warm_d1, cold_d1);

    // Modeled savings count adopted rows at the STORED width — exactly
    // the runtime's prefix_bytes_saved accounting.
    accel::GenerationCosting costing;
    costing.adopted_rows = static_cast<uint32_t>(adopted);
    costing.cross_cached = true;
    costing.kv_storage = s;
    const auto sv = accel::estimate_prefix_cache_savings(
        fx.acfg, fx.cfg, static_cast<uint32_t>(prompt.rows()),
        static_cast<uint32_t>(fx.memory.rows()), costing);
    EXPECT_EQ(sv.kv_bytes, adopted * pool.row_bytes());
    EXPECT_EQ(sv.kv_bytes, adopted * fx.row_bytes(s));
    EXPECT_EQ(ws.prefix_rows_adopted, adopted);
    EXPECT_EQ(ws.prefix_bytes_saved, sv.kv_bytes + sv.cross_bytes);

    warm.end_sequence();
    cache.clear();
    EXPECT_EQ(pool.used_blocks(), 0u);
  }
}

TEST(KvStorageMixed, PoolSharedAcrossFormatsNeverCrossAdopts) {
  // int8 and fp8 rows are BOTH 1 byte/element, so a shared pool accepts
  // either format's sessions — geometry cannot catch a mix-up. The
  // prefix cache and fork path must refuse on the format tag itself.
  Fixture fx;
  runtime::KvBlockPool pool;
  pool.configure(64, 2, fx.row_bytes(KvStorage::kInt8));
  runtime::PrefixCache cache;
  cache.configure(pool, 2, fx.cfg.d_model,
                  runtime::PrefixCache::Options{.storage = KvStorage::kInt8});

  const auto prompt = random_input(5, fx.cfg.d_model, 980);
  runtime::GenerationOptions i8_opts{.kv_block_rows = 2, .kv_pool = &pool};
  runtime::GenerationOptions f8_opts = i8_opts;
  f8_opts.kv_storage = KvStorage::kFp8E4M3;

  // Seed the cache from a genuine int8 sequence.
  runtime::GenerationSession i8(fx.acfg, fx.qd, nullptr, i8_opts);
  tensor::MatrixF states;
  i8.prefill_begin(fx.memory);
  i8.prefill_rows(prompt, states);
  cache.publish_cross(fx.memory, i8.cache());
  i8.publish_prefix(cache, prompt, fx.memory, states);

  // An fp8 session on the SAME pool: every cache door is closed.
  runtime::GenerationSession f8(fx.acfg, fx.qd, nullptr, f8_opts);
  tensor::MatrixF f8_states;
  EXPECT_THROW(
      f8.prefill_begin_cached(cache, prompt, fx.memory, f8_states),
      std::logic_error);
  EXPECT_THROW(f8.prefill_begin_cross(cache, fx.memory), std::logic_error);
  f8.prefill_begin(fx.memory);
  f8.prefill_rows(prompt, f8_states);
  EXPECT_THROW(f8.publish_prefix(cache, prompt, fx.memory, f8_states),
               std::logic_error);

  // COW forks across formats are refused even over one pool.
  EXPECT_THROW(f8.fork_from(i8), std::invalid_argument);

  // A format with a DIFFERENT row width never even binds to the pool.
  runtime::GenerationOptions f4_opts = i8_opts;
  f4_opts.kv_storage = KvStorage::kFp4E2M1;
  EXPECT_THROW(runtime::GenerationSession(fx.acfg, fx.qd, nullptr, f4_opts),
               std::invalid_argument);

  f8.end_sequence();
  i8.end_sequence();
  cache.clear();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- fused LUT GEMM == decode-then-int8 reference ----------------------------

TEST(KvStorageGemm, LutGemmMatchesDecodeThenInt8) {
  const numeric::KvCodec* codec = numeric::kv_codec(KvStorage::kFp8E4M3);
  ASSERT_NE(codec, nullptr);
  const int8_t* lut = codec->decode.data();
  util::Xoshiro256 rng(990);
  const struct {
    size_t m, k, n;
  } shapes[] = {{1, 12, 7}, {5, 7, 9}, {13, 31, 17}, {1, 128, 96}, {4, 300, 8}};
  for (const auto& sh : shapes) {
    tensor::MatrixI8 a(sh.m, sh.k), codes(sh.k, sh.n), codes_t(sh.n, sh.k);
    for (auto& x : a.flat()) {
      x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
    }
    for (auto& x : codes.flat()) {
      x = static_cast<int8_t>(rng.bounded(256));  // raw fp8 code bytes
    }
    for (size_t r = 0; r < sh.k; ++r) {
      for (size_t c = 0; c < sh.n; ++c) codes_t(c, r) = codes(r, c);
    }
    tensor::MatrixI8 decoded(sh.k, sh.n), decoded_t(sh.n, sh.k);
    for (size_t i = 0; i < codes.size(); ++i) {
      decoded.data()[i] = lut[static_cast<uint8_t>(codes.data()[i])];
    }
    for (size_t i = 0; i < codes_t.size(); ++i) {
      decoded_t.data()[i] = lut[static_cast<uint8_t>(codes_t.data()[i])];
    }

    // The dense code matrices go in as one-run lists carrying the table.
    // The naive loop is the oracle: for m < 4 qgemm_into itself takes
    // the same direct path as the span entry points under test.
    const tensor::RowSpanI8 run{codes.data(), sh.k}, run_t{codes_t.data(),
                                                           sh.n};
    const tensor::RowSpanListI8 list{.runs = {&run, 1},
                                     .rows = sh.k,
                                     .cols = sh.n,
                                     .row_stride = sh.n,
                                     .decode = lut};
    const tensor::RowSpanListI8 list_t{.runs = {&run_t, 1},
                                       .rows = sh.n,
                                       .cols = sh.k,
                                       .row_stride = sh.k,
                                       .decode = lut};
    std::vector<int8_t> pack(tensor::qgemm_pack_elems(sh.n));
    tensor::MatrixI32 want, got(sh.m, sh.n);
    tensor::qgemm_naive(a, decoded, want);
    tensor::qgemm_spans_into(a, list, got, pack);
    EXPECT_EQ(got, want) << "m=" << sh.m << " k=" << sh.k << " n=" << sh.n;

    tensor::qgemm_bt_naive(a, decoded_t, want);
    tensor::qgemm_bt_spans_into(a, list_t, got, pack);
    EXPECT_EQ(got, want) << "bt m=" << sh.m << " k=" << sh.k << " n=" << sh.n;
  }
}

TEST(KvStorageGemm, SpanDecodeDispatchMatchesContiguous) {
  // A RowSpanListI8 with `decode` set must equal decoding the spanned
  // bytes into a contiguous matrix and multiplying that — the exact
  // contract KvCache::self_spans hands the QK/SV engines.
  const numeric::KvCodec* codec = numeric::kv_codec(KvStorage::kFp8E5M2);
  ASSERT_NE(codec, nullptr);
  util::Xoshiro256 rng(991);
  const size_t k = 10, n = 6, m = 3;
  tensor::MatrixI8 a(m, k), codes(k, n);
  for (auto& x : a.flat()) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  for (auto& x : codes.flat()) x = static_cast<int8_t>(rng.bounded(256));

  // Split the k rows into three runs to exercise the span cursor.
  const tensor::RowSpanI8 runs[] = {{codes.row(0).data(), 4},
                                    {codes.row(4).data(), 1},
                                    {codes.row(5).data(), 5}};
  tensor::RowSpanListI8 spans;
  spans.runs = runs;
  spans.rows = k;
  spans.cols = n;
  spans.row_stride = n;
  spans.decode = codec->decode.data();

  tensor::MatrixI8 decoded(k, n);
  for (size_t i = 0; i < codes.size(); ++i) {
    decoded.data()[i] = codec->decode[static_cast<uint8_t>(codes.data()[i])];
  }
  std::vector<int8_t> pack(tensor::qgemm_pack_elems(n));
  tensor::MatrixI32 want, got(m, n);
  // m = 3 is a small-M product, so qgemm_into would take the same direct
  // path as the span call under test; the naive loop is the oracle.
  tensor::qgemm_naive(a, decoded, want);
  tensor::qgemm_spans_into(a, spans, got, pack);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace protea

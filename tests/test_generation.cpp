// Tests for the KV-cached generation engine: bit-identity of incremental
// decoding against the full-recompute decoder path, the incremental
// cycle model's agreement with per-step execution, and the serving
// engine's continuous-batching admit/retire semantics for closed batches
// in both its stepped and threaded module-slot modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/decoder.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

using runtime::TrafficClassStats;

ref::ModelConfig small_config() {
  ref::ModelConfig c;
  c.seq_len = 12;  // max target length
  c.d_model = 48;
  c.num_heads = 4;
  c.num_layers = 2;
  c.activation = ref::Activation::kGelu;
  return c;
}

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

  explicit Fixture(uint64_t seed = 50) {
    cfg = small_config();
    const auto weights = ref::make_random_decoder_weights(cfg, seed);
    memory = random_input(8, cfg.d_model, seed + 1);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, seed + 2);
    qd = accel::prepare_decoder(weights, calib, memory);
  }
};

// --- bit-identity of the incremental path -----------------------------------

TEST(GenerationSession, PrefillMatchesFullRecomputeForward) {
  Fixture fx;
  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  const auto target = random_input(5, fx.cfg.d_model, 60);
  const auto expected = acc.forward(target, fx.memory);

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(target, fx.memory, states);
  EXPECT_EQ(states, expected);
  EXPECT_EQ(session.position(), 5u);
}

TEST(GenerationSession, DecodeStepsMatchFullRecomputeRows) {
  // Every decode_step state must equal the LAST row of a full-recompute
  // forward over the same prefix, bit for bit — the property that makes
  // KV-cached greedy decoding emit exactly the same tokens.
  Fixture fx;
  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  const auto rows =
      random_input(fx.cfg.seq_len, fx.cfg.d_model, 61);  // token stream

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(rows.slice_rows(0, 1), fx.memory, states);

  tensor::MatrixF state;
  for (size_t t = 1; t < fx.cfg.seq_len; ++t) {
    session.decode_step(rows.slice_rows(t, 1), state);
    const auto full = acc.forward(rows.slice_rows(0, t + 1), fx.memory);
    for (size_t c = 0; c < fx.cfg.d_model; ++c) {
      ASSERT_EQ(state(0, c), full(t, c)) << "position " << t;
    }
  }
  EXPECT_EQ(session.position(), fx.cfg.seq_len);
}

TEST(GenerationSession, GreedyDecodeEmitsIdenticalTokens) {
  // End-to-end greedy loop: argmax over a random vocabulary head, cached
  // vs full recompute — token sequences must be identical.
  Fixture fx;
  constexpr uint32_t kVocab = 32;
  const auto vocab = random_input(kVocab, fx.cfg.d_model, 62);
  const auto embed = random_input(kVocab, fx.cfg.d_model, 63);
  const auto embed_row = [&](uint32_t token) {
    tensor::MatrixF m(1, fx.cfg.d_model);
    for (size_t c = 0; c < fx.cfg.d_model; ++c) m(0, c) = embed(token, c);
    return m;
  };
  const auto embed_rows = [&](const std::vector<uint32_t>& tokens) {
    tensor::MatrixF m(tokens.size(), fx.cfg.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      for (size_t c = 0; c < fx.cfg.d_model; ++c) {
        m(r, c) = embed(tokens[r], c);
      }
    }
    return m;
  };
  const auto argmax = [&](std::span<const float> state) {
    uint32_t best = 0;
    double best_score = -1e300;
    for (uint32_t v = 0; v < kVocab; ++v) {
      double score = 0.0;
      for (size_t c = 0; c < state.size(); ++c) {
        score += static_cast<double>(vocab(v, c)) * state[c];
      }
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    return best;
  };

  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  std::vector<uint32_t> full_tokens = {0};
  for (uint32_t t = 1; t < fx.cfg.seq_len; ++t) {
    const auto states = acc.forward(embed_rows(full_tokens), fx.memory);
    full_tokens.push_back(argmax(states.row(states.rows() - 1)));
  }

  std::vector<uint32_t> cached_tokens = {0};
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states, state;
  session.prefill(embed_row(0), fx.memory, states);
  cached_tokens.push_back(argmax(states.row(0)));
  for (uint32_t t = 2; t < fx.cfg.seq_len; ++t) {
    session.decode_step(embed_row(cached_tokens.back()), state);
    cached_tokens.push_back(argmax(state.row(0)));
  }
  EXPECT_EQ(full_tokens, cached_tokens);
}

TEST(GenerationSession, SecondSequenceReusesStorageBitIdentically) {
  // begin_sequence recycles the cache: a second prefill over different
  // data must behave exactly like a fresh session's.
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states1, states2, fresh;
  session.prefill(random_input(7, fx.cfg.d_model, 64), fx.memory, states1);

  const auto target2 = random_input(4, fx.cfg.d_model, 65);
  const auto memory2 = random_input(6, fx.cfg.d_model, 66);
  session.prefill(target2, memory2, states2);
  runtime::GenerationSession session2(fx.acfg, fx.qd);
  session2.prefill(target2, memory2, fresh);
  EXPECT_EQ(states2, fresh);
  EXPECT_EQ(session.position(), 4u);
}

TEST(GenerationSession, AcceleratorWrapperMatchesSession) {
  Fixture fx;
  accel::ProteaDecoderAccelerator acc(fx.acfg);
  acc.load_model(fx.qd);
  const auto prefix = random_input(3, fx.cfg.d_model, 67);
  const auto token = random_input(1, fx.cfg.d_model, 68);

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states, state;
  session.prefill(prefix, fx.memory, states);
  session.decode_step(token, state);

  EXPECT_EQ(acc.generation_position(), 0u);
  EXPECT_EQ(acc.prefill(prefix, fx.memory), states);
  EXPECT_EQ(acc.decode_step(token), state);
  EXPECT_EQ(acc.generation_position(), 4u);
}

TEST(GenerationSession, ValidatesInputs) {
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  // decode before prefill
  EXPECT_THROW(
      session.decode_step(random_input(1, fx.cfg.d_model, 70), states),
      std::logic_error);
  // oversized prefix / memory, wrong widths
  EXPECT_THROW(session.prefill(random_input(20, fx.cfg.d_model, 71),
                               fx.memory, states),
               std::invalid_argument);
  EXPECT_THROW(
      session.prefill(random_input(4, 32, 72), fx.memory, states),
      std::invalid_argument);
  EXPECT_THROW(session.prefill(random_input(4, fx.cfg.d_model, 73),
                               random_input(200, fx.cfg.d_model, 74),
                               states),
               std::invalid_argument);
  // capacity exhaustion
  session.prefill(random_input(fx.cfg.seq_len, fx.cfg.d_model, 75),
                  fx.memory, states);
  EXPECT_THROW(
      session.decode_step(random_input(1, fx.cfg.d_model, 76), states),
      std::invalid_argument);
}

// --- chunked prefill --------------------------------------------------------

TEST(GenerationSession, ChunkedPrefillBitIdenticalToOneShot) {
  // Chunk sizes {1, 7, T-1, T} (T = 9) must all produce outputs
  // bit-identical to the one-shot pass: every op is row-wise and the
  // causal mask only looks backwards, so splitting the prompt into
  // bounded passes changes the schedule, not the numbers.
  Fixture fx;
  constexpr size_t kT = 9;
  const auto prefix = random_input(kT, fx.cfg.d_model, 150);

  runtime::GenerationSession one_shot(fx.acfg, fx.qd);
  tensor::MatrixF expected;
  one_shot.prefill(prefix, fx.memory, expected);

  for (size_t chunk : {size_t{1}, size_t{7}, kT - 1, kT}) {
    runtime::GenerationOptions opts;
    opts.prefill_chunk = chunk;
    runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, opts);
    tensor::MatrixF states;
    session.prefill(prefix, fx.memory, states);
    EXPECT_EQ(states, expected) << "chunk " << chunk;
    EXPECT_EQ(session.position(), kT) << "chunk " << chunk;

    // Decode after a chunked prefill must also match.
    tensor::MatrixF token = random_input(1, fx.cfg.d_model, 151);
    tensor::MatrixF state, expected_state;
    one_shot.decode_step(token, expected_state);
    session.decode_step(token, state);
    EXPECT_EQ(state, expected_state) << "chunk " << chunk;

    // Re-arm the one-shot session for the next chunk size.
    one_shot.prefill(prefix, fx.memory, expected);
  }
}

// --- incremental perf model vs executed schedule ----------------------------

TEST(GenerationPerf, PrefillMacsMatchExecution) {
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(random_input(6, fx.cfg.d_model, 80), fx.memory, states);
  const auto report = accel::estimate_decoder_performance(
      fx.acfg, fx.cfg, 6, static_cast<uint32_t>(fx.memory.rows()));
  EXPECT_EQ(session.stats().macs, report.macs);
}

TEST(GenerationPerf, DecodeStepMacsMatchExecutionPerStep) {
  // The incremental cycle model must match the executed schedule step by
  // step: each decode_step's EngineStats delta equals the model's MAC
  // count for that position.
  Fixture fx;
  runtime::GenerationSession session(fx.acfg, fx.qd);
  const auto mem_len = static_cast<uint32_t>(fx.memory.rows());
  tensor::MatrixF states, state;
  session.prefill(random_input(1, fx.cfg.d_model, 81), fx.memory, states);
  uint64_t before = session.stats().macs;
  for (uint32_t pos = 1; pos < fx.cfg.seq_len; ++pos) {
    session.decode_step(random_input(1, fx.cfg.d_model, 82 + pos), state);
    const uint64_t after = session.stats().macs;
    const auto step = accel::estimate_decode_step_performance(
        fx.acfg, fx.cfg, pos, mem_len);
    EXPECT_EQ(after - before, step.macs) << "position " << pos;
    before = after;
  }
}

TEST(GenerationPerf, BlockStridedDecodeMovesZeroGatherBytes) {
  // The block-strided default: paged decode streams K/V straight out of
  // the block table, so EngineStats must report ZERO gathered bytes
  // across prefill + a full decode-to-capacity, while span_runs counts
  // the block-table runs the span engines streamed.
  Fixture fx;
  accel::EngineStats stats;
  runtime::GenerationOptions opts;
  opts.kv_block_rows = 4;
  runtime::GenerationSession session(fx.acfg, fx.qd, &stats, opts);
  tensor::MatrixF states, state;
  session.prefill(random_input(3, fx.cfg.d_model, 90), fx.memory, states);
  for (uint32_t pos = 3; pos < fx.cfg.seq_len; ++pos) {
    session.decode_step(random_input(1, fx.cfg.d_model, 91 + pos), state);
  }
  EXPECT_EQ(stats.gathered_bytes, 0u);
  EXPECT_GT(stats.span_runs, 0u);
}

TEST(GenerationPerf, GenerationEstimateSumsPrefillAndSteps) {
  const accel::AccelConfig acfg;
  const ref::ModelConfig cfg = small_config();
  const auto total = accel::estimate_generation_performance(
      acfg, cfg, /*prefill_len=*/1, /*total_len=*/10, /*memory_len=*/8);
  hw::Cycles expected =
      accel::estimate_decoder_performance(acfg, cfg, 1, 8).total_cycles;
  for (uint32_t pos = 1; pos < 10; ++pos) {
    expected +=
        accel::estimate_decode_step_performance(acfg, cfg, pos, 8)
            .total_cycles;
  }
  EXPECT_EQ(total.total_cycles, expected);
  EXPECT_EQ(total.stage("decode_steps").invocations, 9u);
}

void expect_same_report(const accel::PerfReport& a,
                        const accel::PerfReport& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (size_t i = 0; i < a.stages.size(); ++i) {
    SCOPED_TRACE(a.stages[i].name);
    EXPECT_EQ(a.stages[i].name, b.stages[i].name);
    EXPECT_EQ(a.stages[i].invocations, b.stages[i].invocations);
    EXPECT_EQ(a.stages[i].compute, b.stages[i].compute);
    EXPECT_EQ(a.stages[i].total, b.stages[i].total);
    EXPECT_EQ(a.stages[i].bytes_loaded, b.stages[i].bytes_loaded);
  }
  EXPECT_EQ(a.layer_cycles, b.layer_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.fmax_mhz, b.fmax_mhz);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.gops, b.gops);
  EXPECT_EQ(a.dsp_utilization, b.dsp_utilization);
  EXPECT_EQ(a.bytes_loaded, b.bytes_loaded);
}

TEST(GenerationPerf, ScheduleShapesAgreeStageByStage) {
  // The decoder estimators are all one stack pass repeated: a full
  // forward is a one-pass prefill, a cross-cached prefill in 1-row
  // chunks is the run of decode steps over the same positions, and a
  // generation's decode phase streams exactly its steps' dequant bytes.
  ref::ModelConfig wide = small_config();
  wide.seq_len = 80;  // spans past sl_unroll
  wide.d_model = 512;
  wide.num_heads = 4;  // head_dim 128 > head_dim_max: two QK passes
  wide.num_layers = 3;
  const std::pair<ref::ModelConfig, uint32_t> shapes[] = {
      {small_config(), 8}, {wide, 70}};
  for (const auto padding : {accel::PaddingPolicy::kSynthFixedRows,
                             accel::PaddingPolicy::kRuntimeAdaptive}) {
    accel::AccelConfig acfg;
    acfg.padding = padding;
    for (const auto& [cfg, mem] : shapes) {
      SCOPED_TRACE(cfg.d_model);
      const uint32_t t_len = cfg.seq_len;
      for (const uint32_t t : {1u, t_len / 2, t_len}) {
        expect_same_report(
            accel::estimate_decoder_performance(acfg, cfg, t, mem),
            accel::estimate_prefill_performance(acfg, cfg, t, mem));
      }

      const uint32_t adopted = 3;
      accel::GenerationCosting rowwise;
      rowwise.prefill_chunk = 1;
      rowwise.adopted_rows = adopted;
      rowwise.cross_cached = true;
      const auto chunked =
          accel::estimate_prefill_performance(acfg, cfg, t_len, mem, rowwise);
      std::vector<accel::StageTiming> summed;
      uint64_t step_macs = 0;
      for (uint32_t pos = adopted; pos < t_len; ++pos) {
        const auto step =
            accel::estimate_decode_step_performance(acfg, cfg, pos, mem);
        summed.resize(step.stages.size());
        for (size_t i = 0; i < step.stages.size(); ++i) {
          summed[i].name = step.stages[i].name;
          summed[i].invocations += step.stages[i].invocations;
          summed[i].compute += step.stages[i].compute;
          summed[i].total += step.stages[i].total;
        }
        step_macs += step.macs;
      }
      ASSERT_EQ(chunked.stages.size(), summed.size());
      for (size_t i = 0; i < summed.size(); ++i) {
        SCOPED_TRACE(summed[i].name);
        EXPECT_EQ(chunked.stages[i].name, summed[i].name);
        EXPECT_EQ(chunked.stages[i].invocations, summed[i].invocations);
        EXPECT_EQ(chunked.stages[i].compute, summed[i].compute);
        EXPECT_EQ(chunked.stages[i].total, summed[i].total);
      }
      EXPECT_EQ(chunked.macs, step_macs);

      for (const auto storage :
           {numeric::KvStorage::kFp8E4M3, numeric::KvStorage::kFp8E5M2,
            numeric::KvStorage::kFp4E2M1}) {
        SCOPED_TRACE(numeric::kv_storage_name(storage));
        accel::GenerationCosting costing;
        costing.kv_storage = storage;
        const uint32_t prefill_len = 2;
        const auto gen = accel::estimate_generation_performance(
            acfg, cfg, prefill_len, t_len, mem, costing);
        uint64_t step_bytes = 0;
        for (uint32_t pos = prefill_len; pos < t_len; ++pos) {
          step_bytes += accel::estimate_decode_step_performance(
                            acfg, cfg, pos, mem, false, storage)
                            .bytes_loaded;
        }
        EXPECT_GT(step_bytes, 0u);
        EXPECT_EQ(gen.stage("decode_steps").bytes_loaded, step_bytes);
        EXPECT_EQ(gen.bytes_loaded, step_bytes);
      }
    }
  }
}

TEST(GenerationPerf, CachedGenerationBeatsFullRecompute) {
  // The acceptance bar: at the max target length the KV-cached schedule
  // must do measurably less total work than the naive controller.
  const accel::AccelConfig acfg;
  ref::ModelConfig cfg = small_config();
  cfg.seq_len = 128;
  cfg.d_model = 768;
  cfg.num_heads = 8;
  cfg.num_layers = 6;
  hw::Cycles full = 0;
  uint64_t full_macs = 0;
  for (uint32_t t = 1; t <= 128; ++t) {
    const auto r =
        accel::estimate_decoder_performance(acfg, cfg, t, 64);
    full += r.total_cycles;
    full_macs += r.macs;
  }
  const auto cached =
      accel::estimate_generation_performance(acfg, cfg, 1, 128, 64);
  EXPECT_LT(cached.total_cycles * 4, full);  // >4x cycle win
  EXPECT_LT(cached.macs * 10, full_macs);    // >10x MAC win
}

TEST(GenerationPerf, StepModelValidatesArguments) {
  const accel::AccelConfig acfg;
  const ref::ModelConfig cfg = small_config();
  EXPECT_THROW(
      accel::estimate_decode_step_performance(acfg, cfg, cfg.seq_len, 8),
      std::invalid_argument);
  EXPECT_THROW(accel::estimate_decode_step_performance(acfg, cfg, 1, 0),
               std::invalid_argument);
  // The gather read path is gone; its compatibility flag must stay false.
  EXPECT_THROW(accel::estimate_decode_step_performance(
                   acfg, cfg, 1, 8, /*kv_gather_fallback=*/true),
               std::invalid_argument);
  EXPECT_THROW(
      accel::estimate_generation_performance(acfg, cfg, 0, 8, 8),
      std::invalid_argument);
  EXPECT_THROW(
      accel::estimate_generation_performance(acfg, cfg, 9, 8, 8),
      std::invalid_argument);
}

// --- continuous batching of closed batches -----------------------------------

runtime::GenerationRequest make_request(const Fixture& fx, uint64_t seed,
                                        uint32_t max_new) {
  runtime::GenerationRequest req;
  req.prefix = random_input(1, fx.cfg.d_model, seed);
  req.memory = &fx.memory;
  req.max_new_tokens = max_new;
  const uint32_t d = fx.cfg.d_model;
  req.next_token = [d](std::span<const float> state,
                       tensor::MatrixF& next) {
    // Deterministic pure function of the state: feed a scaled copy back.
    if (next.rows() != 1 || next.cols() != d) {
      next = tensor::MatrixF(1, d);
    }
    for (size_t c = 0; c < d; ++c) next(0, c) = 0.5f * state[c];
    return true;
  };
  return req;
}

TEST(ClosedBatch, MatchesIndividualSessions) {
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  for (uint64_t i = 0; i < 5; ++i) {
    requests.push_back(make_request(fx, 90 + i, 4 + i % 3));
  }
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions opts;
  opts.slots = 2;
  const auto results = engine.run(requests, opts);
  ASSERT_EQ(results.size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    runtime::GenerationSession session(fx.acfg, fx.qd);
    tensor::MatrixF states, state, next;
    session.prefill(requests[i].prefix, fx.memory, states);
    std::vector<tensor::MatrixF> rows = {states};
    requests[i].next_token(states.row(0), next);
    for (uint32_t t = 0; t < requests[i].max_new_tokens; ++t) {
      session.decode_step(next, state);
      rows.push_back(state);
      requests[i].next_token(state.row(0), next);
    }
    ASSERT_EQ(results[i].states.rows(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < fx.cfg.d_model; ++c) {
        ASSERT_EQ(results[i].states(r, c), rows[r](0, c))
            << "request " << i << " row " << r;
      }
    }
    EXPECT_EQ(results[i].steps, requests[i].max_new_tokens);
  }
}

TEST(ClosedBatch, ShortSequencesFreeSlotsForPending) {
  // Continuous batching: with 2 slots and lengths {7,2,2,2}, the short
  // sequences hand their slot to the queue while the long one keeps
  // decoding — 9 rounds total (an admitting round runs only the prefill
  // unit). A batch-barrier scheduler (waves of 2) would need
  // (1 + max(7,2)) + (1 + max(2,2)) = 11.
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  const uint32_t lengths[] = {7, 2, 2, 2};
  for (uint64_t i = 0; i < 4; ++i) {
    requests.push_back(make_request(fx, 100 + i, lengths[i]));
  }
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions opts;
  opts.slots = 2;
  const auto results = engine.run(requests, opts);

  const auto& stats = engine.last_run();
  EXPECT_EQ(stats.rounds, 9u);
  EXPECT_EQ(stats.total(&TrafficClassStats::completed), 4u);
  EXPECT_EQ(stats.decode_steps, 7u + 2 + 2 + 2);
  EXPECT_EQ(stats.max_active, 2u);
  // Slot handoff order: r1 retires at round 2, r2 admitted at round 3,
  // retires at 5; r3 admitted at 6; the long r0 retires at 7 and r3
  // last, at 8.
  EXPECT_EQ(results[0].admitted_round, 0u);
  EXPECT_EQ(results[0].retired_round, 7u);
  EXPECT_EQ(results[1].admitted_round, 0u);
  EXPECT_EQ(results[1].retired_round, 2u);
  EXPECT_EQ(results[2].admitted_round, 3u);
  EXPECT_EQ(results[2].retired_round, 5u);
  EXPECT_EQ(results[3].admitted_round, 6u);
  EXPECT_EQ(results[3].retired_round, 8u);
}

TEST(ClosedBatch, EarlyEosRetiresImmediately) {
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  requests.push_back(make_request(fx, 110, 6));
  // Second request stops via callback after 2 steps.
  requests.push_back(make_request(fx, 111, 6));
  auto inner = requests[1].next_token;
  auto count = std::make_shared<int>(0);
  requests[1].next_token = [inner, count](std::span<const float> state,
                                          tensor::MatrixF& next) {
    if (++*count > 2) return false;
    return inner(state, next);
  };
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions opts;
  opts.slots = 2;
  const auto results = engine.run(requests, opts);
  EXPECT_EQ(results[0].steps, 6u);
  EXPECT_EQ(results[1].steps, 2u);
  EXPECT_EQ(results[1].states.rows(), 3u);  // prefix + 2 steps
}

TEST(ClosedBatch, ThreadedMatchesStepped) {
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  for (uint64_t i = 0; i < 6; ++i) {
    requests.push_back(make_request(fx, 120 + i, 3 + i % 4));
  }
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions stepped;
  stepped.slots = 3;
  const auto expected = engine.run(requests, stepped);

  runtime::TrafficOptions threaded;
  threaded.slots = 3;
  threaded.threads = 3;
  threaded.mha_slots = 1;  // the paper's single two-stage accelerator
  threaded.ffn_slots = 1;
  const auto results = engine.run(requests, threaded);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].states, expected[i].states) << "request " << i;
    EXPECT_EQ(results[i].steps, expected[i].steps);
  }
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::completed),
            requests.size());
}

TEST(ClosedBatch, ChunkedPrefillAdmissionMatchesOneShot) {
  // The stepped engine with chunked-prefill admission (one chunk per
  // round) must emit token-for-token identical results, while
  // executing more prefill passes than prompts.
  Fixture fx;
  std::vector<runtime::GenerationRequest> requests;
  for (uint64_t i = 0; i < 4; ++i) {
    auto req = make_request(fx, 160 + i, 3);
    req.prefix = random_input(5 + i % 3, fx.cfg.d_model, 170 + i);
    requests.push_back(std::move(req));
  }
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  runtime::TrafficOptions opts;
  opts.slots = 2;
  const auto expected = engine.run(requests, opts);

  opts.prefill_chunk = 2;
  const auto results = engine.run(requests, opts);
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].states, expected[i].states) << "request " << i;
    EXPECT_EQ(results[i].steps, expected[i].steps);
  }
  EXPECT_GT(engine.last_run().prefill_chunks,
            engine.last_run().total(&TrafficClassStats::completed));
}

// --- capacity-edge regression (KvCache over-reservation fix) ----------------

TEST(ClosedBatch, PromptFillingCapacityStillDecodesFirstToken) {
  // Regression: a prompt of exactly seq_len rows used to be rejected for
  // max_new_tokens = 1 even though the first generated token is emitted
  // from the last prefill state and its embedding is never fed back —
  // the cache needs no extra row for it.
  Fixture fx;
  auto req = make_request(fx, 180, 1);
  req.prefix = random_input(fx.cfg.seq_len, fx.cfg.d_model, 181);
  auto emitted = std::make_shared<int>(0);
  const auto inner = req.next_token;
  req.next_token = [inner, emitted](std::span<const float> state,
                                    tensor::MatrixF& next) {
    ++*emitted;
    return inner(state, next);
  };

  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  const std::vector<runtime::GenerationRequest> requests = {req};
  const auto results = engine.run(requests);
  EXPECT_EQ(*emitted, 1);  // the first token WAS decoded
  // Its state row cannot be cached (position == capacity), so no decode
  // step ran and the states are exactly the prefill states.
  EXPECT_EQ(results[0].steps, 0u);
  EXPECT_EQ(results[0].states.rows(), static_cast<size_t>(fx.cfg.seq_len));

  runtime::GenerationSession session(fx.acfg, fx.qd);
  tensor::MatrixF states;
  session.prefill(req.prefix, fx.memory, states);
  EXPECT_EQ(results[0].states, states);
}

TEST(ClosedBatch, CapacityEdgeStopsDecodeWithoutOverflow) {
  // prefix + max_new == seq_len + 1: the run must stop at the capacity
  // instead of throwing from decode_step — seq_len - prefix steps, all
  // seq_len token emissions served.
  Fixture fx;
  const std::vector<runtime::GenerationRequest> requests = {
      make_request(fx, 185, fx.cfg.seq_len)};  // prefix rows = 1
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  const auto results = engine.run(requests);
  EXPECT_EQ(results[0].steps, static_cast<uint32_t>(fx.cfg.seq_len - 1));
  EXPECT_EQ(results[0].states.rows(), static_cast<size_t>(fx.cfg.seq_len));
}

TEST(ClosedBatch, ValidatesRequests) {
  Fixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  std::vector<runtime::GenerationRequest> requests;
  requests.push_back(make_request(fx, 130, 4));
  requests[0].memory = nullptr;
  EXPECT_THROW(engine.run(requests), std::invalid_argument);

  requests[0] = make_request(fx, 131, 4);
  // prefix + max > seq_len + 1 (the +1 edge is legal: the final token's
  // embedding is never appended, see PromptFillingCapacity* below).
  requests[0].max_new_tokens = fx.cfg.seq_len + 1;
  EXPECT_THROW(engine.run(requests), std::invalid_argument);

  requests[0] = make_request(fx, 132, 4);
  requests[0].next_token = nullptr;
  EXPECT_THROW(engine.run(requests), std::invalid_argument);

  // A prompt longer than seq_len is rejected up front even when it asks
  // for no tokens, before the KV layer could see it mid-run.
  requests[0] = make_request(fx, 134, 0);
  requests[0].prefix = random_input(fx.cfg.seq_len + 1, fx.cfg.d_model, 134);
  try {
    engine.run(requests);
    ADD_FAILURE() << "an oversized prompt was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("traffic request", 0), 0u)
        << e.what();
  }

  requests[0] = make_request(fx, 133, 4);
  runtime::TrafficOptions opts;
  opts.slots = 0;
  EXPECT_THROW(engine.run(requests, opts), std::invalid_argument);
}

}  // namespace
}  // namespace protea

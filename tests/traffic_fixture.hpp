// Traffic-engine fixtures shared by the serving suites (test_traffic,
// test_telemetry, test_prefix_cache):
//
//   * TrafficFixture + make_gen_request / build_mix: a small decoder and
//     hand-built request mixes whose next_token is a pure function of the
//     state (no vocabulary);
//   * StormModel + build_storm_requests: a decoder with a random
//     vocabulary, so a seeded runtime::generate_trace() becomes
//     TokenStream-driven requests (greedy and sampled policies), plus the
//     solo references and the stepped == threaded comparisons the storm
//     tests grade against.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

namespace protea::test {

inline tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

struct TrafficFixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;

  explicit TrafficFixture(uint64_t seed = 500) {
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

  size_t kv_row_bytes() const {
    return cfg.num_layers * cfg.num_heads * 2 * cfg.head_dim();
  }
};

/// Deterministic pure token policy: feed a scaled copy of the newest
/// state back as the next embedding. `eos_after` >= 0 finishes early
/// after that many invocations (the countdown is per-request state, so
/// requests must be rebuilt fresh for every run).
inline runtime::GenerationRequest make_gen_request(const TrafficFixture& fx,
                                                   size_t prefix_rows,
                                                   uint32_t max_new,
                                                   float scale, int eos_after,
                                                   uint64_t seed) {
  runtime::GenerationRequest req;
  req.prefix = random_input(prefix_rows, fx.cfg.d_model, seed);
  req.memory = &fx.memory;
  req.max_new_tokens = max_new;
  const uint32_t d = fx.cfg.d_model;
  auto countdown = std::make_shared<int>(eos_after);
  req.next_token = [d, scale, countdown](std::span<const float> state,
                                         tensor::MatrixF& next) {
    if (*countdown == 0) return false;
    if (*countdown > 0) --*countdown;
    if (next.rows() != 1 || next.cols() != d) next = tensor::MatrixF(1, d);
    for (size_t c = 0; c < d; ++c) next(0, c) = scale * state[c];
    return true;
  };
  return req;
}

/// Fresh randomized mix mirroring the generation stress builder: prompts
/// 1..seq_len-2, max_new 0..6, every third request finishes early, one
/// capacity-edge request, priorities cycling through the classes and
/// pairwise-staggered arrivals.
inline std::vector<runtime::TrafficRequest> build_mix(const TrafficFixture& fx,
                                                      size_t count,
                                                      uint64_t seed) {
  std::vector<runtime::TrafficRequest> requests;
  util::Xoshiro256 rng(seed);
  for (size_t i = 0; i < count; ++i) {
    size_t prefix_rows = 1 + rng.next() % (fx.cfg.seq_len - 2);
    uint32_t max_new = static_cast<uint32_t>(
        std::min<size_t>(rng.next() % 7, fx.cfg.seq_len + 1 - prefix_rows));
    if (i == 0) {  // capacity edge: full-length prompt
      prefix_rows = fx.cfg.seq_len;
      max_new = 1;
    }
    const float scale = 0.25f + 0.05f * static_cast<float>(i % 5);
    const int eos_after =
        (i % 3 == 2) ? static_cast<int>(rng.next() % 3) : -1;
    runtime::TrafficRequest req;
    req.gen = make_gen_request(fx, prefix_rows, max_new, scale, eos_after,
                               seed + 10 + i);
    req.priority = static_cast<runtime::TrafficPriority>(i % 3);
    req.arrival_round = static_cast<uint32_t>(i / 2);
    requests.push_back(std::move(req));
  }
  return requests;
}

// --- seeded storms -----------------------------------------------------------

/// Small decoder plus a random 32-token vocabulary (LM head and embedding
/// table) that the seeded storms run against.
struct StormModel {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;
  tensor::MatrixF head, embed;
  runtime::VocabModel vocab;

  StormModel() {
    cfg.name = "traffic-small";
    cfg.seq_len = 24;
    cfg.d_model = 48;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, 6001);
    memory = random_input(6, cfg.d_model, 6002);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, 6003);
    qd = accel::prepare_decoder(weights, calib, memory);
    util::Xoshiro256 rng(6007);
    const uint32_t vocab_size = 32;
    head = tensor::MatrixF(vocab_size, cfg.d_model);
    embed = tensor::MatrixF(vocab_size, cfg.d_model);
    for (float& x : head.flat()) x = static_cast<float>(rng.normal());
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    vocab.head = &head;
    vocab.embed = &embed;
  }

  tensor::MatrixF embed_rows(std::span<const uint32_t> tokens) const {
    tensor::MatrixF m(tokens.size(), cfg.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      std::copy(embed.row(tokens[r]).begin(), embed.row(tokens[r]).end(),
                m.row(r).begin());
    }
    return m;
  }
};

/// One storm's requests plus the TokenStreams that back their
/// next_token callbacks. Streams are stateful, so every run builds a
/// fresh set; determinism comes from the per-item policy seed.
struct StormRequests {
  std::vector<runtime::TrafficRequest> reqs;
  std::vector<std::unique_ptr<runtime::TokenStream>> streams;
};

/// `shared_rows` > 0 selects the trace's shared-prefix mode: items
/// carrying a shared_prefix_id start with that system prompt's token
/// block (seeded by the id alone, so every request on the same id embeds
/// byte-identical prefix rows, the radix cache's hit condition) before
/// their per-request unique tail.
inline StormRequests build_storm_requests(
    const StormModel& m, const std::vector<runtime::TraceItem>& items,
    uint32_t shared_rows = 0) {
  StormRequests out;
  out.reqs.reserve(items.size());
  out.streams.reserve(items.size());
  for (const auto& item : items) {
    util::Xoshiro256 rng(item.policy_seed);
    std::vector<uint32_t> prompt(item.prompt_rows);
    size_t row = 0;
    if (shared_rows > 0 && item.shared_prefix_id != UINT32_MAX) {
      util::Xoshiro256 srng(0x5EEDF00Dull + item.shared_prefix_id);
      for (; row < shared_rows && row < prompt.size(); ++row) {
        prompt[row] =
            static_cast<uint32_t>(srng.bounded(m.vocab.vocab_size()));
      }
    }
    for (; row < prompt.size(); ++row) {
      prompt[row] = static_cast<uint32_t>(rng.bounded(m.vocab.vocab_size()));
    }
    runtime::DecodePolicy policy;
    if (item.sampled) {
      policy.sample = true;
      policy.temperature = 1.2f;
      policy.top_k = 8;
      policy.seed = item.policy_seed;
    }
    auto stream =
        std::make_unique<runtime::TokenStream>(policy, m.vocab, m.cfg.seq_len);
    stream->reset(prompt);

    runtime::TrafficRequest req;
    req.gen.prefix = m.embed_rows(prompt);
    req.gen.memory = &m.memory;
    req.gen.max_new_tokens = item.max_new;
    req.gen.next_token = stream->callback();
    req.priority = item.priority;
    req.arrival_round = item.arrival_round;
    req.deadline_rounds = item.deadline_rounds;
    req.cancel_on_deadline = item.cancel_on_deadline;
    out.reqs.push_back(std::move(req));
    out.streams.push_back(std::move(stream));
  }
  return out;
}

/// Unconstrained reference bits: every item alone on one seat holding a
/// whole-sequence block (kv_block_rows = 0), in submission order.
inline std::vector<runtime::TrafficResult> solo_references(
    const StormModel& m, const std::vector<runtime::TraceItem>& items,
    uint32_t shared_rows = 0) {
  StormRequests built = build_storm_requests(m, items, shared_rows);
  std::vector<runtime::GenerationRequest> gens;
  gens.reserve(built.reqs.size());
  for (auto& r : built.reqs) gens.push_back(std::move(r.gen));
  runtime::TrafficOptions opts;
  opts.slots = 1;
  opts.kv_block_rows = 0;
  runtime::TrafficEngine engine(m.acfg, m.qd);
  return engine.run(gens, opts);
}

/// Every deterministic TrafficResult field of two runs of one request
/// set (latency_ms is wall clock).
inline void expect_same_results(const std::vector<runtime::TrafficResult>& a,
                                const std::vector<runtime::TrafficResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << i;
    EXPECT_EQ(a[i].shed_reason, b[i].shed_reason) << i;
    EXPECT_EQ(a[i].admitted_round, b[i].admitted_round) << i;
    EXPECT_EQ(a[i].retired_round, b[i].retired_round) << i;
    EXPECT_EQ(a[i].latency_rounds, b[i].latency_rounds) << i;
    EXPECT_EQ(a[i].preemptions, b[i].preemptions) << i;
    EXPECT_EQ(a[i].deadline_missed, b[i].deadline_missed) << i;
    EXPECT_EQ(a[i].states, b[i].states) << i;
  }
}

inline void expect_same_class_stats(const runtime::TrafficClassStats& a,
                                    const runtime::TrafficClassStats& b,
                                    const std::string& what) {
  EXPECT_EQ(a.submitted, b.submitted) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
  EXPECT_EQ(a.completed_late, b.completed_late) << what;
  EXPECT_EQ(a.shed_overload, b.shed_overload) << what;
  EXPECT_EQ(a.shed_deadline, b.shed_deadline) << what;
  EXPECT_EQ(a.shed_capacity, b.shed_capacity) << what;
  EXPECT_EQ(a.cancelled, b.cancelled) << what;
  EXPECT_EQ(a.failed, b.failed) << what;
  EXPECT_EQ(a.preemptions, b.preemptions) << what;
  EXPECT_EQ(a.swap_outs, b.swap_outs) << what;
  EXPECT_EQ(a.recomputes, b.recomputes) << what;
  EXPECT_EQ(a.restores, b.restores) << what;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << what;
  EXPECT_EQ(a.kv_block_waits, b.kv_block_waits) << what;
}

/// Every SchedulerStats field except wall_ms must be bit-identical
/// between stepped and threaded runs, the prefix counters included:
/// the cache runs coordinator-side in both modes.
inline void expect_same_traffic_stats(const runtime::SchedulerStats& a,
                                      const runtime::SchedulerStats& b) {
  for (size_t c = 0; c < runtime::kTrafficClasses; ++c) {
    expect_same_class_stats(a.per_class[c], b.per_class[c],
                            "class " + std::to_string(c));
  }
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_EQ(a.prefill_chunks, b.prefill_chunks);
  EXPECT_EQ(a.replayed_rows, b.replayed_rows);
  EXPECT_EQ(a.swap_bytes, b.swap_bytes);
  EXPECT_EQ(a.kv_blocks_peak, b.kv_blocks_peak);
  EXPECT_EQ(a.failpoint_trips, b.failpoint_trips);
  EXPECT_EQ(a.prefix_hits, b.prefix_hits);
  EXPECT_EQ(a.prefix_misses, b.prefix_misses);
  EXPECT_EQ(a.prefix_rows_adopted, b.prefix_rows_adopted);
  EXPECT_EQ(a.prefix_bytes_saved, b.prefix_bytes_saved);
  EXPECT_EQ(a.cross_kv_hits, b.cross_kv_hits);
  EXPECT_EQ(a.cross_kv_misses, b.cross_kv_misses);
  EXPECT_EQ(a.prefix_evictions, b.prefix_evictions);
  EXPECT_EQ(a.max_active, b.max_active);
}

}  // namespace protea::test

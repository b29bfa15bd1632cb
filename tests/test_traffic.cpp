// Tests for the SLO-aware traffic engine (runtime/traffic.hpp) and its
// supporting robustness machinery:
//
//   * the core property — completed requests are BIT-IDENTICAL to an
//     unconstrained solo dense run no matter how often they were
//     preempted, for both recovery strategies (swap-out and
//     drop-and-recompute), every block size / prefill chunking, and with
//     deterministic failpoint storms injected into the block pool;
//   * stepped and threaded modes agree on outputs AND every per-class
//     scheduler counter (only wall-clock fields may differ);
//   * deadlines, overload shedding, cooperative cancellation and the
//     capacity reject all retire with a reason instead of throwing or
//     parking forever, and the stall valve force-sheds when preemption
//     is disabled and the working set cannot fit;
//   * dense seats (kv_block_rows = 0, no pool) are preempted by rank
//     through drop-and-recompute, bit-exactly;
//   * the RAII guards (SequenceScope, KvCreditLease) release pool state
//     on unwind, including a failpoint-thrown KvBlockExhausted
//     mid-chunked-prefill;
//   * session-level swap-out/swap-in round-trips are byte-exact, and
//     estimate_preemption_cost's recompute MACs match the executed
//     re-prefill exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/traffic.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace protea {
namespace {

using runtime::TrafficClassStats;
using runtime::TrafficOutcome;
using runtime::TrafficPriority;

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
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
runtime::GenerationRequest make_gen_request(const TrafficFixture& fx,
                                            size_t prefix_rows,
                                            uint32_t max_new, float scale,
                                            int eos_after, uint64_t seed) {
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
std::vector<runtime::TrafficRequest> build_mix(const TrafficFixture& fx,
                                               size_t count, uint64_t seed) {
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
    req.priority = static_cast<TrafficPriority>(i % 3);
    req.arrival_round = static_cast<uint32_t>(i / 2);
    requests.push_back(std::move(req));
  }
  return requests;
}

std::vector<runtime::GenerationRequest> to_gen(
    std::vector<runtime::TrafficRequest> requests) {
  std::vector<runtime::GenerationRequest> out;
  out.reserve(requests.size());
  for (auto& r : requests) out.push_back(std::move(r.gen));
  return out;
}

void expect_rows_equal(const tensor::MatrixF& got, const tensor::MatrixF& want,
                       size_t rows, const char* what) {
  ASSERT_GE(got.rows(), rows) << what;
  ASSERT_GE(want.rows(), rows) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      ASSERT_EQ(got(r, c), want(r, c)) << what << " row " << r << " col " << c;
    }
  }
}

void expect_same_class_stats(const TrafficClassStats& a,
                             const TrafficClassStats& b, const char* what) {
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

TEST(TrafficEngine, RecoveryStrategiesBitIdenticalUnderPreemptionStorm) {
  // The tentpole property: sweep (block size x prefill chunk x recovery
  // strategy) over a pool deliberately too small for the working set,
  // with a failpoint storm layered on top, and require every request to
  // complete with the exact bits of an unconstrained sequential run.
  TrafficFixture fx;
  constexpr size_t kRequests = 10;
  constexpr uint64_t kSeed = 1000;

  runtime::TrafficEngine reference(fx.acfg, fx.qd);
  runtime::TrafficOptions ref_opts;
  ref_opts.slots = 1;
  ref_opts.kv_block_rows = 0;
  const auto expected =
      reference.run(to_gen(build_mix(fx, kRequests, kSeed)), ref_opts);

  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  uint64_t preemptions = 0, swap_outs = 0, recomputes = 0, restores = 0;
  uint64_t trips = 0;
  size_t variant = 0;
  for (size_t block_rows : {size_t{2}, size_t{4}}) {
    for (size_t chunk : {size_t{0}, size_t{3}}) {
      for (auto recovery : {runtime::PreemptionRecovery::kSwapOut,
                            runtime::PreemptionRecovery::kRecompute,
                            runtime::PreemptionRecovery::kAuto}) {
        runtime::TrafficOptions opts;
        opts.slots = 3;
        opts.kv_block_rows = block_rows;
        // Any single request fits (worst case ceil(12 / block_rows)),
        // but three concurrent ones do not.
        opts.kv_pool_blocks =
            util::ceil_div<size_t>(fx.cfg.seq_len, block_rows) + 2;
        opts.prefill_chunk = chunk;
        opts.recovery = recovery;
        opts.swap_slots =
            recovery == runtime::PreemptionRecovery::kAuto ? 1 : 2;
#ifdef PROTEA_FAILPOINTS
        opts.fail_skip = 4 + 3 * variant;  // storm at a per-variant point
        opts.fail_count = 4;
#endif
        const auto results = engine.run(build_mix(fx, kRequests, kSeed), opts);
        const auto& stats = engine.last_run();
        ASSERT_EQ(results.size(), expected.size());
        for (size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(results[i].outcome, TrafficOutcome::kCompleted)
              << "variant " << variant << " request " << i << ": "
              << results[i].shed_reason;
          EXPECT_EQ(results[i].steps, expected[i].steps)
              << "variant " << variant << " request " << i;
          ASSERT_EQ(results[i].states, expected[i].states)
              << "variant " << variant << " request " << i;
        }
        if (recovery == runtime::PreemptionRecovery::kRecompute) {
          EXPECT_EQ(stats.total(&TrafficClassStats::swap_outs), 0u);
          EXPECT_EQ(stats.swap_bytes, 0u);
        }
        preemptions += stats.total(&TrafficClassStats::preemptions);
        swap_outs += stats.total(&TrafficClassStats::swap_outs);
        recomputes += stats.total(&TrafficClassStats::recomputes);
        restores += stats.total(&TrafficClassStats::restores);
        trips += stats.failpoint_trips;
        EXPECT_LE(stats.kv_blocks_peak, opts.kv_pool_blocks);
        ++variant;
      }
    }
  }
  // The sweep must actually exercise preemption, both recovery flavors,
  // and restore every victim it evicts.
  EXPECT_GT(preemptions, 0u);
  EXPECT_GT(swap_outs, 0u);
  EXPECT_GT(recomputes, 0u);
  EXPECT_EQ(restores, preemptions);
#ifdef PROTEA_FAILPOINTS
  EXPECT_GT(trips, 0u);
#endif
}

TEST(TrafficEngine, SteppedAndThreadedRunsMatchBitForBit) {
  // Satellite: outputs AND per-class scheduler stats are identical
  // between the stepped loop and the worker-pool mode — only wall-clock
  // fields may differ. Pool mutations are coordinator-serial in both, so
  // even the injected failpoint schedule lines up.
  TrafficFixture fx;
  constexpr size_t kRequests = 10;
  constexpr uint64_t kSeed = 2000;

  runtime::TrafficOptions stepped;
  stepped.slots = 3;
  stepped.kv_block_rows = 2;
  stepped.kv_pool_blocks = 8;
  stepped.prefill_chunk = 3;
  stepped.recovery = runtime::PreemptionRecovery::kAuto;
  stepped.swap_slots = 1;
#ifdef PROTEA_FAILPOINTS
  stepped.fail_skip = 6;
  stepped.fail_count = 3;
#endif

  runtime::TrafficEngine engine(fx.acfg, fx.qd);
  const auto a = engine.run(build_mix(fx, kRequests, kSeed), stepped);
  const runtime::SchedulerStats sa = engine.last_run();

  runtime::TrafficOptions threaded = stepped;
  threaded.threads = 4;
  threaded.mha_slots = 2;
  threaded.ffn_slots = 2;
  const auto b = engine.run(build_mix(fx, kRequests, kSeed), threaded);
  const runtime::SchedulerStats& sb = engine.last_run();

  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << i;
    ASSERT_EQ(a[i].states, b[i].states) << i;
    EXPECT_EQ(a[i].shed_reason, b[i].shed_reason) << i;
    EXPECT_EQ(a[i].admitted_round, b[i].admitted_round) << i;
    EXPECT_EQ(a[i].retired_round, b[i].retired_round) << i;
    EXPECT_EQ(a[i].latency_rounds, b[i].latency_rounds) << i;
    EXPECT_EQ(a[i].preemptions, b[i].preemptions) << i;
    EXPECT_EQ(a[i].deadline_missed, b[i].deadline_missed) << i;
  }
  for (size_t c = 0; c < runtime::kTrafficClasses; ++c) {
    expect_same_class_stats(sa.per_class[c], sb.per_class[c], "class stats");
  }
  EXPECT_EQ(sa.rounds, sb.rounds);
  EXPECT_EQ(sa.decode_steps, sb.decode_steps);
  EXPECT_EQ(sa.prefill_chunks, sb.prefill_chunks);
  EXPECT_EQ(sa.replayed_rows, sb.replayed_rows);
  EXPECT_EQ(sa.swap_bytes, sb.swap_bytes);
  EXPECT_EQ(sa.kv_blocks_peak, sb.kv_blocks_peak);
  EXPECT_EQ(sa.failpoint_trips, sb.failpoint_trips);
  EXPECT_EQ(sa.max_active, sb.max_active);
}

TEST(TrafficEngine, DeadlinesOverloadShedAndLateCompletion) {
  // One seat, preemption off: a long-running standard request finishes
  // past its deadline (kCompletedLate, bits intact), an interactive
  // request expires in the queue (kShedDeadline), and the overload
  // watermark sheds the worst-ranked queued batch request with a reason.
  TrafficFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  auto build = [&fx]() {
    std::vector<runtime::TrafficRequest> reqs(4);
    reqs[0].gen = make_gen_request(fx, 2, 6, 0.3f, -1, 11);
    reqs[0].priority = TrafficPriority::kStandard;
    reqs[0].arrival_round = 0;
    reqs[0].deadline_rounds = 3;  // finishes around round 6 -> late
    reqs[1].gen = make_gen_request(fx, 1, 2, 0.3f, -1, 12);
    reqs[1].priority = TrafficPriority::kInteractive;
    reqs[1].arrival_round = 1;
    reqs[1].deadline_rounds = 2;  // expires queued behind reqs[0]
    reqs[2].gen = make_gen_request(fx, 1, 2, 0.3f, -1, 13);
    reqs[2].priority = TrafficPriority::kBatch;
    reqs[2].arrival_round = 1;
    reqs[3].gen = make_gen_request(fx, 1, 2, 0.3f, -1, 14);
    reqs[3].priority = TrafficPriority::kBatch;
    reqs[3].arrival_round = 1;
    return reqs;
  };

  runtime::TrafficEngine reference(fx.acfg, fx.qd);
  runtime::TrafficOptions ref_opts;
  ref_opts.slots = 1;
  ref_opts.kv_block_rows = 0;
  const auto expected = reference.run(to_gen(build()), ref_opts);

  runtime::TrafficOptions opts;
  opts.slots = 1;
  opts.preemption = false;
  opts.kv_block_rows = 4;
  opts.kv_pool_blocks = 6;
  opts.shed_queue_depth = 2;
  const auto results = engine.run(build(), opts);
  const auto& stats = engine.last_run();

  EXPECT_EQ(results[0].outcome, TrafficOutcome::kCompletedLate);
  EXPECT_TRUE(results[0].deadline_missed);
  EXPECT_EQ(results[0].steps, expected[0].steps);
  ASSERT_EQ(results[0].states, expected[0].states);
  EXPECT_GT(results[0].latency_rounds, 3u);

  EXPECT_EQ(results[1].outcome, TrafficOutcome::kShedDeadline);
  EXPECT_NE(results[1].shed_reason.find("deadline"), std::string::npos)
      << results[1].shed_reason;
  EXPECT_EQ(results[1].states.rows(), 0u);

  // Watermark 2 with three queued at round 1: the worst-ranked (later
  // batch submission) is rejected; the other batch request still runs.
  EXPECT_EQ(results[3].outcome, TrafficOutcome::kShedOverload);
  EXPECT_NE(results[3].shed_reason.find("watermark"), std::string::npos)
      << results[3].shed_reason;
  EXPECT_EQ(results[2].outcome, TrafficOutcome::kCompleted);
  EXPECT_EQ(results[2].steps, expected[2].steps);
  ASSERT_EQ(results[2].states, expected[2].states);

  EXPECT_EQ(stats.cls(TrafficPriority::kStandard).completed_late, 1u);
  EXPECT_EQ(stats.cls(TrafficPriority::kInteractive).shed_deadline, 1u);
  EXPECT_EQ(stats.cls(TrafficPriority::kBatch).shed_overload, 1u);
  EXPECT_EQ(stats.cls(TrafficPriority::kBatch).completed, 1u);
  EXPECT_GE(stats.total(&TrafficClassStats::deadline_misses), 2u);
}

TEST(TrafficEngine, CooperativeCancelReturnsPartialOutput) {
  // Request 0's token callback cancels request 1 mid-flight; request 1
  // retires kCancelled at the next round boundary with the bits it
  // computed so far — a prefix of its uncancelled run.
  TrafficFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  auto cancel_flag = std::make_shared<std::atomic<bool>>(false);
  auto invocations = std::make_shared<int>(0);
  const uint32_t d = fx.cfg.d_model;

  std::vector<runtime::TrafficRequest> reqs(2);
  reqs[0].gen.prefix = random_input(1, d, 21);
  reqs[0].gen.memory = &fx.memory;
  reqs[0].gen.max_new_tokens = 4;
  reqs[0].gen.next_token = [d, cancel_flag, invocations](
                               std::span<const float> state,
                               tensor::MatrixF& next) {
    if (++*invocations == 2) cancel_flag->store(true);
    if (next.rows() != 1 || next.cols() != d) next = tensor::MatrixF(1, d);
    for (size_t c = 0; c < d; ++c) next(0, c) = 0.3f * state[c];
    return true;
  };
  reqs[0].priority = TrafficPriority::kStandard;
  reqs[1].gen = make_gen_request(fx, 2, 8, 0.4f, -1, 22);
  reqs[1].priority = TrafficPriority::kBatch;
  reqs[1].cancel = cancel_flag;

  // Uncancelled reference for request 1 (fresh, same seed).
  runtime::TrafficEngine reference(fx.acfg, fx.qd);
  runtime::TrafficOptions ref_opts;
  ref_opts.slots = 1;
  ref_opts.kv_block_rows = 0;
  std::vector<runtime::GenerationRequest> solo;
  solo.push_back(make_gen_request(fx, 2, 8, 0.4f, -1, 22));
  const auto expected = reference.run(solo, ref_opts);

  runtime::TrafficOptions opts;
  opts.slots = 2;
  opts.kv_block_rows = 4;
  opts.kv_pool_blocks = 8;
  const auto results = engine.run(reqs, opts);

  EXPECT_EQ(results[0].outcome, TrafficOutcome::kCompleted);
  EXPECT_EQ(results[0].steps, 4u);
  ASSERT_EQ(results[1].outcome, TrafficOutcome::kCancelled);
  EXPECT_FALSE(results[1].shed_reason.empty());
  EXPECT_LT(results[1].steps, 8u);
  const size_t partial_rows = 2 + results[1].steps;
  ASSERT_EQ(results[1].states.rows(), partial_rows);
  expect_rows_equal(results[1].states, expected[0].states, partial_rows,
                    "cancelled prefix");
  EXPECT_EQ(engine.last_run().cls(TrafficPriority::kBatch).cancelled, 1u);
}

TEST(TrafficEngine, ImpossibleRequestIsShedNotThrown) {
  // A request whose worst case can never fit the pool is rejected with
  // kShedCapacity at arrival; neighbors are unaffected.
  TrafficFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  std::vector<runtime::TrafficRequest> reqs(2);
  reqs[0].gen = make_gen_request(fx, fx.cfg.seq_len, 1, 0.3f, -1, 31);
  reqs[1].gen = make_gen_request(fx, 2, 2, 0.3f, -1, 32);

  runtime::TrafficOptions opts;
  opts.slots = 2;
  opts.kv_block_rows = 2;
  opts.kv_pool_blocks = 4;  // 8 rows max; request 0 needs 12
  const auto results = engine.run(reqs, opts);

  EXPECT_EQ(results[0].outcome, TrafficOutcome::kShedCapacity);
  EXPECT_FALSE(results[0].shed_reason.empty());
  EXPECT_EQ(results[0].states.rows(), 0u);
  EXPECT_EQ(results[1].outcome, TrafficOutcome::kCompleted);
  EXPECT_EQ(results[1].steps, 2u);
  EXPECT_EQ(engine.last_run().total(&TrafficClassStats::shed_capacity), 1u);
}

TEST(TrafficEngine, ThrowingCallbackFailsRequestWithoutSheddingIt) {
  // A user-supplied next_token callback that throws is a CALLER fault:
  // the request retires kFailed (with the exception message as the
  // reason), never kShedCapacity — caller bugs must not read as pool
  // pressure. Neighbors are unaffected.
  TrafficFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  std::vector<runtime::TrafficRequest> reqs(2);
  reqs[0].gen.prefix = random_input(2, fx.cfg.d_model, 91);
  reqs[0].gen.memory = &fx.memory;
  reqs[0].gen.max_new_tokens = 3;
  reqs[0].gen.next_token = [](std::span<const float>, tensor::MatrixF&) -> bool {
    throw std::runtime_error("callback boom");
  };
  reqs[1].gen = make_gen_request(fx, 2, 2, 0.3f, -1, 92);

  runtime::TrafficOptions opts;
  opts.slots = 2;
  opts.kv_block_rows = 4;
  opts.kv_pool_blocks = 8;
  const auto results = engine.run(reqs, opts);
  const auto& stats = engine.last_run();

  EXPECT_EQ(results[0].outcome, TrafficOutcome::kFailed);
  EXPECT_NE(results[0].shed_reason.find("callback boom"), std::string::npos)
      << results[0].shed_reason;
  EXPECT_EQ(results[1].outcome, TrafficOutcome::kCompleted);
  EXPECT_EQ(stats.total(&TrafficClassStats::failed), 1u);
  EXPECT_EQ(stats.total(&TrafficClassStats::shed_capacity), 0u);
}

TEST(TrafficEngine, StallValveForceShedsWhenPreemptionDisabled) {
  // preemption=false: two admitted sequences each need mid-decode
  // growth the other blocks. Without preemption nothing can progress, so
  // after stall_limit no-progress rounds the engine force-sheds the
  // worst-ranked request and the survivor completes with reference bits.
  TrafficFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  auto build = [&fx]() {
    std::vector<runtime::TrafficRequest> reqs(2);
    reqs[0].gen = make_gen_request(fx, 4, 5, 0.3f, -1, 41);
    reqs[1].gen = make_gen_request(fx, 4, 5, 0.35f, -1, 42);
    return reqs;
  };

  runtime::TrafficEngine reference(fx.acfg, fx.qd);
  runtime::TrafficOptions ref_opts;
  ref_opts.slots = 1;
  ref_opts.kv_block_rows = 0;
  const auto expected = reference.run(to_gen(build()), ref_opts);

  runtime::TrafficOptions opts;
  opts.slots = 2;
  opts.preemption = false;
  opts.kv_block_rows = 2;
  opts.kv_pool_blocks = 5;  // each needs 5 blocks; both prompts fit (4)
  opts.stall_limit = 6;
  const auto results = engine.run(build(), opts);
  const auto& stats = engine.last_run();

  EXPECT_EQ(results[0].outcome, TrafficOutcome::kCompleted);
  EXPECT_EQ(results[0].steps, expected[0].steps);
  ASSERT_EQ(results[0].states, expected[0].states);
  EXPECT_EQ(results[1].outcome, TrafficOutcome::kShedCapacity);
  EXPECT_NE(results[1].shed_reason.find("stall"), std::string::npos)
      << results[1].shed_reason;
  EXPECT_GT(stats.total(&TrafficClassStats::kv_block_waits), 0u);
  EXPECT_EQ(stats.total(&TrafficClassStats::preemptions), 0u);
}

TEST(TrafficEngine, DenseSeatIsPreemptedByRankThroughRecompute) {
  // kv_block_rows = 0: one private dense seat and no pool. A batch
  // request holds the seat when an interactive one arrives at round 2;
  // the only way in is to preempt the seat itself, and a dense cache has
  // no blocks to spill, so the victim drops and recomputes. Both
  // requests still complete with their solo bits.
  TrafficFixture fx;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  auto build = [&fx]() {
    std::vector<runtime::TrafficRequest> reqs(2);
    reqs[0].gen = make_gen_request(fx, 2, 8, 0.3f, -1, 51);
    reqs[0].priority = TrafficPriority::kBatch;
    reqs[1].gen = make_gen_request(fx, 2, 3, 0.35f, -1, 52);
    reqs[1].priority = TrafficPriority::kInteractive;
    reqs[1].arrival_round = 2;
    return reqs;
  };

  runtime::TrafficOptions ref_opts;
  ref_opts.slots = 1;
  ref_opts.kv_block_rows = 0;
  const auto expected = engine.run(to_gen(build()), ref_opts);

  for (const size_t threads : {size_t{1}, size_t{2}}) {
    runtime::TrafficOptions opts;
    opts.slots = 1;
    opts.threads = threads;
    opts.kv_block_rows = 0;
    const auto results = engine.run(build(), opts);
    const auto& stats = engine.last_run();
    ASSERT_EQ(results.size(), expected.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].outcome, TrafficOutcome::kCompleted)
          << "threads " << threads << " request " << i << ": "
          << results[i].shed_reason;
      EXPECT_EQ(results[i].steps, expected[i].steps);
      ASSERT_EQ(results[i].states, expected[i].states)
          << "threads " << threads << " request " << i;
    }
    EXPECT_EQ(stats.total(&TrafficClassStats::preemptions), 1u);
    EXPECT_EQ(stats.total(&TrafficClassStats::recomputes), 1u);
    EXPECT_EQ(stats.total(&TrafficClassStats::swap_outs), 0u);
  }

  // Failpoints act on a pool, which dense seats do not have.
  runtime::TrafficOptions bad;
  bad.kv_block_rows = 0;
  bad.fail_count = 1;
  EXPECT_THROW(engine.run(build(), bad), std::invalid_argument);
}

TEST(TrafficRobustness, SequenceScopeReleasesBlocksOnUnwind) {
  TrafficFixture fx;
  runtime::KvBlockPool pool;
  pool.configure(8, 2, fx.kv_row_bytes());
  runtime::GenerationOptions gopts;
  gopts.kv_block_rows = 2;
  gopts.kv_pool = &pool;
  runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, gopts);

  try {
    runtime::SequenceScope scope(&session);
    tensor::MatrixF states;
    session.prefill(random_input(4, fx.cfg.d_model, 51), fx.memory, states);
    EXPECT_GT(pool.used_blocks(), 0u);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(pool.used_blocks(), 0u);

  // commit() hands ownership off: the scope must NOT release.
  {
    runtime::SequenceScope scope(&session);
    tensor::MatrixF states;
    session.prefill(random_input(4, fx.cfg.d_model, 52), fx.memory, states);
    scope.commit();
  }
  EXPECT_GT(pool.used_blocks(), 0u);
  session.end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

TEST(TrafficRobustness, CreditLeaseReleasesHeadroomOnUnwind) {
  runtime::KvBlockPool pool;
  pool.configure(8, 2, 192);
  try {
    runtime::KvCreditLease lease(pool);
    ASSERT_TRUE(lease.try_acquire(5));
    EXPECT_TRUE(lease.held());
    EXPECT_EQ(pool.uncommitted_free_blocks(), 3u);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(pool.uncommitted_free_blocks(), 8u);
}

#ifdef PROTEA_FAILPOINTS
TEST(TrafficRobustness, FailpointThrownMidPrefillUnwindsCleanly) {
  // A failpoint-injected KvBlockExhausted in the middle of a chunked
  // prefill must unwind through SequenceScope without stranding blocks
  // or corrupting the pool for the next sequence.
  TrafficFixture fx;
  runtime::KvBlockPool pool;
  pool.configure(8, 2, fx.kv_row_bytes());
  runtime::GenerationOptions gopts;
  gopts.kv_block_rows = 2;
  gopts.kv_pool = &pool;
  gopts.prefill_chunk = 2;
  runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, gopts);

  // Armed after construction: warm-up takes must not consume the
  // schedule. Skip the first chunk's reservation, fail the second's.
  pool.inject_failures(1, 1);
  {
    runtime::SequenceScope scope(&session);
    tensor::MatrixF states;
    EXPECT_THROW(
        session.prefill(random_input(6, fx.cfg.d_model, 61), fx.memory,
                        states),
        runtime::KvBlockExhausted);
  }
  EXPECT_EQ(pool.used_blocks(), 0u);
  EXPECT_EQ(pool.failpoint_trips(), 1u);
  pool.clear_failures();

  // The pool is healthy again: the same prefill now succeeds.
  tensor::MatrixF states;
  session.prefill(random_input(6, fx.cfg.d_model, 61), fx.memory, states);
  EXPECT_EQ(states.rows(), 6u);
  session.end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);
}
#endif  // PROTEA_FAILPOINTS

TEST(TrafficRobustness, SessionSwapRoundTripIsBitExact) {
  // swap_out spills the held block bytes; prefill_begin + try_swap_in
  // restores them. Decode steps after the round trip match a never-
  // preempted session bit for bit.
  TrafficFixture fx;
  runtime::KvBlockPool pool;
  pool.configure(12, 2, fx.kv_row_bytes());
  runtime::GenerationOptions gopts;
  gopts.kv_block_rows = 2;
  gopts.kv_pool = &pool;
  const uint32_t d = fx.cfg.d_model;
  const tensor::MatrixF prompt = random_input(3, d, 71);
  constexpr size_t kSteps = 4;

  auto next_of = [d](const tensor::MatrixF& state) {
    tensor::MatrixF token(1, d);
    for (size_t c = 0; c < d; ++c) token(0, c) = 0.3f * state(state.rows() - 1, c);
    return token;
  };

  // Reference: straight-through run.
  runtime::GenerationSession ref(fx.acfg, fx.qd, nullptr, gopts);
  tensor::MatrixF ref_prefill;
  ref.prefill(prompt, fx.memory, ref_prefill);
  std::vector<tensor::MatrixF> ref_states;
  tensor::MatrixF token = next_of(ref_prefill);
  for (size_t s = 0; s < kSteps; ++s) {
    tensor::MatrixF state;
    ref.decode_step(token, state);
    ref_states.push_back(state);
    token = next_of(state);
  }

  // Victim: two steps, swap out, restore, two more steps.
  runtime::GenerationSession victim(fx.acfg, fx.qd, nullptr, gopts);
  tensor::MatrixF victim_prefill;
  victim.prefill(prompt, fx.memory, victim_prefill);
  ASSERT_EQ(victim_prefill, ref_prefill);
  token = next_of(victim_prefill);
  for (size_t s = 0; s < 2; ++s) {
    tensor::MatrixF state;
    victim.decode_step(token, state);
    ASSERT_EQ(state, ref_states[s]) << "pre-swap step " << s;
    token = next_of(state);
  }

  const size_t held = pool.used_blocks();
  std::vector<int8_t> spill;
  const size_t rows = victim.swap_out(spill);
  EXPECT_EQ(rows, prompt.rows() + 2);
  EXPECT_EQ(spill.size(), 3 * pool.block_bytes());  // ceil(5 / 2) blocks
  EXPECT_LT(pool.used_blocks(), held);

  victim.prefill_begin(fx.memory);  // recompute cross K/V, then rescatter
  ASSERT_TRUE(victim.try_swap_in(spill, rows));
  EXPECT_EQ(victim.position(), rows);
  for (size_t s = 2; s < kSteps; ++s) {
    tensor::MatrixF state;
    victim.decode_step(token, state);
    ASSERT_EQ(state, ref_states[s]) << "post-restore step " << s;
    token = next_of(state);
  }
}

TEST(TrafficRobustness, PreemptionCostMatchesExecutedReplay) {
  // The analytic recompute cost IS the executed restore re-prefill: the
  // MAC count must match the session's engine accounting exactly, and
  // the swap figure is twice the held block bytes.
  TrafficFixture fx;
  runtime::KvBlockPool pool;
  pool.configure(4, 4, fx.kv_row_bytes());
  runtime::GenerationOptions gopts;
  gopts.kv_block_rows = 4;
  gopts.kv_pool = &pool;
  runtime::GenerationSession session(fx.acfg, fx.qd, nullptr, gopts);

  constexpr uint32_t kRows = 6;
  const uint64_t before = session.stats().macs;
  tensor::MatrixF states;
  session.prefill(random_input(kRows, fx.cfg.d_model, 81), fx.memory, states);
  const uint64_t executed = session.stats().macs - before;

  const auto cost = accel::estimate_preemption_cost(
      fx.acfg, fx.cfg, kRows, static_cast<uint32_t>(fx.memory.rows()), 4);
  EXPECT_EQ(cost.recompute_macs, executed);
  EXPECT_EQ(cost.swap_bytes, 2 * session.swap_bytes());
  const auto fp = accel::estimate_kv_footprint(fx.cfg, kRows, 4);
  EXPECT_EQ(cost.swap_bytes, 2 * fp.paged_bytes);
  EXPECT_GT(cost.swap_ms, 0.0);
  EXPECT_GT(cost.recompute_ms, 0.0);
  EXPECT_EQ(cost.prefer_swap, cost.swap_ms < cost.recompute_ms);

  EXPECT_THROW(accel::estimate_preemption_cost(fx.acfg, fx.cfg, 0, 8, 4),
               std::invalid_argument);
  EXPECT_THROW(accel::estimate_preemption_cost(fx.acfg, fx.cfg, 6, 8, 0),
               std::invalid_argument);
}

TEST(TrafficTrace, GeneratorIsDeterministicAndBounded) {
  runtime::TraceConfig cfg;
  cfg.requests = 200;
  cfg.beam_fraction = 0.1;
  cfg.cancel_on_deadline_fraction = 0.2;
  cfg.seed = 42;

  const auto a = runtime::generate_trace(cfg);
  const auto b = runtime::generate_trace(cfg);
  ASSERT_EQ(a.size(), cfg.requests);
  ASSERT_EQ(b.size(), cfg.requests);

  size_t classes[runtime::kTrafficClasses] = {0, 0, 0};
  size_t sampled = 0, beam = 0, with_deadline = 0, without_deadline = 0;
  size_t cancel = 0;
  uint32_t prev_arrival = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_round, b[i].arrival_round) << i;
    EXPECT_EQ(a[i].prompt_rows, b[i].prompt_rows) << i;
    EXPECT_EQ(a[i].max_new, b[i].max_new) << i;
    EXPECT_EQ(a[i].priority, b[i].priority) << i;
    EXPECT_EQ(a[i].deadline_rounds, b[i].deadline_rounds) << i;
    EXPECT_EQ(a[i].cancel_on_deadline, b[i].cancel_on_deadline) << i;
    EXPECT_EQ(a[i].sampled, b[i].sampled) << i;
    EXPECT_EQ(a[i].beam, b[i].beam) << i;
    EXPECT_EQ(a[i].policy_seed, b[i].policy_seed) << i;

    EXPECT_GE(a[i].arrival_round, prev_arrival) << i;
    prev_arrival = a[i].arrival_round;
    EXPECT_GE(a[i].prompt_rows, cfg.min_prompt) << i;
    EXPECT_LE(a[i].prompt_rows, cfg.max_prompt) << i;
    EXPECT_GE(a[i].max_new, cfg.min_new) << i;
    EXPECT_LE(a[i].max_new, cfg.max_new) << i;
    EXPECT_FALSE(a[i].sampled && a[i].beam) << i;
    if (a[i].cancel_on_deadline) EXPECT_GT(a[i].deadline_rounds, 0u) << i;

    ++classes[static_cast<size_t>(a[i].priority)];
    sampled += a[i].sampled;
    beam += a[i].beam;
    with_deadline += a[i].deadline_rounds > 0;
    without_deadline += a[i].deadline_rounds == 0;
    cancel += a[i].cancel_on_deadline;
  }
  // 200 draws at these fractions hit every bucket.
  for (size_t c = 0; c < runtime::kTrafficClasses; ++c) {
    EXPECT_GT(classes[c], 0u) << "priority class " << c;
  }
  EXPECT_GT(sampled, 0u);
  EXPECT_GT(beam, 0u);
  EXPECT_GT(with_deadline, 0u);
  EXPECT_GT(without_deadline, 0u);
  EXPECT_GT(cancel, 0u);

  runtime::TraceConfig other = cfg;
  other.seed = 43;
  const auto c2 = runtime::generate_trace(other);
  bool any_diff = false;
  for (size_t i = 0; i < c2.size() && !any_diff; ++i) {
    any_diff = c2[i].arrival_round != a[i].arrival_round ||
               c2[i].prompt_rows != a[i].prompt_rows ||
               c2[i].max_new != a[i].max_new;
  }
  EXPECT_TRUE(any_diff);

  runtime::TraceConfig bad = cfg;
  bad.min_prompt = 0;
  EXPECT_THROW(runtime::generate_trace(bad), std::invalid_argument);
}

}  // namespace
}  // namespace protea

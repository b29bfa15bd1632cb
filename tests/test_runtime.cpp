// Tests for the serving runtime layer: the workspace arena's lifetime
// rules, the unified forward path's bit-stability, the batch scheduler's
// serial/batched equivalence, the executed schedule's cycle-exact
// agreement with the analytic two-stage pipeline model, and the zero
//-allocation guarantee of a warmed session's forward().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "accel/accelerator.hpp"
#include "accel/batch_pipeline.hpp"
#include "accel/decoder_model.hpp"
#include "accel/quantized_model.hpp"
#include "ref/decoder.hpp"
#include "ref/encoder.hpp"
#include "ref/weights.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/generation.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/workspace_arena.hpp"
#include "util/rng.hpp"

// --- global allocation counter ----------------------------------------------
// Every operator new in this binary bumps g_alloc_count; the zero-alloc
// test reads the counter around a steady-state forward. Deletes are not
// counted (free is allocation-free by definition here).

namespace {
std::atomic<uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_alloc_count;
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace protea::runtime {
namespace {

ref::ModelConfig small_config(uint32_t layers = 2) {
  ref::ModelConfig c;
  c.seq_len = 16;
  c.d_model = 64;
  c.num_heads = 4;
  c.num_layers = layers;
  c.activation = ref::Activation::kGelu;
  return c;
}

struct Fixture {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedModel qm;
  tensor::MatrixF input;

  explicit Fixture(uint32_t layers = 2, uint32_t seed = 91) {
    cfg = small_config(layers);
    const auto weights = ref::make_random_weights(cfg, seed);
    input = ref::make_random_input(cfg, seed + 1);
    qm = accel::prepare_model(weights, input);
  }
};

// --- workspace arena ---------------------------------------------------------

TEST(WorkspaceArena, HandsOutAlignedDisjointViews) {
  WorkspaceArena ws;
  auto a = ws.matrix_i8(3, 5);
  auto b = ws.matrix_i32(4, 4);
  EXPECT_EQ(a.rows(), 3u);
  EXPECT_EQ(a.cols(), 5u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 64, 0u);
  a.fill(7);
  b.fill(-1);
  for (int8_t v : a.flat()) EXPECT_EQ(v, 7);
  for (int32_t v : b.flat()) EXPECT_EQ(v, -1);
  EXPECT_GE(ws.used(), 3 * 5 + 4 * 4 * sizeof(int32_t));
}

TEST(WorkspaceArena, MarkRewindReusesMemory) {
  WorkspaceArena ws(1 << 12);
  const auto m = ws.mark();
  auto a = ws.matrix_i8(8, 8);
  const int8_t* first = a.data();
  ws.rewind(m);
  EXPECT_EQ(ws.used(), 0u);
  auto b = ws.matrix_i8(8, 8);
  EXPECT_EQ(b.data(), first);  // same bytes handed out again
}

TEST(WorkspaceArena, ResetReusesWithoutGrowth) {
  WorkspaceArena ws(1 << 12);
  auto a = ws.matrix_i8(16, 16);
  const int8_t* first = a.data();
  const size_t cap = ws.capacity();
  ws.reset();
  EXPECT_EQ(ws.used(), 0u);
  auto b = ws.matrix_i8(16, 16);
  EXPECT_EQ(b.data(), first);
  EXPECT_EQ(ws.capacity(), cap);
}

TEST(WorkspaceArena, NestedMarkRewindRestoresEachLevel) {
  WorkspaceArena ws(1 << 12);
  const auto outer = ws.mark();
  auto a = ws.matrix_i8(4, 4);
  const size_t after_a = ws.used();
  const auto inner = ws.mark();
  auto b = ws.matrix_i8(8, 8);
  const int8_t* b_ptr = b.data();
  ws.rewind(inner);
  EXPECT_EQ(ws.used(), after_a);
  auto c = ws.matrix_i8(8, 8);  // reuses the inner allocation's bytes
  EXPECT_EQ(c.data(), b_ptr);
  ws.rewind(inner);
  ws.rewind(outer);
  EXPECT_EQ(ws.used(), 0u);
  auto d = ws.matrix_i8(4, 4);  // and the outer level's bytes
  EXPECT_EQ(d.data(), a.data());
}

TEST(WorkspaceArena, ZeroSizedViewsAreValidAndFree) {
  WorkspaceArena ws(1 << 10);
  auto a = ws.matrix_i8(0, 8);
  auto b = ws.matrix_i8(8, 0);
  auto s = ws.span_i32(0);
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.cols(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(ws.used(), 0u);  // zero-byte requests consume nothing
  // The arena keeps functioning (and stays aligned) afterwards.
  auto c = ws.matrix_i8(4, 4);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c.data()) % 64, 0u);
  c.fill(3);
  for (int8_t v : c.flat()) EXPECT_EQ(v, 3);
}

TEST(WorkspaceArena, Int32AccumulatorViewsStayAligned) {
  // Odd-sized int8 allocations must not misalign subsequent int32
  // accumulator views: every raw allocation is padded to the 64-byte
  // alignment quantum.
  WorkspaceArena ws(1 << 12);
  (void)ws.span_i8(3);
  auto acc1 = ws.matrix_i32(3, 5);
  (void)ws.span_i8(1);
  auto acc2 = ws.matrix_i32(2, 2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(acc1.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(acc2.data()) % 64, 0u);
  acc1.fill(-7);
  acc2.fill(9);
  for (int32_t v : acc1.flat()) EXPECT_EQ(v, -7);
  for (int32_t v : acc2.flat()) EXPECT_EQ(v, 9);
}

TEST(WorkspaceArena, GrowthChainsBlocksThenConsolidates) {
  WorkspaceArena ws(128);  // deliberately tiny first block
  (void)ws.matrix_i8(8, 8);
  (void)ws.matrix_i8(64, 64);   // exceeds the first block
  (void)ws.matrix_i32(64, 64);  // and the default growth once more?
  EXPECT_GE(ws.block_count(), 2u);
  const size_t peak = ws.peak();
  ws.reset();
  EXPECT_EQ(ws.block_count(), 1u);  // consolidated
  EXPECT_GE(ws.capacity(), peak);
  // The consolidated block now serves the same demand without growing.
  (void)ws.matrix_i8(8, 8);
  (void)ws.matrix_i8(64, 64);
  (void)ws.matrix_i32(64, 64);
  EXPECT_EQ(ws.block_count(), 1u);
}

// --- session forward path ----------------------------------------------------

TEST(InferenceSession, RepeatedForwardsAreBitIdentical) {
  Fixture fx;
  InferenceSession session(fx.acfg, fx.qm);
  const tensor::MatrixF out1 = session.forward(fx.input);
  const tensor::MatrixF out2 = session.forward(fx.input);
  EXPECT_EQ(out1, out2);
}

TEST(InferenceSession, MatchesAcceleratorForward) {
  Fixture fx;
  accel::ProteaAccelerator acc(fx.acfg);
  acc.load_model(fx.qm);
  const tensor::MatrixF expected = acc.forward(fx.input);

  InferenceSession session(fx.acfg, fx.qm);
  EXPECT_EQ(session.forward(fx.input), expected);
}

TEST(InferenceSession, AcceleratorForwardStableAcrossRepeats) {
  // The accelerator now routes through the same arena-backed path; its
  // repeated forwards must stay bit-identical (arena reuse is invisible).
  Fixture fx;
  accel::ProteaAccelerator acc(fx.acfg);
  acc.load_model(fx.qm);
  const tensor::MatrixF out1 = acc.forward(fx.input);
  std::vector<accel::AccelLayerTrace> traces;
  const tensor::MatrixF out2 = acc.forward(fx.input, &traces);
  const tensor::MatrixF out3 = acc.forward(fx.input);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out1, out3);
  ASSERT_EQ(traces.size(), fx.cfg.num_layers);
  EXPECT_EQ(traces[0].heads.size(), fx.cfg.num_heads);
}

TEST(InferenceSession, RejectsOversizedModel) {
  Fixture fx;
  accel::AccelConfig tiny = fx.acfg;
  tiny.synth.max_seq_len = 8;  // model needs 16
  EXPECT_THROW(InferenceSession(tiny, fx.qm), std::invalid_argument);
}

// --- zero-allocation guarantee ----------------------------------------------

TEST(InferenceSession, SteadyStateForwardMakesZeroHeapAllocations) {
  Fixture fx;
  InferenceSession session(fx.acfg, fx.qm);
  tensor::MatrixF out;
  // Warmups: first forward grows the arena, the second consolidates it
  // at reset, the third runs on the settled single block.
  session.forward_into(fx.input, out);
  session.forward_into(fx.input, out);
  session.forward_into(fx.input, out);

  const uint64_t before = g_alloc_count.load();
  session.forward_into(fx.input, out);
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in steady-state forward";
  EXPECT_EQ(session.workspace().block_count(), 1u);
}

TEST(GenerationSession, SteadyStateDecodeStepMakesZeroHeapAllocations) {
  // The generation twin of the forward guarantee: after prefill, EVERY
  // decode_step — at any cached length up to capacity — must run without
  // heap allocations. The session constructor warms its arena with one
  // worst-case step, so no per-step warmup is needed.
  ref::ModelConfig cfg;
  cfg.seq_len = 12;
  cfg.d_model = 48;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.activation = ref::Activation::kGelu;
  const auto weights = ref::make_random_decoder_weights(cfg, 140);
  util::Xoshiro256 rng(141);
  tensor::MatrixF memory(8, cfg.d_model);
  tensor::MatrixF calib(cfg.seq_len, cfg.d_model);
  tensor::MatrixF token(1, cfg.d_model);
  for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
  for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
  for (float& x : token.flat()) x = static_cast<float>(rng.normal());
  const auto qd = accel::prepare_decoder(weights, calib, memory);

  const accel::AccelConfig acfg;
  GenerationSession session(acfg, qd);
  tensor::MatrixF states;
  tensor::MatrixF state(1, cfg.d_model);  // preallocated output row
  session.prefill(calib.slice_rows(0, 2), memory, states);

  const uint64_t before = g_alloc_count.load();
  while (session.position() < session.capacity()) {
    session.decode_step(token, state);
  }
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across "
      << (cfg.seq_len - 2) << " steady-state decode steps";
  // The pin above also covers block-table growth (pre-reserved at
  // configure) and pool free-list churn.
}

TEST(GenerationSession, PagedChunkedDecodeStepsStayAllocationFree) {
  // Single-token blocks + chunked prefill is the worst case for the
  // paged bookkeeping: every decode step crosses a block boundary, so
  // each one pops the pool free list and grows the block table — all of
  // which must come from storage pre-reserved at configure().
  ref::ModelConfig cfg;
  cfg.seq_len = 12;
  cfg.d_model = 48;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.activation = ref::Activation::kGelu;
  const auto weights = ref::make_random_decoder_weights(cfg, 150);
  util::Xoshiro256 rng(151);
  tensor::MatrixF memory(8, cfg.d_model);
  tensor::MatrixF calib(cfg.seq_len, cfg.d_model);
  tensor::MatrixF token(1, cfg.d_model);
  for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
  for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
  for (float& x : token.flat()) x = static_cast<float>(rng.normal());
  const auto qd = accel::prepare_decoder(weights, calib, memory);

  const accel::AccelConfig acfg;
  GenerationOptions opts;
  opts.kv_block_rows = 1;  // a block per token
  opts.prefill_chunk = 3;
  GenerationSession session(acfg, qd, nullptr, opts);
  tensor::MatrixF states;
  tensor::MatrixF state(1, cfg.d_model);
  session.prefill(calib.slice_rows(0, 7), memory, states);

  const uint64_t before = g_alloc_count.load();
  while (session.position() < session.capacity()) {
    session.decode_step(token, state);
  }
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in paged decode steps";
}

TEST(GenerationSession, ForkedCowDecodeStaysAllocationFree) {
  // The beam-search steady state: fork (refcount adoption into the
  // pre-reserved block table), divergent decode (write-triggered block
  // copies drawn from the pre-carved pool), retire, re-fork — all of it
  // must run without heap allocations once the sessions are warm. The
  // fork point deliberately straddles a block so every child pays a COW
  // copy inside the counted region.
  ref::ModelConfig cfg;
  cfg.seq_len = 12;
  cfg.d_model = 48;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.activation = ref::Activation::kGelu;
  const auto weights = ref::make_random_decoder_weights(cfg, 160);
  util::Xoshiro256 rng(161);
  tensor::MatrixF memory(8, cfg.d_model);
  tensor::MatrixF calib(cfg.seq_len, cfg.d_model);
  tensor::MatrixF token(1, cfg.d_model);
  for (float& x : memory.flat()) x = static_cast<float>(rng.normal());
  for (float& x : calib.flat()) x = static_cast<float>(rng.normal());
  for (float& x : token.flat()) x = static_cast<float>(rng.normal());
  const auto qd = accel::prepare_decoder(weights, calib, memory);

  const accel::AccelConfig acfg;
  KvBlockPool pool;
  pool.configure(/*blocks=*/12, /*block_rows=*/4,
                 cfg.num_layers * cfg.num_heads * 2 * cfg.head_dim());
  GenerationOptions opts;
  opts.kv_block_rows = 4;
  opts.kv_pool = &pool;
  GenerationSession parent(acfg, qd, nullptr, opts);
  GenerationSession child(acfg, qd, nullptr, opts);

  tensor::MatrixF states;
  tensor::MatrixF state(1, cfg.d_model);
  parent.prefill(calib.slice_rows(0, 6), memory, states);  // mid-block

  const uint64_t before = g_alloc_count.load();
  for (int round = 0; round < 3; ++round) {  // fork / diverge / re-fork
    child.fork_from(parent);
    while (child.position() < child.capacity()) {
      child.decode_step(token, state);
    }
    child.end_sequence();
  }
  while (parent.position() < parent.capacity()) {
    parent.decode_step(token, state);  // parent COWs its tail block too
  }
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u)
      << (after - before)
      << " heap allocations across forked COW decode rounds";
  EXPECT_GT(pool.cow_copies(), 0u);  // the copies actually happened
  parent.end_sequence();
  child.end_sequence();
  EXPECT_EQ(pool.used_blocks(), 0u);
}

// --- batch scheduler ---------------------------------------------------------

TEST(BatchScheduler, BatchOfDuplicatesMatchesBatchOfOne) {
  Fixture fx;
  InferenceSession session(fx.acfg, fx.qm);
  const tensor::MatrixF expected = session.forward(fx.input);

  BatchScheduler scheduler(fx.acfg, fx.qm);
  const std::vector<tensor::MatrixF> inputs(8, fx.input);
  BatchOptions opts;
  opts.threads = 4;
  const auto outputs = scheduler.run_batched(inputs, opts);
  ASSERT_EQ(outputs.size(), 8u);
  for (const auto& out : outputs) EXPECT_EQ(out, expected);
}

TEST(BatchScheduler, BatchedMatchesSerialOnDistinctInputs) {
  Fixture fx;
  std::vector<tensor::MatrixF> inputs;
  for (uint32_t i = 0; i < 8; ++i) {
    inputs.push_back(ref::make_random_input(fx.cfg, 300 + i));
  }
  BatchScheduler scheduler(fx.acfg, fx.qm);
  const auto serial = scheduler.run_serial(inputs);
  BatchOptions opts;
  opts.threads = 4;
  const auto batched = scheduler.run_batched(inputs, opts);
  ASSERT_EQ(serial.size(), batched.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], batched[i]) << "sequence " << i;
  }
}

TEST(BatchScheduler, StrictTwoStageModeMatchesSerial) {
  // mha_slots = ffn_slots = 1 is the paper's single accelerator: at most
  // one sequence in each module, overlap across modules only.
  Fixture fx;
  std::vector<tensor::MatrixF> inputs;
  for (uint32_t i = 0; i < 5; ++i) {
    inputs.push_back(ref::make_random_input(fx.cfg, 400 + i));
  }
  BatchScheduler scheduler(fx.acfg, fx.qm);
  const auto serial = scheduler.run_serial(inputs);
  BatchOptions opts;
  opts.threads = 3;
  opts.mha_slots = 1;
  opts.ffn_slots = 1;
  const auto batched = scheduler.run_batched(inputs, opts);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], batched[i]) << "sequence " << i;
  }
}

TEST(BatchScheduler, ExecutedScheduleMatchesAnalyticPipelineModel) {
  // The virtual-time replay of the scheduler's real task graph on one
  // MHA + one FFN module must land cycle-exactly on the analytic
  // two-stage pipeline estimate — the cross-check that what we execute
  // is what batch_pipeline.cpp predicts.
  Fixture fx(/*layers=*/3);
  BatchScheduler scheduler(fx.acfg, fx.qm);
  for (uint32_t batch : {1u, 2u, 3u, 5u, 8u, 16u}) {
    const auto predicted = scheduler.predicted(batch);
    EXPECT_EQ(scheduler.simulate_pipeline_cycles(batch),
              predicted.pipelined_cycles)
        << "batch " << batch;
  }
}

TEST(BatchScheduler, PredictedSpeedupIsRealizedInVirtualTime) {
  Fixture fx;
  BatchScheduler scheduler(fx.acfg, fx.qm);
  const auto report = scheduler.predicted(8);
  EXPECT_GT(report.speedup_vs_serial, 1.0);
  const double replay_speedup =
      static_cast<double>(report.serial_cycles) /
      static_cast<double>(scheduler.simulate_pipeline_cycles(8));
  EXPECT_NEAR(replay_speedup, report.speedup_vs_serial, 1e-12);
}

TEST(BatchScheduler, RejectsBadOptions) {
  Fixture fx;
  BatchScheduler scheduler(fx.acfg, fx.qm);
  const std::vector<tensor::MatrixF> inputs(2, fx.input);
  BatchOptions opts;
  opts.threads = 0;
  EXPECT_THROW(scheduler.run_batched(inputs, opts), std::invalid_argument);
  EXPECT_THROW(scheduler.simulate_pipeline_cycles(0), std::invalid_argument);
}

TEST(BatchScheduler, PropagatesWorkerExceptions) {
  Fixture fx;
  BatchScheduler scheduler(fx.acfg, fx.qm);
  std::vector<tensor::MatrixF> inputs(4, fx.input);
  inputs[2] = tensor::MatrixF(3, 3);  // wrong shape -> worker throws
  BatchOptions opts;
  opts.threads = 2;
  EXPECT_THROW(scheduler.run_batched(inputs, opts), std::invalid_argument);
}

TEST(BatchScheduler, MidStageThrowReleasesModuleSlots) {
  // A throw while a worker HOLDS a module slot must release it (RAII
  // stage bracket) — leaking it would deadlock the remaining workers on
  // the single-slot semaphore instead of propagating the error.
  Fixture fx;
  accel::QuantizedModel broken = fx.qm;
  // Non-power-of-two scale ratio -> run_layernorm throws inside the FFN
  // stage, after the worker has acquired the FFN module slot.
  broken.layers[0].scales.proj *= 3.0;
  BatchScheduler scheduler(fx.acfg, std::move(broken));
  const std::vector<tensor::MatrixF> inputs(4, fx.input);
  BatchOptions opts;
  opts.threads = 2;
  opts.mha_slots = 1;
  opts.ffn_slots = 1;
  EXPECT_THROW(scheduler.run_batched(inputs, opts), std::invalid_argument);
}

}  // namespace
}  // namespace protea::runtime

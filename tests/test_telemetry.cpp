// Tests for the runtime telemetry subsystem (runtime/telemetry.hpp):
//
//   * the tentpole determinism gate — with telemetry armed, the traffic
//     engine's VIRTUAL-TIME event sequence (type, seq, round, payloads)
//     is bit-identical between the stepped loop and the worker-pool
//     mode under a preemption storm; wall_ns is a non-compared
//     annotation, and arming telemetry never perturbs outputs;
//   * histogram percentiles against a sorted-reference nearest-rank
//     computation — exact below the linear range, within the 1/8
//     relative-error bound above it, never past the observed max;
//   * ring wraparound keeps the NEWEST `capacity` events while total()
//     and the per-type counters keep counting;
//   * steady-state recording and histogram observation are
//     allocation-free (global operator-new counter, the PR-4 pin
//     pattern);
//   * exporters: Chrome-trace JSON wraps the expected tracks, metric
//     samples carry the percentile vocabulary;
//   * compiled-out builds (PROTEA_TELEMETRY off): configure and the
//     registry setters throw std::logic_error, record/observe are inert
//     no-ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "ref/weights.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"

// --- global allocation counter ----------------------------------------------
// Every operator new in this binary bumps g_alloc_count; the zero-alloc
// test reads the counter around steady-state recording. Deletes are not
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

namespace protea {
namespace {

using runtime::Telemetry;
using runtime::TraceEvent;
using runtime::TraceEventType;
using runtime::TraceRecorder;
using runtime::TrafficPriority;

#ifdef PROTEA_TELEMETRY

// --- traffic-engine fixture (mirrors tests/test_traffic.cpp) ----------------

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
};

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

TEST(Telemetry, SteppedAndThreadedVirtualSequencesBitIdentical) {
  // The tentpole determinism gate: a preemption storm (pool too small
  // for the working set, kAuto recovery so both swap and recompute
  // fire, failpoints layered on top) recorded by two independent
  // Telemetry bundles — the stepped and threaded traces must agree on
  // EVERY deterministic field of EVERY event, and the virtual-time
  // histograms must be identical distributions. Only wall_ns differs.
  // Two inputs: the open storm (staggered arrivals, three classes) and
  // the same requests as a closed batch (all at round 0 in one class,
  // through the GenerationRequest overload).
  TrafficFixture fx;
  constexpr size_t kRequests = 10;
  constexpr uint64_t kSeed = 2000;
  runtime::TrafficEngine engine(fx.acfg, fx.qd);

  for (const bool closed_batch : {false, true}) {
    SCOPED_TRACE(closed_batch ? "closed batch" : "open storm");
    const auto run = [&](const runtime::TrafficOptions& opts) {
      auto mix = build_mix(fx, kRequests, kSeed);
      if (!closed_batch) return engine.run(mix, opts);
      std::vector<runtime::GenerationRequest> batch;
      for (auto& r : mix) batch.push_back(std::move(r.gen));
      return engine.run(batch, opts);
    };

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
    Telemetry tel_a;
    tel_a.configure();
    stepped.telemetry = &tel_a;

    const auto a = run(stepped);

    runtime::TrafficOptions threaded = stepped;
    threaded.threads = 4;
    threaded.mha_slots = 2;
    threaded.ffn_slots = 2;
    Telemetry tel_b;
    tel_b.configure();
    threaded.telemetry = &tel_b;
    const auto b = run(threaded);

    // Outputs stay bit-identical with telemetry armed (the hooks must not
    // perturb the schedule).
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].outcome, b[i].outcome) << i;
      EXPECT_EQ(a[i].steps, b[i].steps) << i;
      ASSERT_EQ(a[i].states, b[i].states) << i;
    }

    const std::vector<TraceEvent> ea = tel_a.trace.snapshot();
    const std::vector<TraceEvent> eb = tel_b.trace.snapshot();
    EXPECT_EQ(tel_a.trace.total(), tel_b.trace.total());
    ASSERT_EQ(ea.size(), eb.size());
    EXPECT_TRUE(virtual_equal(ea, eb));
    for (size_t i = 0; i < ea.size(); ++i) {
      ASSERT_TRUE(virtual_equal(ea[i], eb[i]))
          << "event " << i << ": " << runtime::trace_event_name(ea[i].type)
          << " vs " << runtime::trace_event_name(eb[i].type);
    }

    // The storm actually exercised the lifecycle: every stage left
    // events behind.
    for (const TraceEventType t :
         {TraceEventType::kAdmit, TraceEventType::kPrefillChunk,
          TraceEventType::kDecodeStep, TraceEventType::kPreempt,
          TraceEventType::kRestore, TraceEventType::kComplete,
          TraceEventType::kPoolOccupancy}) {
      EXPECT_GT(tel_a.trace.count(t), 0u) << runtime::trace_event_name(t);
      EXPECT_EQ(tel_a.trace.count(t), tel_b.trace.count(t))
          << runtime::trace_event_name(t);
    }
    EXPECT_EQ(tel_a.trace.count(TraceEventType::kAdmit), kRequests);

    // Virtual-time histograms are identical distributions; wall-clock
    // instruments (ttft_us) are intentionally exempt.
    const auto expect_same_hist = [](const runtime::Histogram& x,
                                     const runtime::Histogram& y,
                                     const char* what) {
      EXPECT_EQ(x.count(), y.count()) << what;
      EXPECT_EQ(x.sum(), y.sum()) << what;
      EXPECT_EQ(x.min(), y.min()) << what;
      EXPECT_EQ(x.max(), y.max()) << what;
      for (const double p : {50.0, 95.0, 99.0}) {
        EXPECT_EQ(x.percentile(p), y.percentile(p)) << what << " p" << p;
      }
    };
    expect_same_hist(*tel_a.ttft_rounds, *tel_b.ttft_rounds, "ttft_rounds");
    expect_same_hist(*tel_a.queue_wait_rounds, *tel_b.queue_wait_rounds,
                     "queue_wait_rounds");
    expect_same_hist(*tel_a.token_gap_rounds, *tel_b.token_gap_rounds,
                     "token_gap_rounds");
    expect_same_hist(*tel_a.preempt_downtime_rounds,
                     *tel_b.preempt_downtime_rounds,
                     "preempt_downtime_rounds");
    expect_same_hist(*tel_a.pool_occupancy_blocks,
                     *tel_b.pool_occupancy_blocks, "pool_occupancy_blocks");
    EXPECT_GT(tel_a.ttft_rounds->count(), 0u);
    EXPECT_GT(tel_a.preempt_downtime_rounds->count(), 0u);

    // The exporters see the same storm: spans + counter track present.
    const std::string json = runtime::chrome_trace_json(ea);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    const auto samples = runtime::metric_samples(tel_a);
    EXPECT_FALSE(samples.empty());
    bool saw_p99 = false;
    for (const auto& s : samples) saw_p99 |= s.metric == "p99";
    EXPECT_TRUE(saw_p99);
  }
}

TEST(Telemetry, HistogramMatchesSortedReference) {
  // Nearest-rank percentiles against the sorted reference: exact in the
  // linear range, within the documented 1/8 relative error above it,
  // and never past the observed maximum (the top bucket's bound is
  // clipped to the true max).
  util::Xoshiro256 rng(77);
  std::vector<uint64_t> values;
  runtime::Histogram hist;
  for (size_t i = 0; i < 4000; ++i) {
    // Mixed regimes: exact small values, mid-range, heavy tail.
    uint64_t v = 0;
    switch (i % 3) {
      case 0: v = rng.next() % 64; break;
      case 1: v = 64 + rng.next() % 4000; break;
      default: v = (rng.next() % 1000) * (rng.next() % 1000); break;
    }
    values.push_back(v);
    hist.observe(v);
  }
  std::sort(values.begin(), values.end());
  ASSERT_EQ(hist.count(), values.size());
  EXPECT_EQ(hist.min(), values.front());
  EXPECT_EQ(hist.max(), values.back());

  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0,
                         99.9, 100.0}) {
    const size_t rank = static_cast<size_t>(
        std::max<double>(1.0, std::ceil(p / 100.0 *
                                        static_cast<double>(values.size()))));
    const uint64_t ref = values[rank - 1];
    const uint64_t got = hist.percentile(p);
    if (ref < runtime::Histogram::kLinearMax) {
      EXPECT_EQ(got, ref) << "p" << p;
    } else {
      EXPECT_GE(got, ref) << "p" << p;
      EXPECT_LE(got, ref + ref / runtime::Histogram::kSubBuckets)
          << "p" << p;
    }
    EXPECT_LE(got, hist.max()) << "p" << p;
  }
}

TEST(Telemetry, RingWraparoundKeepsNewest) {
  TraceRecorder rec;
  rec.configure(8);
  ASSERT_TRUE(rec.configured());
  for (uint32_t i = 0; i < 20; ++i) {
    rec.set_round(i);
    rec.record(TraceEventType::kDecodeStep, i, i * 10, 0);
  }
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.count(TraceEventType::kDecodeStep), 20u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    const uint32_t want = static_cast<uint32_t>(12 + i);  // newest 8
    EXPECT_EQ(events[i].seq, want);
    EXPECT_EQ(events[i].round, want);
    EXPECT_EQ(events[i].a, want * 10);
  }
  rec.clear();
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(Telemetry, SteadyStateRecordingDoesNotAllocate) {
  // The zero-alloc pin: once configured, recording events (through ring
  // wraparound), observing histograms and bumping counters/gauges must
  // not touch the heap.
  Telemetry tel;
  tel.configure(runtime::TelemetryOptions{.trace_capacity = 256});
  runtime::Counter& ctr = tel.metrics.add_counter("pin_counter");
  runtime::Gauge& gauge = tel.metrics.add_gauge("pin_gauge");
  runtime::Histogram& hist = *tel.metrics.find_histogram("ttft_rounds");

  const uint64_t before = g_alloc_count.load();
  for (uint32_t i = 0; i < 2048; ++i) {  // 8x the ring: wraps repeatedly
    tel.trace.set_round(i);
    tel.trace.record(TraceEventType::kDecodeStep, i % 7, i, i * 3);
    hist.observe(i % 977);
    ctr.add(1);
    gauge.set(static_cast<double>(i));
  }
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tel.trace.total(), 2048u);
  EXPECT_EQ(ctr.value(), 2048u);
}

#else  // !PROTEA_TELEMETRY

TEST(Telemetry, SettersThrowWhenCompiledOut) {
  // Compiled-out contract (mirror of the failpoint setters): anything
  // that would enable telemetry throws, everything read-only or on the
  // hot path is an inert no-op.
  Telemetry tel;
  EXPECT_THROW(tel.configure(), std::logic_error);
  EXPECT_FALSE(tel.enabled());
  EXPECT_THROW(tel.metrics.add_counter("x"), std::logic_error);
  EXPECT_THROW(tel.metrics.add_gauge("x"), std::logic_error);
  EXPECT_THROW(tel.metrics.add_histogram("x"), std::logic_error);
  EXPECT_EQ(tel.metrics.find_counter("x"), nullptr);

  TraceRecorder rec;
  EXPECT_THROW(rec.configure(16), std::logic_error);
  EXPECT_FALSE(rec.configured());
  rec.record(TraceEventType::kAdmit, 0);  // inert, must not crash
  rec.set_round(3);
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_TRUE(runtime::metric_samples(tel).empty());
}

#endif  // PROTEA_TELEMETRY

}  // namespace
}  // namespace protea

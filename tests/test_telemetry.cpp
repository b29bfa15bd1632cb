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
//   * the Chrome-trace exporter wraps the expected tracks;
//   * a re-configure empties the ring and every standard instrument;
//   * compiled-out builds (PROTEA_TELEMETRY off): configure throws
//     std::logic_error, record is an inert no-op and the instruments
//     stay null.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "traffic_fixture.hpp"
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

#ifdef PROTEA_TELEMETRY

using test::build_mix;
using test::TrafficFixture;

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
    stepped.fail_skip = 6;
    stepped.fail_count = 3;
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

    // The exporter sees the same storm: spans + counter track present.
    const std::string json = runtime::chrome_trace_json(ea);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
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
  // wraparound) and observing histograms must not touch the heap.
  Telemetry tel;
  tel.configure(runtime::TelemetryOptions{.trace_capacity = 256});
  runtime::Histogram& hist = *tel.ttft_rounds;

  const uint64_t before = g_alloc_count.load();
  for (uint32_t i = 0; i < 2048; ++i) {  // 8x the ring: wraps repeatedly
    tel.trace.set_round(i);
    tel.trace.record(TraceEventType::kDecodeStep, i % 7, i, i * 3);
    hist.observe(i % 977);
  }
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(tel.trace.total(), 2048u);
  EXPECT_EQ(hist.count(), 2048u);
}

#else  // !PROTEA_TELEMETRY

TEST(Telemetry, SettersThrowWhenCompiledOut) {
  // Compiled-out contract: anything that would enable telemetry throws,
  // everything read-only or on the hot path is an inert no-op.
  Telemetry tel;
  EXPECT_THROW(tel.configure(), std::logic_error);
  EXPECT_FALSE(tel.enabled());

  TraceRecorder rec;
  EXPECT_THROW(rec.configure(16), std::logic_error);
  EXPECT_FALSE(rec.configured());
  rec.record(TraceEventType::kAdmit, 0);  // inert, must not crash
  rec.set_round(3);
  EXPECT_EQ(rec.total(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

#endif  // PROTEA_TELEMETRY

/// The six standard instruments, null while the bundle is unconfigured.
std::array<runtime::Histogram*, 6> instruments(Telemetry& tel) {
  const auto ptr = [](auto& h) -> runtime::Histogram* {
    return h == nullptr ? nullptr : &*h;
  };
  return {ptr(tel.ttft_rounds),           ptr(tel.queue_wait_rounds),
          ptr(tel.token_gap_rounds),      ptr(tel.preempt_downtime_rounds),
          ptr(tel.pool_occupancy_blocks), ptr(tel.ttft_us)};
}

TEST(Telemetry, ReconfigureEmptiesRingAndEveryInstrument) {
  // configure() is idempotent: a second call empties the ring and every
  // standard instrument, so one bundle can record run after run.
  Telemetry tel;
#ifdef PROTEA_TELEMETRY
  tel.configure(runtime::TelemetryOptions{.trace_capacity = 16});
  for (uint32_t i = 0; i < 5; ++i) {
    tel.trace.record(TraceEventType::kAdmit, i, i, 0);
  }
  for (runtime::Histogram* h : instruments(tel)) {
    ASSERT_NE(h, nullptr);
    h->observe(7);
  }
  ASSERT_EQ(tel.trace.total(), 5u);

  tel.configure(runtime::TelemetryOptions{.trace_capacity = 16});
  EXPECT_TRUE(tel.enabled());
  EXPECT_EQ(tel.trace.total(), 0u);
  EXPECT_TRUE(tel.trace.snapshot().empty());
  for (runtime::Histogram* h : instruments(tel)) {
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 0u);
  }
#else
  EXPECT_THROW(tel.configure(), std::logic_error);
  for (runtime::Histogram* h : instruments(tel)) EXPECT_EQ(h, nullptr);
#endif
}

}  // namespace
}  // namespace protea

// Runtime telemetry: request-lifecycle tracing, latency histograms and
// Chrome-trace export for the serving stack.
//
// Three pieces, all preallocated so the steady state never touches the
// heap (pinned by the counting test in tests/test_telemetry.cpp):
//
//   * TraceRecorder — a fixed-capacity ring of typed events (admit,
//     shed, prefill-chunk, decode-step, preempt, swap-out/in, restore,
//     prefix-adopt/publish/evict, deadline-miss, complete, pool
//     occupancy, failpoint trips), each stamped with BOTH the engine's
//     virtual-time round and a wall-clock nanosecond annotation. Hooks
//     in TrafficEngine, KvBlockPool and PrefixCache feed it.
//   * Histogram — log-bucketed latency histograms (TTFT, per-token
//     latency, queue wait, preemption downtime, pool occupancy) with
//     nearest-rank p50/p95/p99 extraction: exact below the linear
//     threshold, bounded relative error (<= 1/8) above it. Telemetry
//     owns the standard ones as named members.
//   * Exporter — Chrome trace-event JSON (loads in chrome://tracing /
//     Perfetto: one async track per sequence plus pool counter and
//     scheduler tracks).
//
// Determinism contract: every event's VIRTUAL fields (type, seq, round,
// a, b) are produced by coordinator-serial code in the traffic engine,
// so the recorded sequence is bit-identical between stepped and threaded
// runs; wall_ns is the one non-compared annotation.
//
// Compile-out: under PROTEA_TELEMETRY=OFF the recorder compiles to an
// empty shell — configure() throws std::logic_error, record() is a
// no-op and the instruments stay null — so a production build pays
// nothing, not even the ring's memory.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/stopwatch.hpp"

namespace protea::runtime {

// --- trace events ------------------------------------------------------------

/// Request-lifecycle event taxonomy. Payload fields `a`/`b` per type:
///   kAdmit         a = queue wait (rounds)   b = prompt rows
///   kShed          a = TrafficOutcome code   b = 0
///   kPrefillChunk  a = target cached rows    b = 0
///   kDecodeStep    a = decode step index     b = 0
///   kPreempt       a = 1 swap / 0 recompute  b = cached rows evicted
///   kSwapOut       a = bytes spilled         b = rows spilled
///   kSwapIn        a = bytes restored        b = rows restored
///   kRestore       a = downtime (rounds)     b = path (0 swap-in,
///                                                1 re-prefill, 2 replay)
///   kPrefixAdopt   a = rows adopted          b = blocks adopted
///   kPrefixPublish a = rows published        b = new blocks inserted
///   kPrefixEvict   a = blocks freed          b = 0
///   kDeadlineMiss  a = deadline round        b = 0
///   kComplete      a = TrafficOutcome code   b = latency (rounds)
///   kPoolOccupancy a = used blocks           b = free blocks
///   kFailpointTrip a = trips so far          b = 0
enum class TraceEventType : uint32_t {
  kAdmit = 0,
  kShed,
  kPrefillChunk,
  kDecodeStep,
  kPreempt,
  kSwapOut,
  kSwapIn,
  kRestore,
  kPrefixAdopt,
  kPrefixPublish,
  kPrefixEvict,
  kDeadlineMiss,
  kComplete,
  kPoolOccupancy,
  kFailpointTrip,
};
inline constexpr size_t kTraceEventTypes = 15;
const char* trace_event_name(TraceEventType t);

/// seq for events not tied to one request (pool occupancy, failpoint
/// trips, cache evictions).
inline constexpr uint32_t kNoTraceSeq = UINT32_MAX;

/// One recorded event. POD — the ring holds these by value; recording
/// copies six words and never allocates.
struct TraceEvent {
  TraceEventType type = TraceEventType::kAdmit;
  uint32_t seq = kNoTraceSeq;  // request index, kNoTraceSeq when global
  uint32_t round = 0;          // virtual time (scheduler rounds)
  uint64_t a = 0;              // payload, see the taxonomy above
  uint64_t b = 0;
  uint64_t wall_ns = 0;  // util::monotonic_ns() annotation, NOT compared
};

/// Equality over the deterministic fields only (wall_ns excluded) — the
/// stepped-vs-threaded bit-identity gates compare through this.
inline bool virtual_equal(const TraceEvent& x, const TraceEvent& y) {
  return x.type == y.type && x.seq == y.seq && x.round == y.round &&
         x.a == y.a && x.b == y.b;
}
bool virtual_equal(const std::vector<TraceEvent>& x,
                   const std::vector<TraceEvent>& y);

/// Fixed-capacity ring of TraceEvents. configure() preallocates; from
/// then on record() is mutex-guarded (hooks may fire from any thread
/// that touches the pool or cache), allocation-free, and keeps the
/// NEWEST `capacity` events on wraparound. The coordinator advances the
/// virtual clock via set_round(); hook emitters (pool, prefix cache)
/// inherit the current round so their events carry correct virtual time.
class TraceRecorder {
 public:
  /// Preallocates the ring. Throws std::logic_error when the build has
  /// PROTEA_TELEMETRY off.
  void configure(size_t capacity);
  bool configured() const;

  void record(TraceEventType type, uint32_t seq, uint64_t a = 0,
              uint64_t b = 0);
  void set_round(uint32_t round);
  uint32_t round() const;

  /// Events ever recorded (wraparound does not reset this).
  uint64_t total() const;
  /// Events of one type ever recorded.
  uint64_t count(TraceEventType t) const;
  /// Ring contents oldest -> newest. Allocates — NOT steady-state.
  std::vector<TraceEvent> snapshot() const;
  /// Empties the ring and zeroes the counters; capacity is kept.
  void clear();

#ifdef PROTEA_TELEMETRY

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  size_t head_ = 0;    // next write position
  size_t size_ = 0;    // live events (== capacity once wrapped)
  uint64_t total_ = 0;
  uint32_t round_ = 0;
  std::array<uint64_t, kTraceEventTypes> counts_{};
#endif
};

// --- histograms --------------------------------------------------------------

/// Log-linear histogram over uint64 values: one bucket per value below
/// kLinearMax (exact), then 8 linear sub-buckets per power-of-two range
/// (relative error <= 1/8). All buckets preallocated at construction;
/// observe() is branch + increment, allocation-free.
class Histogram {
 public:
  static constexpr uint64_t kLinearMax = 64;  // exact below this
  static constexpr size_t kSubBuckets = 8;    // per 2^k range above

  Histogram();

  void observe(uint64_t value);
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Nearest-rank percentile (p in [0, 100]): the upper bound of the
  /// bucket holding the ceil(p/100 * count)-th smallest observation.
  /// Exact for values < kLinearMax; within 1/8 relative error above.
  uint64_t percentile(double p) const;

  void reset();

  static size_t bucket_index(uint64_t value);
  /// Largest value mapping to bucket `index` (the reported percentile
  /// representative).
  static uint64_t bucket_upper_bound(size_t index);
  static size_t num_buckets();

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// --- the bundle --------------------------------------------------------------

struct TelemetryOptions {
  size_t trace_capacity = 1 << 16;  // ring slots (events)
};

/// One object the engine takes a pointer to (TrafficOptions::telemetry).
/// configure() preallocates the ring and the standard serving
/// instruments; a re-configure empties both. A default-constructed
/// (unconfigured) Telemetry is inert and safe to pass around. Throws
/// std::logic_error when PROTEA_TELEMETRY is off.
class Telemetry {
 public:
  void configure(const TelemetryOptions& opts = {});
  bool enabled() const;

  TraceRecorder trace;

  // Standard instruments, null until configure() (virtual-time
  // histograms are deterministic; *_ms/_us ones are wall annotations).
  std::unique_ptr<Histogram> ttft_rounds;
  std::unique_ptr<Histogram> queue_wait_rounds;
  std::unique_ptr<Histogram> token_gap_rounds;  // per-token latency, rounds
  std::unique_ptr<Histogram> preempt_downtime_rounds;
  std::unique_ptr<Histogram> pool_occupancy_blocks;
  std::unique_ptr<Histogram> ttft_us;  // wall-clock annotation

 private:
  bool configured_ = false;
};

// --- exporters ---------------------------------------------------------------

/// Serializes events as Chrome trace-event JSON ({"traceEvents": [...]}):
/// per-sequence async spans (ph "b"/"e", id = seq) from kAdmit to
/// kComplete/kShed, instant events ("i") for everything else on the
/// owning sequence's track, a "C" counter track for pool occupancy, and
/// thread-name metadata. ts is wall_ns / 1000 (microseconds). Load the
/// file in chrome://tracing or https://ui.perfetto.dev.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);
/// chrome_trace_json straight to a file; throws std::runtime_error when
/// the file cannot be written.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events);

}  // namespace protea::runtime

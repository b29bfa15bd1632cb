// The serving engine: continuous batching over GenerationSessions with
// victim preemption, priority classes, deadlines, cooperative
// cancellation and graceful load shedding, driven by a seeded synthetic
// trace generator. It is the one request loop of the runtime: open
// traffic (TrafficRequest, with arrivals and SLO classes) and closed
// batches (plain GenerationRequests, all arriving at round 0 in one
// class) run through the same coordinator.
//
// Admission is OPTIMISTIC: only the first prefill chunk is reserved and
// block tables grow on demand, so the pool is never held idle by
// worst-case reservations. When the pool comes up short, a strictly
// worse-ranked victim is preempted instead of the requester waiting
// forever. Two recovery flavors, both bit-exact:
//
//   * swap-out — the victim's block-table contents spill into a side
//     buffer (KvCache::swap_out) and come back by rescatter
//     (try_swap_in); the cross K/V is recomputed from the memory at
//     restore, which is deterministic, so a restored sequence is
//     byte-identical to one never preempted.
//   * drop-and-recompute — the victim releases everything and is
//     re-prefilled from its retained token history (prompt rows + the
//     embeddings already fed) through the chunked-prefill path, which
//     is bit-identical for any chunking. Dense seats (kv_block_rows = 0)
//     have no blocks to spill and always recover this way.
//
// Scheduling is priority- and deadline-aware: requests are ranked by
// (priority class, absolute deadline, arrival, submission order) — a
// total order, so preemption can never cycle and the best-ranked request
// always progresses. Past a configurable overload watermark the engine
// sheds the worst-ranked queued requests with a reason instead of
// parking them forever; expired or cancelled requests stop cooperatively
// at the next round boundary with their partial output intact.
//
// Determinism: ONE coordinator drives rounds in both modes. Every pool
// mutation — admission, growth, preemption, restore — happens serially
// in the coordinator; threads > 1 only parallelizes the round's compute
// units (one prefill chunk or decode step per active seat) over a worker
// pool bracketed by the MHA/FFN module gates. Outputs AND SchedulerStats
// are therefore bit-identical between stepped and threaded runs (only
// wall-clock fields differ), which is what makes the fault-injection
// stress harness (bench_traffic) a real invariant gate rather than a
// smoke test.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"

namespace protea::runtime {

class Telemetry;  // runtime/telemetry.hpp

/// Priority classes, best first. The rank order is strict: an
/// interactive request can preempt a standard or batch one, never the
/// reverse.
enum class TrafficPriority : uint32_t {
  kInteractive = 0,
  kStandard = 1,
  kBatch = 2,
};
inline constexpr size_t kTrafficClasses = 3;
const char* traffic_priority_name(TrafficPriority p);

/// Terminal state of a request. Shedding always carries a reason string
/// in TrafficResult::shed_reason — reject-with-reason, never park
/// forever.
enum class TrafficOutcome : uint32_t {
  kPending = 0,        // engine-internal; never returned
  kCompleted,          // finished within its deadline (or had none)
  kCompletedLate,      // finished, but past its deadline
  kShedOverload,       // rejected at the overload watermark, never ran
  kShedDeadline,       // deadline expired before first admission
  kShedCapacity,       // cannot ever fit the pool / pool-exhaustion / stall
  kCancelled,          // cooperative cancel or cancel_on_deadline
  kFailed,             // a compute unit threw a non-capacity error
                       // (typically the caller's next_token callback)
};
const char* traffic_outcome_name(TrafficOutcome o);

/// How a preemption victim's KV state is recovered at restore.
enum class PreemptionRecovery : uint32_t {
  kSwapOut = 0,   // spill blocks to the side buffer, rescatter on restore
  kRecompute,     // release everything, re-prefill from token history
  kAuto,          // swap while a swap slot is free, recompute beyond
};

/// One traffic request: a generation request plus its SLO envelope.
struct TrafficRequest {
  GenerationRequest gen;
  TrafficPriority priority = TrafficPriority::kStandard;
  /// Virtual arrival time in scheduler rounds (deterministic; the
  /// coordinator fast-forwards idle gaps).
  uint32_t arrival_round = 0;
  /// Rounds after arrival by which the request must retire; 0 = none.
  uint32_t deadline_rounds = 0;
  /// true: an expired deadline cancels the request mid-flight (partial
  /// output returned). false: it keeps running and retires kCompletedLate.
  bool cancel_on_deadline = false;
  /// Optional cooperative cancel: checked at every round boundary; the
  /// request stops with its partial output and outcome kCancelled.
  std::shared_ptr<std::atomic<bool>> cancel;
};

struct TrafficResult {
  /// Output states for the rows actually computed (prefix rows processed
  /// so far + decode steps); empty when the request never ran.
  tensor::MatrixF states;
  uint32_t steps = 0;
  TrafficOutcome outcome = TrafficOutcome::kPending;
  std::string shed_reason;  // set for every shed/cancel outcome
  uint32_t admitted_round = 0;  // first admission (valid once admitted)
  uint32_t retired_round = 0;
  uint32_t latency_rounds = 0;  // retired - arrival (virtual time)
  double latency_ms = 0.0;      // wall clock, first admission -> retired
  uint32_t preemptions = 0;     // times this request was evicted
  bool deadline_missed = false;
};

struct TrafficOptions {
  size_t slots = 4;    // concurrent seats (live sessions)
  size_t threads = 1;  // > 1: per-round parallel unit dispatch
  uint32_t mha_slots = 0;  // module semaphore widths (0 -> worker count)
  uint32_t ffn_slots = 0;
  size_t prefill_chunk = 0;   // prompt rows per round (0 = whole prompt)
  /// Self-K/V rows per block of the owned pool (ignored when kv_pool is
  /// given). 0 gives every seat a private dense full-capacity cache and
  /// no pool: requests never wait for blocks, and a seat is preempted
  /// only when a better-ranked request needs the seat itself, always by
  /// drop-and-recompute. prefix_cache and failpoints need a pool, so
  /// combining them with 0 throws std::invalid_argument.
  size_t kv_block_rows = 16;
  /// Owned pool size in blocks (ignored when kv_pool is given or the
  /// cache is dense). 0 sizes it at min(slots, requests) x
  /// ceil(seq_len / kv_block_rows) blocks, so every seat can hold a
  /// full-capacity sequence and no request ever waits for blocks.
  size_t kv_pool_blocks = 0;
  KvBlockPool* kv_pool = nullptr;  // external pool (must outlive the run)
  PreemptionRecovery recovery = PreemptionRecovery::kAuto;
  /// Concurrently swapped-out victims the side buffer holds; victims
  /// beyond this fall back to drop-and-recompute.
  size_t swap_slots = 2;
  /// false disables victim preemption entirely (requests then stall
  /// until blocks free up, with the stall valve as the backstop).
  bool preemption = true;
  /// Cross-request prefix cache (runtime/prefix_cache.hpp): admissions
  /// adopt cached prompt blocks by refcount and reuse cached cross-K/V
  /// projections; completed prompts are published back. Every cache
  /// operation runs in the coordinator, so outputs AND all prefix
  /// counters stay bit-identical between stepped and threaded runs.
  /// Under pool pressure cold cache blocks are reclaimed before any live
  /// sequence is preempted or shed (KvBlockPool::set_reclaim_hook).
  bool prefix_cache = false;
  /// Overload watermark: when more than this many never-admitted
  /// requests are queued, the worst-ranked are shed with a reason.
  /// 0 = never shed on overload.
  size_t shed_queue_depth = 0;
  /// Deterministic fault injection, armed on the pool AFTER the session
  /// warm-up (so warm-up takes don't consume the schedule): skip this
  /// many uncredited takes, then fail the next `fail_count`. Cleared at
  /// the end of the run.
  uint64_t fail_skip = 0;
  uint64_t fail_count = 0;
  /// Consecutive no-progress rounds before the engine force-sheds the
  /// worst-ranked request (liveness backstop under forced exhaustion).
  size_t stall_limit = 4096;
  /// Self-K/V storage format for every seat, the owned pool's row width
  /// and the preemption-cost model's swap-byte estimates (see
  /// GenerationOptions::kv_storage). An external kv_pool must be
  /// configured for the matching row width.
  numeric::KvStorage kv_storage = numeric::KvStorage::kInt8;
  /// Runtime telemetry sink (runtime/telemetry.hpp): when non-null AND
  /// configured, the coordinator records the full request lifecycle
  /// (admit, shed, prefill chunks, decode steps, preempt, swap-out/in,
  /// restore, deadline misses, completions) plus pool-occupancy and
  /// prefix-cache events into its trace ring, and feeds the standard
  /// latency histograms (TTFT, queue wait, per-token gap, preemption
  /// downtime, pool occupancy). Every event is emitted from
  /// coordinator-serial code stamped with the virtual round, so the
  /// virtual-time event sequence is bit-identical between stepped and
  /// threaded runs (wall_ns is a non-compared annotation). An
  /// unconfigured Telemetry is inert; must outlive the run.
  Telemetry* telemetry = nullptr;
};

struct TrafficClassStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t completed_late = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_deadline = 0;
  uint64_t shed_capacity = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;  // unit errors (caller faults), not capacity sheds
  uint64_t preemptions = 0;   // evictions of this class's requests
  uint64_t swap_outs = 0;     // preemptions recovered by swap
  uint64_t recomputes = 0;    // preemptions recovered by re-prefill
  uint64_t restores = 0;      // successful restorations
  uint64_t deadline_misses = 0;
  uint64_t kv_block_waits = 0;  // admission/growth wait episodes
};

/// Per-class + aggregate counters for one run. Every field except
/// wall_ms is deterministic and bit-identical between stepped and
/// threaded modes (asserted by tests and the stress harness).
struct SchedulerStats {
  std::array<TrafficClassStats, kTrafficClasses> per_class{};
  uint64_t rounds = 0;
  uint64_t decode_steps = 0;
  uint64_t prefill_chunks = 0;
  uint64_t replayed_rows = 0;  // rows re-prefilled by drop-and-recompute
  uint64_t swap_bytes = 0;     // bytes spilled to the side buffer
  uint64_t kv_blocks_peak = 0;
  uint64_t failpoint_trips = 0;  // injected failures that fired this run
  /// Cross-request prefix cache (TrafficOptions::prefix_cache; all 0
  /// when off). Coordinator-serial, so deterministic in both modes.
  uint64_t prefix_hits = 0;          // admissions/restores that adopted blocks
  uint64_t prefix_misses = 0;
  uint64_t prefix_rows_adopted = 0;  // prefill rows skipped via adoption
  uint64_t prefix_bytes_saved = 0;   // adopted KV bytes + reused cross bytes
  uint64_t cross_kv_hits = 0;        // memory projections reused
  uint64_t cross_kv_misses = 0;
  uint64_t prefix_evictions = 0;     // cache blocks freed (pressure or caps)
  uint32_t max_active = 0;
  double wall_ms = 0.0;

  const TrafficClassStats& cls(TrafficPriority p) const {
    return per_class[static_cast<size_t>(p)];
  }
  uint64_t total(uint64_t TrafficClassStats::* field) const {
    uint64_t sum = 0;
    for (const TrafficClassStats& c : per_class) sum += c.*field;
    return sum;
  }
};

/// One flattened SchedulerStats field in the BENCH_*.json record
/// vocabulary (bench_common.hpp's {name, metric, value, unit} minus the
/// bench name the caller supplies).
struct StatSample {
  std::string metric;  // e.g. "preemptions", "interactive.completed"
  double value = 0.0;
  std::string unit = "count";
};

/// THE serializer for SchedulerStats: every aggregate counter, every
/// per-class counter (prefixed "<class>.") and the scalar fields, in a
/// fixed deterministic order. Benches append these to their BENCH_*.json
/// records and tests diff them — nobody hand-re-serializes the struct.
std::vector<StatSample> flatten_stats(const SchedulerStats& stats);

/// flatten_stats rendered as one JSON object {"metric": value, ...}
/// (doubles for wall_ms, integers otherwise; no trailing newline).
std::string scheduler_stats_json(const SchedulerStats& stats);

/// Continuous-batching engine with preemption, deadlines and shedding.
/// Owns the model (shared read-only by every seat); run() is reentrant
/// across calls.
class TrafficEngine {
 public:
  TrafficEngine(accel::AccelConfig config, accel::QuantizedDecoder model);

  /// Serves every request to its terminal outcome. Completed requests'
  /// outputs are bit-identical to an unconstrained run (preemption and
  /// recovery are invisible in the bits); cancelled requests return the
  /// prefix they computed.
  std::vector<TrafficResult> run(const std::vector<TrafficRequest>& requests,
                                 const TrafficOptions& opts = {});

  /// Closed batch: serves every request as a TrafficRequest arriving at
  /// round 0 in the standard class, so ranks follow submission order.
  /// Outputs are bit-identical for any slot, thread, module-slot,
  /// KV-layout or prefill-chunk choice.
  std::vector<TrafficResult> run(const std::vector<GenerationRequest>& requests,
                                 const TrafficOptions& opts = {});

  const SchedulerStats& last_run() const { return last_run_; }
  const accel::QuantizedDecoder& model() const { return model_; }
  const accel::AccelConfig& config() const { return config_; }

 private:
  accel::AccelConfig config_;
  accel::QuantizedDecoder model_;
  SchedulerStats last_run_;
};

/// Names of the closed-batch scheduler that TrafficEngine absorbed. Kept
/// only because the benchmark's solo reference (perfbench/src/
/// workloads.cpp) still names them, and the benchmark's files change
/// only together with the benchmark itself. New code uses the engine
/// names.
using GenerationScheduler = TrafficEngine;
using GenerationSchedulerOptions = TrafficOptions;
using GenerationResult = TrafficResult;

// --- synthetic trace generation ---------------------------------------------

/// One synthetic request descriptor. The harness maps items onto real
/// TrafficRequests (embeddings, policies) — the trace itself is pure
/// shape + timing, reproducible from the seed alone.
struct TraceItem {
  uint32_t arrival_round = 0;
  uint32_t prompt_rows = 1;
  uint32_t max_new = 1;
  TrafficPriority priority = TrafficPriority::kStandard;
  uint32_t deadline_rounds = 0;  // 0 = none
  bool cancel_on_deadline = false;
  bool sampled = false;  // stochastic decode policy (vs greedy)
  bool beam = false;     // beam-search group request
  uint64_t policy_seed = 0;
  /// Shared-prefix storm mode: index of the shared system prompt this
  /// request starts with (UINT32_MAX = none; prompt_rows then INCLUDES
  /// TraceConfig::shared_prefix_rows leading shared rows).
  uint32_t shared_prefix_id = UINT32_MAX;
};

/// Seeded synthetic traffic model: bursty Poisson arrivals (exponential
/// interarrivals whose rate jumps by burst_factor inside bursts),
/// bounded-Pareto heavy-tailed prompt/output lengths, and a
/// greedy/sampled/beam policy mix with priority classes and deadlines.
struct TraceConfig {
  size_t requests = 64;
  double mean_interarrival_rounds = 2.0;
  double burst_prob = 0.15;    // per-arrival chance to toggle burst state
  double burst_factor = 8.0;   // arrival-rate multiplier inside a burst
  double heavy_tail_alpha = 1.2;  // bounded-Pareto shape for lengths
  uint32_t min_prompt = 1;
  uint32_t max_prompt = 8;
  uint32_t min_new = 1;
  uint32_t max_new = 8;
  double sampled_fraction = 0.3;
  double beam_fraction = 0.0;
  double interactive_fraction = 0.25;
  double batch_fraction = 0.25;   // remainder is kStandard
  double deadline_fraction = 0.5;
  double deadline_slack = 3.0;    // deadline = slack x (prompt + max_new)
  double cancel_on_deadline_fraction = 0.0;
  uint64_t seed = 1;
  /// Shared-prefix storm mode (0 = off): every request draws one of this
  /// many distinct system prompts uniformly; its prompt becomes
  /// shared_prefix_rows shared rows + a bounded-Pareto unique tail of
  /// [min_prompt, max_prompt] rows (so prompt_rows always exceeds the
  /// shared span and adoption always leaves a tail to prefill).
  size_t shared_prefix_count = 0;
  uint32_t shared_prefix_rows = 0;
};

std::vector<TraceItem> generate_trace(const TraceConfig& config);

}  // namespace protea::runtime

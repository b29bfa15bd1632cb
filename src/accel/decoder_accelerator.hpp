// Decoder accelerator: the paper's §VI extension, "support both encoder
// and decoder layers ... using the same design principles".
//
// The decoder REUSES the encoder's computation engines: the masked
// self-attention runs on the QKV/QK/SV engines (with the softmax unit's
// causal mode), cross-attention sequences the same engines as single
// projection passes over the decoder stream and the encoder memory, and
// the projections/FFN run on the FFN engines. Only the control sequence
// differs — which is exactly how a runtime-programmable design would add
// decoding without re-synthesis.
#pragma once

#include <memory>
#include <optional>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "accel/engines.hpp"
#include "accel/perf_model.hpp"
#include "numeric/fp8.hpp"
#include "runtime/generation.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::accel {

class ProteaDecoderAccelerator {
 public:
  explicit ProteaDecoderAccelerator(AccelConfig config);

  const AccelConfig& config() const { return config_; }

  void load_model(QuantizedDecoder model);
  bool has_model() const { return model_.has_value(); }
  const QuantizedDecoder& model() const;

  /// Runs the int8 decoder datapath: float target (T x d) and encoder
  /// memory (S x d) in, dequantized float output (T x d) out. T may be
  /// any prefix length up to the synthesized maximum (full-recompute
  /// mode — every call reruns the whole prefix).
  tensor::MatrixF forward(const tensor::MatrixF& target,
                          const tensor::MatrixF& memory);

  // --- KV-cached incremental decoding (runtime/generation.hpp) --------------
  // prefill() begins a sequence: the encoder memory is projected into the
  // per-layer cross K/V caches once and the prefix runs through the stack
  // with self K/V appended. decode_step() then costs O(position) attention
  // work instead of a full-prefix recompute, and is bit-identical to the
  // corresponding row of forward() — greedy decode emits the exact same
  // tokens, just without the quadratic bill.

  /// Returns the (prefix rows x d) output states (same rows forward()
  /// would produce).
  tensor::MatrixF prefill(const tensor::MatrixF& prefix,
                          const tensor::MatrixF& memory);

  /// One incremental step; returns the (1 x d) output state for the
  /// appended token.
  tensor::MatrixF decode_step(const tensor::MatrixF& token);

  /// Target rows cached so far (0 before the first prefill()).
  size_t generation_position() const;

  /// Cycle-model estimate for a (target_len, memory_len) program.
  PerfReport performance(uint32_t target_len, uint32_t memory_len) const;

  /// Cycle-model estimate for one KV-cached decode step at the given
  /// 0-based target position.
  PerfReport step_performance(uint32_t pos, uint32_t memory_len) const;

  const EngineStats& stats() const { return stats_; }

 private:
  AccelConfig config_;
  std::optional<QuantizedDecoder> model_;
  EngineStats stats_;
  runtime::WorkspaceArena ws_;  // session workspace for forward()
  // Lazily-built KV-cached generation context (reset by load_model; MAC
  // accounting funnels into stats_ alongside forward()'s).
  std::unique_ptr<runtime::GenerationSession> gen_;
};

// --- Decoder cycle models --------------------------------------------------
// One private costing function prices a list of stack passes (start
// position, rows): the 13 per-row engine stages and MACs of each pass,
// the one-time cross_kv memory projection unless it is cached, and a
// bytes-only kv_dequant stage for decode steps over a quantized cache.
// Every estimator below builds the pass list its runtime schedule
// executes and hands it to that function, so the stage math exists once.

/// Analytic decoder-layer cycle model (shares all encoder constants): a
/// full forward of `target_len` rows, i.e. estimate_prefill_performance
/// with default costing (one pass, cross_kv charged).
PerfReport estimate_decoder_performance(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t target_len,
                                        uint32_t memory_len);

/// Cycle model of ONE KV-cached incremental decode step computing target
/// position `pos` (0-based): a single query row whose self-attention
/// spans the pos+1 cached rows, cross-attention over memory projections
/// already cached at prefill (no cross_kv stage — the defining saving),
/// and single-row projections/FFN. Matches the executed schedule of
/// GenerationSession::decode_step exactly (MAC counts are cross-checked
/// against EngineStats in tests/test_generation.cpp).
///
/// The cached path is block-strided: the QK/SV engines stream K/V
/// straight out of the block table, so an int8 step moves no gather
/// traffic (report.bytes_loaded == 0).
///
/// `kv_storage` models the self-K/V cache format (numeric/fp8.hpp).
/// int8 leaves every figure untouched (byte-identical reports). A
/// quantized format adds pure data movement, never cycles — decode is a
/// LUT fused into the GEMM kernels' span reads: a bytes-only
/// "kv_dequant" stage counts the stored-code bytes they stream per step
/// (num_heads x stored bytes of the 2 x kv_len x head_dim prefix).
///
/// `kv_gather_fallback` is kept only for source compatibility with
/// existing callers: the gather read path no longer exists, so it must
/// be false (true throws std::invalid_argument).
PerfReport estimate_decode_step_performance(
    const AccelConfig& config, const ref::ModelConfig& model, uint32_t pos,
    uint32_t memory_len, bool kv_gather_fallback = false,
    numeric::KvStorage kv_storage = numeric::KvStorage::kInt8);

/// K+V bytes per cached token row across the whole stack, at `storage`'s
/// stored width: layers x heads x 2 x kv_storage_bytes(head_dim, storage).
/// Per-head, exactly as KvCache/KvBlockPool carve their rows (packed fp4
/// rounds up per head). The one row-width rule for the footprint,
/// prefix-savings and preemption estimators and the runtime's pools.
/// Validates `model` first (throws std::invalid_argument).
uint64_t kv_row_bytes(const ref::ModelConfig& model,
                      numeric::KvStorage storage);

/// Self-K/V memory model for a sequence of `rows` cached target rows:
/// the paged pool holds ceil(rows / block_rows) blocks, against a
/// modeled per-slot baseline that reserves the full programmed capacity
/// (model.seq_len) unpacked, whatever the sequence. The ratio
/// dense_bytes / paged_bytes is the concurrency multiplier a shared
/// block pool buys over that baseline at equal arena footprint
/// (bench_decoder_scaling tabulates it).
struct KvFootprint {
  /// kv_row_bytes(model, storage): the POOL's stored width. Matches
  /// KvCache/KvBlockPool row accounting exactly per format (int8 and fp8
  /// are 1 byte/element; fp4-e2m1 packs 2 per byte).
  uint64_t row_bytes = 0;
  /// The modeled per-slot baseline: capacity rows at 1 byte/element
  /// (unpacked int8 width) for every storage format, so this term never
  /// shrinks with storage; only the paged pool does.
  uint64_t dense_bytes = 0;
  uint64_t paged_bytes = 0;  // blocks needed for `rows` rows
  uint32_t blocks = 0;       // ceil(rows / block_rows)
};

KvFootprint estimate_kv_footprint(
    const ref::ModelConfig& model, uint32_t rows, uint32_t block_rows,
    numeric::KvStorage storage = numeric::KvStorage::kInt8);

/// Shared-vs-private self-K/V memory model for copy-on-write forking
/// (runtime/decode_policy.hpp): `beams` branches fork off a
/// `prompt_rows`-row prefill and then each diverge by `new_rows` cached
/// rows. COW shares the prompt lineage once (each beam privately holds
/// only its divergent tail plus the write-triggered copy of the
/// straddling block); the eager reference copies the full lineage per
/// beam. `bytes_saved` is the COW win (bench_decoder_scaling tabulates
/// it for 2, 4 and 8 beams).
struct ForkedKvFootprint {
  uint64_t row_bytes = 0;          // K+V bytes per token row (whole stack)
  uint32_t shared_blocks = 0;      // prompt lineage, counted once
  uint32_t private_blocks = 0;     // worst-case divergent blocks per beam
  uint64_t cow_blocks = 0;         // shared + beams x private
  uint64_t cow_bytes = 0;          // cow_blocks x block bytes
  uint64_t eager_bytes = 0;        // beams x full per-beam lineage
  uint64_t bytes_saved = 0;        // eager_bytes - cow_bytes
};

ForkedKvFootprint estimate_forked_kv_footprint(
    const ref::ModelConfig& model, uint32_t prompt_rows, uint32_t new_rows,
    uint32_t beams, uint32_t block_rows,
    numeric::KvStorage storage = numeric::KvStorage::kInt8);

/// The block counts of estimate_forked_kv_footprint, which need no model:
/// fills shared_blocks, private_blocks and cow_blocks and leaves the byte
/// fields 0. runtime::beam_worst_case_blocks returns cow_blocks, the
/// bound every beam run is held to, so that bound and this memory model
/// are one count. Throws std::invalid_argument on a zero prompt, beam
/// count or block size.
ForkedKvFootprint forked_kv_blocks(uint32_t prompt_rows, uint32_t new_rows,
                                   uint32_t beams, uint32_t block_rows);

/// Cycle model of width-K beam search over the KV-cached engine,
/// mirroring BeamSearchDecoder's executed schedule: ONE prefill of
/// `prefill_len` rows (beams fork the cache instead of re-prefilling —
/// forks cost no engine work), then K incremental steps per emitted
/// token at positions [prefill_len, total_len - 1) — the final selected
/// token is scored from the last step's states and never decoded. The
/// vocab-head projection runs off-accelerator and is not modeled. MACs
/// are cross-checked against the executed decoder's EngineStats in
/// tests/test_decode_policy.cpp.
PerfReport estimate_beam_generation_performance(const AccelConfig& config,
                                                const ref::ModelConfig& model,
                                                uint32_t prefill_len,
                                                uint32_t total_len,
                                                uint32_t memory_len,
                                                uint32_t beam_width);

/// Prefill-phase knobs shared by the chunk-/cache-aware estimators,
/// mirroring what the generation runtime actually executes.
struct GenerationCosting {
  /// Prompt rows per prefill pass (0 = one pass). Chunking changes the
  /// MAC count — each pass's QK/SV spans rows_cached_so_far + pass rows,
  /// not the final prompt length — so the model replays the schedule.
  uint32_t prefill_chunk = 0;
  /// Prompt rows covered by prefix-cache adoption: the passes start at
  /// this position instead of 0 (must be < prefill_len).
  uint32_t adopted_rows = 0;
  /// Cross-K/V projections reused from the cache: the one-time
  /// 2 x memory_len x d x d per-layer cross_kv stage disappears.
  bool cross_cached = false;
  /// Self-K/V storage format the runtime is configured with
  /// (GenerationOptions::kv_storage). Scales the byte-side terms —
  /// adopted-prefix kv_bytes in estimate_prefix_cache_savings, the
  /// kv_dequant traffic of the decode phase — and nothing
  /// else: quantized storage never changes cycle or MAC figures.
  numeric::KvStorage kv_storage = numeric::KvStorage::kInt8;
};

/// Cycle/MAC model of ONE chunked, cache-assisted prefill — the exact
/// schedule GenerationSession executes: the cross-K/V projection unless
/// cross_cached, then stack passes over prompt rows [adopted_rows,
/// prefill_len) in prefill_chunk-row chunks (0 = one pass), each pass's
/// self-attention spanning every row cached so far. With all-default
/// costing this reduces exactly to estimate_decoder_performance. MACs
/// are exact against the executed EngineStats delta (cross-checked in
/// tests/test_prefix_cache.cpp).
PerfReport estimate_prefill_performance(const AccelConfig& config,
                                        const ref::ModelConfig& model,
                                        uint32_t prefill_len,
                                        uint32_t memory_len,
                                        const GenerationCosting& costing = {});

/// Total cycle model for a KV-cached generation: the prefill of
/// `prefill_len` rows that `costing` describes (chunked passes, adopted
/// prefix, cached cross projections; all-default costing is one full
/// prefill including the one-time cross K/V projection) plus incremental
/// steps for positions [prefill_len, total_len). The decode phase ignores
/// the prefill knobs — decode after adoption runs the identical
/// schedule, that is the whole point — except kv_storage, which charges
/// each step's kv_dequant bytes. The report aggregates the two phases as
/// stages "prefill" and "decode_steps" (the latter carrying the steps'
/// bytes); compare against summing estimate_decoder_performance over
/// growing prefixes to quantify the O(T^2) -> O(T) win.
PerfReport estimate_generation_performance(
    const AccelConfig& config, const ref::ModelConfig& model,
    uint32_t prefill_len, uint32_t total_len, uint32_t memory_len,
    const GenerationCosting& costing = {});

/// Modeled per-request savings of the prefix cache: a cold prefill
/// (adopted_rows = 0, cross_cached = false, same chunking) minus the
/// warm one. macs_saved is exact against the executed cold-vs-warm
/// EngineStats delta; kv_bytes/cross_bytes match PrefixCacheStats'
/// bytes_adopted/cross_bytes_reused term for term.
struct PrefixCacheSavings {
  uint64_t macs_saved = 0;
  uint64_t rows_skipped = 0;  // adopted prompt rows
  uint64_t kv_bytes = 0;      // self-K/V bytes of the adopted rows
  uint64_t cross_bytes = 0;   // cross-K/V projection bytes skipped
  double ms_saved = 0.0;      // modeled prefill latency delta
};

PrefixCacheSavings estimate_prefix_cache_savings(
    const AccelConfig& config, const ref::ModelConfig& model,
    uint32_t prefill_len, uint32_t memory_len,
    const GenerationCosting& costing);

/// Analytic cost of the traffic engine's two preemption-recovery
/// strategies (runtime/traffic.hpp) for a victim holding `rows_cached`
/// target rows, used for victim/strategy selection:
///
///   * swap-out moves the held block bytes twice (spill + rescatter)
///     over HBM at the synthesized channel allocation — pure bandwidth,
///     zero engine MACs;
///   * drop-and-recompute re-runs the cached rows through the stack
///     (one prefill-shaped pass; replay chunking does not change the
///     MAC count) — pure compute, zero extra traffic.
///
/// recompute_macs is exact (cross-checked against the executed replay's
/// EngineStats delta in tests); the millisecond figures are the same
/// cycle model the other estimators use.
struct PreemptionCost {
  uint64_t swap_bytes = 0;     // held block bytes x 2 (spill + restore)
  double swap_ms = 0.0;        // HBM transfer time for both moves
  uint64_t recompute_macs = 0; // exact MACs of the restore re-prefill
  double recompute_ms = 0.0;   // modeled latency of that re-prefill
  bool prefer_swap = false;    // swap_ms < recompute_ms
};

PreemptionCost estimate_preemption_cost(
    const AccelConfig& config, const ref::ModelConfig& model,
    uint32_t rows_cached, uint32_t memory_len, uint32_t block_rows,
    numeric::KvStorage storage = numeric::KvStorage::kInt8);

}  // namespace protea::accel

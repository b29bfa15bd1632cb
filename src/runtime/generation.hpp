// KV-cached incremental decoding: per-stream generation sessions and the
// request type the serving engine takes.
//
// The full-recompute decoder path reruns the whole target prefix on every
// autoregressive step, so emitting T tokens costs O(T^2) total GEMM work.
// This layer makes decoding incremental:
//
//   * GenerationSession — per-stream decoder context: a private
//     WorkspaceArena + KvCache. prefill() projects the encoder memory
//     into every layer's cross K/V cache once and runs the prompt prefix
//     through the stack (appending self K/V) — optionally in bounded
//     chunks (prefill_begin()/prefill_rows()), which is bit-identical to
//     the one-shot pass because every op is row-wise; decode_step() then
//     runs ONE new row per call, attending over the cached prefix —
//     O(len) attention work and zero heap allocations in steady state
//     (the constructor warms the arena at the worst-case step shape,
//     pinned by an allocation-counting test). Self K/V defaults to the
//     paged layout (runtime/kv_cache.hpp): blocks are reserved on demand
//     from a private or shared KvBlockPool, so short sequences no longer
//     strand a full-capacity reservation, and attention reads the cached
//     rows in place in every storage format. The cached path — dense or
//     paged, chunked or one-shot — is bit-identical to the
//     full-recompute forward: int32 accumulation is exact and every op
//     is row-wise.
//
//   * GenerationRequest — one prompt + encoder memory + token callback,
//     the unit TrafficEngine (runtime/traffic.hpp) serves. The engine is
//     the runtime's one request loop: a closed batch of these runs
//     through the same coordinator as open SLO traffic, with continuous
//     batching (a finished sequence frees its seat the round it ends),
//     optional chunked prefill, and bit-identical outputs for every
//     slot, thread, module-slot, KV-layout or chunk choice.
//
// Token policy (greedy argmax, sampling, beam bookkeeping) stays with the
// caller: requests carry a next_token callback mapping the newest output
// state to the next input embedding, so the engine is vocabulary-free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "accel/engines.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/layer_ops.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::runtime {

class PrefixCache;

struct GenerationOptions {
  /// Self-K/V tokens per block. 0 selects the dense (PR-3) layout.
  size_t kv_block_rows = 16;
  /// Shared block pool (paged only); nullptr gives the session a private
  /// pool sized at one full-capacity sequence. A shared pool must
  /// outlive the session.
  KvBlockPool* kv_pool = nullptr;
  /// prefill() runs the prompt in passes of at most this many rows
  /// (0 = one pass). Outputs are bit-identical for any chunk size.
  size_t prefill_chunk = 0;
  /// Self-K/V storage format (numeric/fp8.hpp): int8 verbatim (the
  /// bit-exact reference), fp8 re-encoded per element, or packed fp4 at
  /// half the block bytes (head_dim must be even). Quantized rows are
  /// read in place like int8 ones, with dequant fused into the GEMM
  /// kernels' span reads. Deterministic for any
  /// format — decode output depends only on the storage choice, not on
  /// paging/fork/swap/adoption history. A shared kv_pool must be
  /// configured for the matching row width (see
  /// accel::estimate_kv_footprint's storage parameter).
  numeric::KvStorage kv_storage = numeric::KvStorage::kInt8;
};

class GenerationSession {
 public:
  /// Binds to caller-owned config + model (both must outlive the
  /// session). Sizes the KV cache at the synthesized maxima and warms the
  /// workspace arena with one worst-case decode step, so every real
  /// decode_step() — at any cached length — runs without heap
  /// allocations. `stats` optionally redirects MAC accounting (and KV
  /// pool occupancy) to an external counter (the accel wrapper's).
  GenerationSession(const accel::AccelConfig& config,
                    const accel::QuantizedDecoder& model,
                    accel::EngineStats* stats = nullptr,
                    const GenerationOptions& options = {});

  /// Begins a sequence: projects the quantized encoder memory into every
  /// layer's cross K/V cache (the one-time cost the full-recompute path
  /// pays per step) and runs the whole prefix through the stack with self
  /// K/V appended — in options.prefill_chunk-row passes when set.
  /// `states` receives the (prefix.rows() x d) dequantized outputs;
  /// bit-identical to forward(prefix, memory) for any chunk size.
  void prefill(const tensor::MatrixF& prefix, const tensor::MatrixF& memory,
               tensor::MatrixF& states, StageGate* gate = nullptr);

  /// Chunked-prefill split of prefill(), for schedulers that interleave
  /// prompt chunks of different sequences: prefill_begin() starts the
  /// sequence and fills the cross K/V caches; each prefill_rows() call
  /// appends the next consecutive prompt rows and emits their states.
  void prefill_begin(const tensor::MatrixF& memory,
                     StageGate* gate = nullptr);
  void prefill_rows(const tensor::MatrixF& rows, tensor::MatrixF& states,
                    StageGate* gate = nullptr);

  /// Cache-assisted prefill_begin() (runtime/prefix_cache.hpp): begins
  /// the sequence, reuses the memory's cached cross projections when
  /// present (projecting AND publishing them on a miss), and adopts the
  /// longest cached prefix of `prefix` by refcount — its stored prefill
  /// outputs land in rows [0, returned) of `states` (resized to
  /// prefix.rows() x d when smaller). Returns the prompt rows already
  /// covered; the caller prefill_rows()'s only the tail. Hit/miss/bytes
  /// counters are mirrored into EngineStats. Decode after adoption is
  /// bit-identical to a cold prefill of the same prompt.
  size_t prefill_begin_cached(PrefixCache& cache,
                              const tensor::MatrixF& prefix,
                              const tensor::MatrixF& memory,
                              tensor::MatrixF& states,
                              StageGate* gate = nullptr,
                              bool* cross_hit = nullptr);

  /// Cross-only cache-assisted begin, for swap-in restores (self rows
  /// come back via try_swap_in, so no prefix adoption): cached cross
  /// projections are copied in on a hit, recomputed and published on a
  /// miss. Returns true on a hit.
  bool prefill_begin_cross(PrefixCache& cache, const tensor::MatrixF& memory,
                           StageGate* gate = nullptr);

  /// Publishes this sequence's completed prompt into `cache`: the
  /// leading full blocks of the table by refcount plus the prefill
  /// output `states` rows. Arms the COW guard on this session's table.
  /// Call once the whole prompt is prefilled (position() >= prefix rows).
  void publish_prefix(PrefixCache& cache, const tensor::MatrixF& prefix,
                      const tensor::MatrixF& memory,
                      const tensor::MatrixF& states);

  /// One incremental step: appends `token` (1 x d) at the current
  /// position and attends over the cached prefix. `state` receives the
  /// (1 x d) output — bit-identical to the last row of a full-recompute
  /// forward over the same prefix. Zero heap allocations when `state` is
  /// already (1 x d).
  void decode_step(const tensor::MatrixF& token, tensor::MatrixF& state,
                   StageGate* gate = nullptr);

  /// Paged-cache admission control (no-ops returning success in dense
  /// mode). try_reserve_rows() grows the sequence's block table to cover
  /// `rows` total rows, all or nothing; end_sequence() releases every
  /// held block so waiting admissions can proceed.
  bool try_reserve_rows(size_t rows);
  void end_sequence();

  /// Copy-on-write fork (runtime/kv_cache.hpp): adopts `parent`'s whole
  /// decoding state — cached length, cross projections and the self-K/V
  /// block table by refcount — without moving K/V bytes; the first
  /// divergent decode_step into a shared block copies just that block.
  /// Both sessions must be built on the same model and ONE shared paged
  /// pool. `eager_copy` materializes private block copies at fork time
  /// (the bit-exact reference mode). Any sequence this session was
  /// running is ended first.
  void fork_from(GenerationSession& parent, bool eager_copy = false);

  /// Binds block growth and COW copies to a fork group's admission
  /// credit (reserved worst-case headroom — see KvPoolCredit); nullptr
  /// unbinds. The session must not hold blocks.
  void bind_kv_credit(KvPoolCredit* credit);

  /// Victim preemption, swap-out flavor (paged mode): spills the held
  /// blocks' contents into `dst` and releases them (returns the cached
  /// row count); try_swap_in() restores them all-or-nothing after a
  /// fresh prefill_begin() has recomputed the cross projections —
  /// bit-identical to never having been preempted (the cross K/V is a
  /// pure function of the memory; self rows come back byte-for-byte).
  size_t swap_bytes() const { return kv_.swap_bytes(); }
  size_t swap_out(std::vector<int8_t>& dst);
  bool try_swap_in(std::span<const int8_t> src, size_t rows);

  /// Target rows cached so far (the next step decodes this position).
  size_t position() const { return kv_.len(); }
  /// Maximum target rows (the model's programmed seq_len).
  size_t capacity() const { return kv_.capacity(); }

  const accel::QuantizedDecoder& model() const { return *model_; }
  const accel::EngineStats& stats() const { return *stats_; }
  const KvCache& cache() const { return kv_; }
  const WorkspaceArena& workspace() const { return ws_; }
  const GenerationOptions& options() const { return options_; }

 private:
  /// Projects the quantized encoder memory into every layer's cross K/V
  /// cache (the body of prefill_begin(), shared with the cache-miss path
  /// of the cache-assisted begins).
  void fill_cross(const tensor::MatrixF& memory, StageGate* gate);

  /// Shared stack walker: quantizes `rows` at the first layer's input
  /// scale, runs them through every decoder layer with K/V appended at
  /// the current position, advances the cache and dequantizes into
  /// `states`. Reserves paged blocks on demand (KvBlockExhausted when
  /// the pool cannot cover the new rows).
  void run_rows(const tensor::MatrixF& rows, tensor::MatrixF& states,
                StageGate* gate, accel::EngineStats* stats);

  /// Sizes the arena at the worst-case decode step (full cache, longest
  /// memory) so later steps never grow it.
  void warm();

  /// Mirrors pool occupancy into the stats sink after reserve/release.
  void refresh_kv_stats();

  const accel::AccelConfig* config_;
  const accel::QuantizedDecoder* model_;
  GenerationOptions options_;
  KvCache kv_;
  WorkspaceArena ws_;
  accel::EngineStats own_stats_;
  accel::EngineStats* stats_;
};

/// RAII companion to GenerationSession::end_sequence(): releases the
/// session's blocks on scope exit unless commit()ed, so a throw
/// mid-prefill or mid-step (block exhaustion, a failpoint, a bad
/// callback) can never strand pool blocks other sequences wait on.
class SequenceScope {
 public:
  SequenceScope() = default;
  explicit SequenceScope(GenerationSession* session) : session_(session) {}
  ~SequenceScope() {
    if (session_ != nullptr) session_->end_sequence();
  }
  SequenceScope(SequenceScope&& other) noexcept : session_(other.session_) {
    other.session_ = nullptr;
  }
  SequenceScope& operator=(SequenceScope&& other) noexcept {
    if (this != &other) {
      if (session_ != nullptr) session_->end_sequence();
      session_ = other.session_;
      other.session_ = nullptr;
    }
    return *this;
  }
  SequenceScope(const SequenceScope&) = delete;
  SequenceScope& operator=(const SequenceScope&) = delete;

  /// Keeps the sequence alive (ownership passed elsewhere).
  void commit() { session_ = nullptr; }

 private:
  GenerationSession* session_ = nullptr;
};

/// One generation request. `memory` is the caller-owned encoder output;
/// `prefix` the prompt embeddings (>= 1 row, BOS included). After the
/// prefill and after every decode step, `next_token` maps the newest
/// output state to the next input embedding (written into `next`,
/// 1 x d_model) — return false to finish early (EOS). Must be
/// thread-safe when the engine runs threaded.
struct GenerationRequest {
  tensor::MatrixF prefix;
  const tensor::MatrixF* memory = nullptr;
  uint32_t max_new_tokens = 0;
  std::function<bool(std::span<const float> state, tensor::MatrixF& next)>
      next_token;
};

}  // namespace protea::runtime

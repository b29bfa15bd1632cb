// Arena-backed K/V caches for incremental (KV-cached) decoding, with a
// vLLM-style paged layout for the self-attention rows.
//
// A decoder layer's attention state during autoregressive generation is
// (a) the self-attention K/V rows of every already-processed target
// position — append-only, one row per decode step — and (b) the
// cross-attention K/V projections of the encoder memory, computed once at
// prefill and read-only afterwards. Recomputing either on every step is
// what makes naive generation quadratic; caching both makes step t cost
// O(t) attention work instead of O(t^2).
//
// Self K/V has one layout: token rows live in fixed-size blocks handed
// out by a KvBlockPool free list. One block holds `block_rows` token
// rows, each row packing K and V for every (layer, head) — so one
// per-sequence block table covers the whole stack, and capacity is
// reserved per block on demand instead of per slot up front. The pool
// can be private (sized at one full sequence) or shared by many
// sequences, which is where the serving win lives: short sequences hold
// only the blocks they actually filled. A block as tall as the capacity
// gives every sequence one block: a full-capacity reservation per slot.
//
// Self K/V has one read path for every storage format: self_spans
// hands the attention engines (base, rows) runs over the block table, and
// the GEMM kernels read the stored rows in place, decoding fp8 and packed
// fp4 codes as they go — no decode step copies the cached prefix.
//
// Cross K/V stays dense: it is written once per sequence at prefill and
// sized by the memory, not by generation progress.
//
// Blocks are refcounted, which buys copy-on-write FORKING: a cache
// can adopt another's block table by bumping refcounts (fork = O(block
// table), no K/V bytes move), and the first divergent append into a
// still-shared block copies just that block. Beam search and parallel
// sampling fork K branches off one prefill at near-1x prompt footprint.
//
// Every take is non-blocking and all-or-nothing: a pool that cannot back
// a whole take refuses it, takes nothing, and the caller decides whether
// to defer, preempt or shed.
//
// Per-step bookkeeping is still two integers (len, memory_len) plus the
// block table; steady-state decoding never touches the heap (the block
// table and free list are pre-reserved at configure()). begin_sequence()
// recycles the same storage for the next request — the property the
// continuous-batching scheduler relies on when a slot retires one
// sequence and admits another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "numeric/fp8.hpp"
#include "runtime/workspace_arena.hpp"
#include "tensor/matrix.hpp"

namespace protea::runtime {

class TraceRecorder;  // runtime/telemetry.hpp

/// Thrown when a cache cannot get a block from its pool. Schedulers
/// catch-or-avoid this by reserving at admission (backpressure: the
/// request waits instead of corrupting a neighbor's rows).
class KvBlockExhausted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Fixed-size block allocator for paged self K/V. All blocks are carved
/// from one private WorkspaceArena at configure() and recycled through a
/// free list; allocation is all-or-nothing (a partially-reserved sequence
/// would deadlock against another one) and never blocks: a short pool
/// refuses the take. Thread-safe: engine workers' copy-on-write checks
/// and the coordinator's takes and releases share one pool.
///
/// Blocks are REFCOUNTED for copy-on-write forking: fork_ref() lets a
/// second cache adopt a block (refcount bump — no K/V bytes move) and
/// release() frees a block only when its last holder lets go.
/// make_private_span() is the write-triggered copy: a shared block is
/// duplicated into a fresh block for the writer and the source refcount
/// drops by one. Zero-filling is lazy: a freed block is re-zeroed on its
/// FIRST hand-out after the free — and not at all when it is about to be
/// fully overwritten by a COW/duplicate copy.
class KvBlockPool {
 public:
  static constexpr uint32_t kNoBlock = 0xffffffffu;

  KvBlockPool() = default;
  KvBlockPool(const KvBlockPool&) = delete;
  KvBlockPool& operator=(const KvBlockPool&) = delete;

  /// Carves `num_blocks` blocks of (`block_rows` x `row_bytes`) and
  /// zero-fills them (recycled blocks always read defined bytes).
  void configure(size_t num_blocks, size_t block_rows, size_t row_bytes);
  bool configured() const { return num_blocks_ > 0; }

  size_t num_blocks() const { return num_blocks_; }
  size_t block_rows() const { return block_rows_; }
  size_t row_bytes() const { return row_bytes_; }
  size_t block_bytes() const { return block_rows_ * row_bytes_; }

  size_t free_blocks() const;
  /// Unique blocks held (a block shared by K forks counts ONCE — this is
  /// the pool-accounting number the COW sharing win shows up in).
  size_t used_blocks() const;
  /// Blocks currently shared by two or more holders (refcount >= 2).
  size_t shared_blocks() const;
  /// High-water mark of concurrently-held blocks since configure().
  size_t peak_used_blocks() const;
  /// All-or-nothing reservations that found the pool short (each is one
  /// backpressure event: the caller waited or deferred admission).
  uint64_t exhaustion_events() const;
  /// Write-triggered copies performed by make_private_span().
  uint64_t cow_copies() const;
  /// Lazy re-zeroings performed at hand-out (a COW/duplicate hand-out is
  /// fully overwritten by its copy and is never counted here).
  uint64_t zero_fills() const;

  /// Appends `n` block ids to `out` if all are available; on shortfall
  /// takes nothing, records an exhaustion event and returns false.
  /// `skip_zero` skips the lazy re-zeroing when the caller is about to
  /// overwrite every byte (swap-in restore).
  bool try_reserve(size_t n, std::vector<uint32_t>& out,
                   bool skip_zero = false);
  /// Drops one reference per listed block; a block whose last reference
  /// goes returns to the free list (marked for lazy re-zeroing).
  void release(std::span<const uint32_t> blocks);

  /// COW fork: adds one reference to each listed block (no bytes move).
  /// Every block must be live.
  void fork_ref(std::span<const uint32_t> blocks);
  uint32_t ref_count(uint32_t block) const;

  /// Write-triggered copy over a block-table slice, under ONE lock (the
  /// per-write COW check runs per (layer, head) on the decode hot path).
  /// An entry whose caller is the sole holder stays as it is; a shared
  /// one is replaced in place by a fresh block (skipping the lazy
  /// zero-fill — the copy overwrites every byte) holding its contents,
  /// and the source drops one reference. Returns true when any copy was
  /// made; throws KvBlockExhausted when the pool cannot back a copy.
  bool make_private_span(std::span<uint32_t> blocks);
  /// Eager copy: takes a fresh block, duplicates `block`'s contents into
  /// it and returns it. Source references are untouched (the reference
  /// the COW fork path is tested against).
  uint32_t duplicate(uint32_t block);

  /// Backpressure escape valve for a block-level cache layered over this
  /// pool (runtime/prefix_cache.hpp): when an all-or-nothing reservation
  /// finds the pool honestly short (injected failures do not fire it),
  /// the hook is invoked — with the pool mutex RELEASED — with the number
  /// of blocks wanted, asking the holder to free cold entries; it returns
  /// how many blocks it released and the reservation retries. The hook
  /// may call back into this pool (release/ref_count); it must NOT
  /// reserve. Bind/unbind
  /// (nullptr) only while no other thread is using the pool, and unbind
  /// before the hook's owner dies.
  void set_reclaim_hook(std::function<size_t(size_t blocks_wanted)> hook) {
    reclaim_hook_ = std::move(hook);
  }

  /// Telemetry hook (runtime/telemetry.hpp): when bound, the pool emits
  /// kPoolOccupancy events on every take/release and kFailpointTrip on
  /// every injected failure, stamped with the recorder's current virtual
  /// round. The engines arm this AFTER session construction (mirroring
  /// the failpoint schedule) so warm-up takes are not recorded, and
  /// disarm it (nullptr) before the run returns. The recorder must
  /// outlive the binding. A no-op pointer store when telemetry is
  /// compiled out (record() is then a no-op anyway).
  void set_trace(TraceRecorder* trace);

  // --- deterministic fault injection (failpoints) ---------------------------
  //
  // Tests and the traffic engine inject pool exhaustion at exact,
  // reproducible points: after `skip` more take attempts, the next
  // `count` attempts fail as if the pool were empty (recorded as
  // ordinary exhaustion events plus a failpoint_trips count). Unarmed, a
  // failpoint costs one decision per take attempt.

  /// Arms "after `skip` attempts, fail the next `count`". Attempts are
  /// counted per pool operation (one try_reserve or one COW copy), not
  /// per block.
  void inject_failures(uint64_t skip, uint64_t count);
  void clear_failures();
  /// Injected failures actually hit so far.
  uint64_t failpoint_trips() const;

  int8_t* row_data(uint32_t block, size_t row) {
    return data_ + (size_t{block} * block_rows_ + row) * row_bytes_;
  }
  const int8_t* row_data(uint32_t block, size_t row) const {
    return data_ + (size_t{block} * block_rows_ + row) * row_bytes_;
  }

 private:
  uint32_t pop_one_locked(bool skip_zero);
  /// The pool's one admission decision for a take of `n` blocks: one
  /// failpoint decision and, when refused, one exhaustion event.
  bool admit_locked(size_t n);
  uint32_t duplicate_locked(uint32_t block);
  /// Telemetry emitter (a no-op while trace_ is unbound; defined in the
  /// .cpp so this header needs only the forward declaration).
  void note_occupancy_locked();

  WorkspaceArena arena_;
  int8_t* data_ = nullptr;
  size_t num_blocks_ = 0;
  size_t block_rows_ = 0;
  size_t row_bytes_ = 0;
  std::vector<uint32_t> free_list_;
  std::vector<uint32_t> ref_count_;   // 0 = free (on the free list)
  std::vector<uint8_t> is_free_;      // free-list membership, guards double frees
  std::vector<uint8_t> in_span_;      // release() scratch: duplicate-id guard
  std::vector<uint8_t> needs_zero_;   // freed since last zero-fill
  size_t peak_used_ = 0;
  uint64_t exhaustion_events_ = 0;
  uint64_t cow_copies_ = 0;
  uint64_t zero_fills_ = 0;
  uint64_t fail_skip_ = 0;   // attempts to let through first
  uint64_t fail_next_ = 0;   // then fail this many
  uint64_t failpoint_trips_ = 0;
  std::function<size_t(size_t)> reclaim_hook_;
  TraceRecorder* trace_ = nullptr;  // telemetry sink, see set_trace()
  mutable std::mutex mutex_;
};

/// One decoder layer's cross-attention tensors, per attention head (its
/// self K/V rows live in the block pool).
struct LayerKv {
  /// (memory_capacity x head_dim) each; rows [0, memory_len) hold the
  /// encoder memory projected through this layer's cross K/V weights.
  std::vector<tensor::MatrixViewI8> cross_k, cross_v;
};

struct KvCacheOptions {
  /// Token rows per block (0 is rejected like any zero dimension).
  size_t block_rows = 16;
  /// Shared pool; nullptr gives the cache a private pool sized at one
  /// full-capacity sequence, allocated block by block on demand.
  KvBlockPool* pool = nullptr;
  /// Self-K/V storage format (numeric/fp8.hpp). kInt8 stores quantized
  /// rows verbatim — the bit-exact reference. The fp8 formats re-encode
  /// each int8 value on scatter and decode on read (1 byte/element, so
  /// row_bytes is unchanged). fp4 e2m1 packs TWO elements per byte —
  /// head_dim must be even — halving row_bytes and block_bytes. Every
  /// format is read in place through self_spans: the GEMM kernels apply
  /// the dequant table (RowSpanListI8::decode, per nibble for fp4) as
  /// they pack or read the rows. All non-int8 paths are deterministic:
  /// the stored code is a pure table function of the int8 value and
  /// reads back identically on every access (see KvCodec).
  numeric::KvStorage storage = numeric::KvStorage::kInt8;
};

class KvCache {
 public:
  KvCache() = default;
  ~KvCache();
  KvCache(const KvCache&) = delete;
  KvCache& operator=(const KvCache&) = delete;

  /// Carves the cross views out of the private arena and zero-fills
  /// them, sizes the block table and binds the pool (private unless
  /// `opts.pool` is given). Reconfiguring with identical geometry and
  /// pool is a no-op.
  void configure(size_t num_layers, size_t num_heads, size_t head_dim,
                 size_t capacity, size_t memory_capacity,
                 const KvCacheOptions& opts = {});
  bool configured() const { return !layers_.empty(); }

  size_t num_layers() const { return layers_.size(); }
  size_t num_heads() const { return num_heads_; }
  size_t head_dim() const { return head_dim_; }
  /// Maximum target rows / encoder memory rows the views hold.
  size_t capacity() const { return capacity_; }
  size_t memory_capacity() const { return memory_capacity_; }

  /// Cached target rows (valid self K/V rows).
  size_t len() const { return len_; }
  /// Valid cross-projection rows for the current sequence.
  size_t memory_len() const { return memory_len_; }

  // --- block table ----------------------------------------------------------

  size_t block_rows() const { return block_rows_; }
  /// Self-K/V storage format (KvCacheOptions::storage).
  numeric::KvStorage storage() const { return storage_; }
  KvBlockPool* pool() { return pool_; }
  const KvBlockPool* pool() const { return pool_; }
  /// Rows the current block table can hold.
  size_t reserved_rows() const { return block_table_.size() * block_rows_; }
  std::span<const uint32_t> block_table() const { return block_table_; }

  /// Grows the block table to cover `rows` total rows (all-or-nothing;
  /// never shrinks). Returns false — taking nothing — when the pool is
  /// short.
  bool try_reserve_rows(size_t rows);
  /// try_reserve_rows or throw KvBlockExhausted.
  void reserve_rows(size_t rows);
  /// Returns every held block to the pool (the cached rows die). The
  /// scheduler calls this when a sequence retires so waiting admissions
  /// can proceed; begin_sequence() keeps blocks for reuse instead.
  void release_blocks();

  // --- preemption: swap-out / restore ---------------------------------------

  /// Bytes a swap-out would spill right now (held blocks x block bytes).
  size_t swap_bytes() const;
  /// Victim-preemption spill: copies every held block's FULL contents
  /// into `dst` (resized to swap_bytes()) in block-table order, then
  /// releases the blocks. Returns the cached row count to pass back to
  /// try_swap_in(). Bytes beyond len() ride along unchanged, so the
  /// restore is bit-exact including the partially-filled tail block.
  /// Refuses possibly-shared tables (a fork sibling still reads them).
  /// Cross K/V is NOT spilled — it is a pure function of the encoder
  /// memory and is recomputed at restore (prefill_begin), bit-identical.
  size_t swap_out(std::vector<int8_t>& dst);
  /// Restore: takes ceil(src / block_bytes) fresh blocks all-or-nothing
  /// (false — holding nothing — when the pool is short), copies the
  /// spilled bytes back and marks `rows` rows cached. The cache must
  /// hold no blocks; call begin_sequence()/prefill_begin first so the
  /// cross projections are back before decoding resumes.
  bool try_swap_in(std::span<const int8_t> src, size_t rows);

  // --- copy-on-write forking ------------------------------------------------

  /// Forks this cache off `parent` (one SHARED pool, same geometry):
  /// adopts the parent's sequence state, byte-copies the cross K/V
  /// prefix and — the O(block-table) part — adopts the parent's block
  /// table by bumping each block's refcount. No self K/V bytes move; the
  /// first divergent append into a shared block triggers a copy-on-write
  /// (see scatter_self). `eager_copy` instead materializes private copies
  /// of every block at fork time — the bit-exact reference the COW path
  /// is tested against. Any blocks this cache held are released first.
  void fork_from(KvCache& parent, bool eager_copy = false);
  /// True when a fork may have left this cache's blocks shared (cleared
  /// when the cache drops its blocks).
  bool maybe_shared() const { return maybe_shared_; }

  /// Prefix-cache adoption (runtime/prefix_cache.hpp): installs `blocks`
  /// — already fork_ref'd FOR this cache by the caller, whole blocks
  /// covering `rows` prompt rows — as the leading block-table entries and
  /// marks the rows cached, moving zero K/V bytes and taking nothing from
  /// the free list. Table entries already reserved at those positions are
  /// released (adoption strictly reduces pool pressure); entries beyond
  /// the adopted span are kept. Requires an empty sequence
  /// (len() == 0 — call begin_sequence() first). The table becomes
  /// possibly-shared: the COW write guard covers later divergence
  /// exactly as after fork_from.
  void adopt_prefix(std::span<const uint32_t> blocks, size_t rows);

  /// Marks the held table possibly-shared without moving anything: the
  /// prefix cache bumped block refcounts at publish, so divergent writes
  /// (and in-place sequence reuse) must go through the same COW guard a
  /// fork arms.
  void mark_table_shared() {
    if (!block_table_.empty()) {
      maybe_shared_ = true;
      forked_lineage_ = true;
    }
  }

  /// Copies the new K/V rows [pos, pos + k.rows()) of (layer, head) into
  /// their blocks (rows must be reserved), re-encoding
  /// through the storage codec when the format is not int8 (fp8: one
  /// code byte per element; fp4: two nibbles packed per byte, low
  /// nibble = even element). Writes respect forking: a target block
  /// shared with another cache is first made private (write-triggered
  /// copy), so a fork never scribbles on its siblings' prefix.
  void scatter_self(size_t layer, size_t head, size_t pos,
                    tensor::ConstMatrixViewI8 k, tensor::ConstMatrixViewI8 v);
  /// Block-strided read view of rows [0, rows) of (layer, head) self K
  /// (`which` = 0) or V (1): fills `runs` with (base, rows) runs walking
  /// the block table directly — adjacent pool blocks merge into one run —
  /// and returns the span-list operand (row stride = the pooled token-row
  /// bytes) the span-accepting engines consume in place. `runs` must hold
  /// max_self_span_runs(rows) entries. COW-safe by construction: reading
  /// never privatizes a block, so a fork sibling can stream a still-shared
  /// prefix while scatter_self's write-triggered copies keep divergent
  /// appends out of it — the spans a sequence takes always resolve
  /// through its OWN table, never a sibling's post-divergence writes.
  /// For quantized storage the returned list carries the codec's dequant
  /// table (RowSpanListI8::decode), and packed fp4 rows also set
  /// RowSpanListI8::nibbles — the GEMM kernels decode the stored codes
  /// as they pack or read them, so the consumer never sees codes. This
  /// is the one read path for self K/V, in every storage format.
  tensor::RowSpanListI8 self_spans(size_t layer, size_t head, size_t which,
                                   size_t rows,
                                   std::span<tensor::RowSpanI8> runs) const;
  /// Worst-case run count self_spans can produce for `rows` rows (one per
  /// block before merging).
  size_t max_self_span_runs(size_t rows) const;

  // --- sequence bookkeeping -------------------------------------------------

  /// Starts a new sequence in the same storage: drops all cached target
  /// rows and records the memory length the cross caches will be
  /// prefilled for. Held blocks are kept for reuse; never allocates.
  void begin_sequence(size_t memory_len);

  /// Marks `n` more target rows as cached, after a full stack pass has
  /// appended them to every layer's self K/V rows.
  void append(size_t n);

  LayerKv& layer(size_t i) { return layers_.at(i); }
  const LayerKv& layer(size_t i) const { return layers_.at(i); }

 private:
  /// Makes every block overlapping rows [pos, pos + n) private to this
  /// cache (COW copies of any shared ones). No-op unless a fork left the
  /// table possibly shared.
  void ensure_rows_private(size_t pos, size_t n);
  int8_t* self_row_ptr(size_t row, size_t layer, size_t head, size_t which);
  const int8_t* self_row_ptr(size_t row, size_t layer, size_t head,
                             size_t which) const;
  /// Bytes per pooled token row: K and V for every (layer, head), at
  /// the storage format's width (head_bytes_ per K or V segment).
  size_t row_bytes() const {
    return layers_.size() * num_heads_ * 2 * head_bytes_;
  }

  WorkspaceArena arena_;
  std::vector<LayerKv> layers_;
  size_t num_heads_ = 0;
  size_t head_dim_ = 0;
  /// Stored bytes per (layer, head) K or V row segment:
  /// kv_storage_bytes(head_dim_, storage_).
  size_t head_bytes_ = 0;
  numeric::KvStorage storage_ = numeric::KvStorage::kInt8;
  const numeric::KvCodec* codec_ = nullptr;  // nullptr for int8
  size_t capacity_ = 0;
  size_t memory_capacity_ = 0;
  size_t len_ = 0;
  size_t memory_len_ = 0;
  size_t block_rows_ = 0;
  KvBlockPool* pool_ = nullptr;
  std::unique_ptr<KvBlockPool> owned_pool_;
  std::vector<uint32_t> block_table_;
  /// Fast-path guard for the write-triggered copy: true while an append
  /// might hit a block shared with a fork sibling. Cleared once an
  /// append pass has privatized through the END of the table (appends
  /// only move forward, and fresh reservations are private), re-set by
  /// fork_from on both sides and re-armed by begin_sequence (in-place
  /// reuse rewinds the frontier over still-shared prefix blocks).
  bool maybe_shared_ = false;
  bool forked_lineage_ = false;  // held blocks may trace to a COW fork
};

}  // namespace protea::runtime

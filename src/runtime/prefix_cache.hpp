// Cross-request prefix cache: radix block-table sharing + keyed cross-K/V
// memory cache.
//
// Production decode traffic is dominated by shared prefixes — one system
// prompt, one document, many questions — yet each request normally pays a
// full prefill and its own KV blocks even when an identical prefix is
// already resident in the pool. This layer closes that gap with the
// machinery PRs 4-7 already built:
//
//   * a RADIX index over refcounted block tables. Completed prompts are
//     published block by block: each node keys one pool block by the
//     exact prompt-embedding bytes of the `block_rows` rows it covers
//     (hash-guided, always byte-verified — collisions cannot mis-adopt),
//     chained under its predecessor, all rooted at the request's encoder
//     memory (cross-attention makes cached K/V a function of BOTH the
//     memory and the prompt, so prefixes only match within one memory).
//     A new sequence adopts the longest cached chain by refcount bumps
//     (KvBlockPool::fork_ref — zero K/V bytes move) via
//     KvCache::adopt_prefix, takes the stored prefill output states for
//     those rows, and chunk-prefills only the uncovered tail. Adoption is
//     whole blocks only and always leaves >= 1 tail row, so the first
//     write after adoption lands on a block boundary — divergence never
//     even needs the COW copy, though the write guard stays armed.
//
//   * a keyed cache of CROSS-K/V memory projections. fill_cross_kv_cache
//     is a pure function of the encoder memory, so a repeated memory
//     skips the projection pass entirely: the stored int8 rows are copied
//     straight into the session's cross views (bit-identical by
//     construction).
//
// Eviction is LRU over entries only the cache itself still references
// (pool refcount 1): KvBlockPool::set_reclaim_hook points at reclaim(),
// so under pool pressure an admission reclaims cold cache blocks BEFORE
// shedding or preempting live work, and a block referenced by any live
// table (refcount >= 2) is never victimized — freeing the cache's own
// reference is the only thing reclaim ever does. Leaves go first
// (an interior node's children are unreachable without it); a freed
// leaf exposes its parent to the next round.
//
// Thread safety: one mutex guards the whole index. Lock order is
// cache -> pool everywhere (the pool's reclaim hook runs with the pool
// mutex released), so scheduler workers and the pool's backpressure
// paths cannot deadlock. All bits handed out are verified copies or
// refcounted blocks, never views into evictable storage.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/kv_cache.hpp"
#include "tensor/matrix.hpp"

namespace protea::runtime {

struct PrefixCacheStats {
  uint64_t prefix_hits = 0;      // admissions that adopted >= 1 block
  uint64_t prefix_misses = 0;    // admissions with no usable cached prefix
  uint64_t rows_adopted = 0;     // prompt rows skipped via adoption
  uint64_t bytes_adopted = 0;    // self-K/V bytes those rows represent
  uint64_t cross_hits = 0;       // memories whose projections were reused
  uint64_t cross_misses = 0;
  uint64_t cross_bytes_reused = 0;  // cross-K/V bytes copied instead of projected
  uint64_t inserts = 0;          // radix nodes created (one block each)
  uint64_t evictions = 0;        // nodes freed (pool pressure or caps)
  uint64_t blocks_held = 0;      // pool blocks the cache references right now
  uint64_t blocks_peak = 0;      // high-water mark of blocks_held
};

/// See the file comment. One instance serves one shared KvBlockPool; the
/// cache must be clear()ed (or destroyed) before the pool, and the pool's
/// reclaim hook must be unbound first when it points here.
class PrefixCache {
 public:
  struct Options {
    /// Distinct memory entries kept (LRU-evicted past this when cold;
    /// a new entry whose LRU victims are all live simply exceeds the cap).
    size_t max_memories = 32;
    /// Self-K/V storage format every published/adopting cache must use.
    /// A published block's bytes only mean what its codec says they
    /// mean: two caches can share a pool row width yet store different
    /// codes (int8 rows and fp8 codes are both 1 byte/element), so
    /// adoption across formats would silently decode garbage. The cache
    /// is keyed to ONE format at configure and refuses publish/adopt
    /// from any cache whose storage() differs (std::logic_error).
    numeric::KvStorage storage = numeric::KvStorage::kInt8;
  };

  PrefixCache() = default;
  ~PrefixCache() { clear(); }
  PrefixCache(const PrefixCache&) = delete;
  PrefixCache& operator=(const PrefixCache&) = delete;

  /// Binds the pool whose blocks published tables live in. `block_rows`
  /// must match the pool's, `d_model` the prompt-embedding width.
  void configure(KvBlockPool& pool, size_t block_rows, size_t d_model,
                 const Options& opts);
  void configure(KvBlockPool& pool, size_t block_rows, size_t d_model) {
    configure(pool, block_rows, d_model, Options());
  }
  bool configured() const { return pool_ != nullptr; }

  /// Admission-time probe + adopt under ONE lock acquisition. `kv` must
  /// have begun its sequence (begin_sequence(memory.rows())) and hold no
  /// cached rows. On a memory hit the stored cross projections are
  /// copied into `kv`'s cross views (`*cross_hit` = true); the longest
  /// fully-cached prefix of `prompt` — whole blocks, capped at
  /// prompt.rows() - 1 so at least one tail row always prefills — is
  /// installed into `kv` by refcount adoption, and its prefill output
  /// states are copied into rows [0, returned) of `states` (resized to
  /// prompt.rows() x d_model when smaller). Returns the adopted row
  /// count; 0 with *cross_hit false is a fully cold admission.
  size_t adopt(const tensor::MatrixF& memory, const tensor::MatrixF& prompt,
               KvCache& kv, tensor::MatrixF& states, bool* cross_hit);

  /// Cross-only probe (swap-in restores bring their self rows back
  /// themselves): copies cached cross projections into `kv`'s views.
  /// Returns false — counting a miss — when the memory is unknown.
  bool cross_into(const tensor::MatrixF& memory, KvCache& kv);

  /// Records the cross projections `kv` holds for `memory` (call after a
  /// cross miss was filled by fill_cross_kv_cache). Creates the memory
  /// entry the radix chains root at; no-op when already present.
  void publish_cross(const tensor::MatrixF& memory, const KvCache& kv);

  /// Publishes a completed prompt: fork_refs the floor(prompt rows /
  /// block_rows) leading FULL blocks of `kv`'s table into radix nodes
  /// (reusing any already-cached chain prefix) together with their
  /// prompt bytes and prefill output `states` rows, and arms `kv`'s COW
  /// guard (mark_table_shared). The sequence must still hold the prompt
  /// rows (kv.len() >= prompt.rows()). Creates the memory entry (from
  /// `kv`'s cross views) when absent.
  void publish(const tensor::MatrixF& memory, const tensor::MatrixF& prompt,
               const tensor::MatrixF& states, KvCache& kv);

  /// Pool-pressure reclaim (the KvBlockPool::set_reclaim_hook target):
  /// frees up to `blocks_wanted` cache-only blocks — LRU leaves first,
  /// pool refcount 1 only, so a block any live table still references is
  /// never touched. Returns the number of blocks actually freed.
  size_t reclaim(size_t blocks_wanted);

  /// Blocks reclaim() could free right now (refcount-1 reachable leaves,
  /// transitively). Supports conservative admission probes.
  size_t reclaimable_blocks() const;

  /// Drops every cached block reference and entry (teardown; also the
  /// destructor). Live tables keep their own references untouched.
  void clear();

  PrefixCacheStats stats() const;
  size_t block_rows() const { return block_rows_; }
  KvBlockPool* pool() { return pool_; }

  /// Telemetry hook (runtime/telemetry.hpp): when bound, the cache emits
  /// kPrefixAdopt on every adoption hit, kPrefixPublish on every publish
  /// that inserted new nodes and kPrefixEvict whenever nodes are freed
  /// (LRU cap or pool-pressure reclaim). Same contract as
  /// KvBlockPool::set_trace: armed by the engines after warm-up,
  /// disarmed before the run returns, recorder outlives the binding.
  void set_trace(TraceRecorder* trace);

 private:
  /// One cached block: `rows_bytes` are the exact prompt-embedding rows
  /// it covers (verification key), `states` their prefill outputs.
  struct Node {
    uint64_t hash = 0;           // FNV-1a of the covered prompt rows
    uint32_t block = KvBlockPool::kNoBlock;  // one pool reference held
    tensor::MatrixF rows;        // (block_rows x d) prompt embeddings
    tensor::MatrixF states;      // (block_rows x d) prefill outputs
    uint64_t last_used = 0;
    std::vector<std::unique_ptr<Node>> children;
  };

  /// One encoder memory: the radix root plus the cross projections.
  struct MemoryEntry {
    uint64_t hash = 0;
    tensor::MatrixF memory;        // exact key (always byte-verified)
    size_t layers = 0, heads = 0, head_dim = 0;
    std::vector<int8_t> cross;     // [layer][head][K rows | V rows] int8
    uint64_t last_used = 0;
    std::vector<std::unique_ptr<Node>> children;  // radix roots
  };

  MemoryEntry* find_entry_locked(const tensor::MatrixF& memory);
  MemoryEntry& ensure_entry_locked(const tensor::MatrixF& memory,
                                   const KvCache& kv);
  bool copy_cross_locked(const MemoryEntry& e, KvCache& kv) const;
  size_t count_blocks_locked() const;
  void note_blocks_locked();
  /// Frees one LRU refcount-1 leaf (cascading exposure of its parent to
  /// later calls); returns false when nothing is reclaimable.
  bool evict_one_leaf_locked();

  /// Throws std::logic_error unless `kv`'s storage matches opts_.storage
  /// (see Options::storage — the mixed-format adoption guard).
  void check_storage(const KvCache& kv, const char* what) const;

  KvBlockPool* pool_ = nullptr;
  size_t block_rows_ = 0;
  size_t d_model_ = 0;
  Options opts_;
  uint64_t tick_ = 0;  // deterministic LRU clock (one tick per operation)
  std::vector<std::unique_ptr<MemoryEntry>> entries_;
  PrefixCacheStats stats_;
  TraceRecorder* trace_ = nullptr;  // telemetry sink, see set_trace()
  mutable std::mutex mutex_;
};

}  // namespace protea::runtime

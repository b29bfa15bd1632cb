#include "runtime/kv_cache.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "runtime/telemetry.hpp"
#include "util/math_util.hpp"

namespace protea::runtime {

// --- KvBlockPool -------------------------------------------------------------

void KvBlockPool::configure(size_t num_blocks, size_t block_rows,
                            size_t row_bytes) {
  if (num_blocks == 0 || block_rows == 0 || row_bytes == 0) {
    throw std::invalid_argument("KvBlockPool::configure: zero dimension");
  }
  const std::lock_guard lock(mutex_);
  if (configured() && num_blocks_ == num_blocks &&
      block_rows_ == block_rows && row_bytes_ == row_bytes) {
    return;  // identical geometry: keep storage and occupancy
  }
  if (configured() && free_list_.size() != num_blocks_) {
    throw std::logic_error(
        "KvBlockPool::configure: blocks still held by caches");
  }
  if (credit_outstanding_ != 0) {
    throw std::logic_error(
        "KvBlockPool::configure: admission credits outstanding");
  }
  num_blocks_ = num_blocks;
  block_rows_ = block_rows;
  row_bytes_ = row_bytes;
  arena_.reset();
  auto storage = arena_.matrix_i8(num_blocks * block_rows, row_bytes);
  storage.fill(0);
  data_ = storage.data();
  free_list_.clear();
  free_list_.reserve(num_blocks);
  // Stack order: block 0 on top, so a fresh pool hands out ids in
  // ascending order (deterministic block tables for the stepped mode).
  for (size_t b = num_blocks; b-- > 0;) {
    free_list_.push_back(static_cast<uint32_t>(b));
  }
  ref_count_.assign(num_blocks, 0);
  is_free_.assign(num_blocks, 1);
  in_span_.assign(num_blocks, 0);
  needs_zero_.assign(num_blocks, 0);  // configure() zeroed the arena
  block_credit_.assign(num_blocks, nullptr);
  peak_used_ = 0;
  exhaustion_events_ = 0;
  cow_copies_ = 0;
  zero_fills_ = 0;
}

size_t KvBlockPool::bytes() const { return arena_.used(); }

size_t KvBlockPool::free_blocks() const {
  const std::lock_guard lock(mutex_);
  return free_list_.size();
}

size_t KvBlockPool::uncommitted_free_blocks() const {
  const std::lock_guard lock(mutex_);
  return uncommitted_free_locked();
}

size_t KvBlockPool::used_blocks() const {
  const std::lock_guard lock(mutex_);
  return num_blocks_ - free_list_.size();
}

size_t KvBlockPool::peak_used_blocks() const {
  const std::lock_guard lock(mutex_);
  return peak_used_;
}

uint64_t KvBlockPool::exhaustion_events() const {
  const std::lock_guard lock(mutex_);
  return exhaustion_events_;
}

size_t KvBlockPool::shared_blocks() const {
  const std::lock_guard lock(mutex_);
  size_t shared = 0;
  for (uint32_t rc : ref_count_) shared += rc >= 2 ? 1 : 0;
  return shared;
}

uint64_t KvBlockPool::cow_copies() const {
  const std::lock_guard lock(mutex_);
  return cow_copies_;
}

uint64_t KvBlockPool::zero_fills() const {
  const std::lock_guard lock(mutex_);
  return zero_fills_;
}

uint32_t KvBlockPool::pop_one_locked(KvPoolCredit* credit, bool skip_zero) {
  const uint32_t b = free_list_.back();
  free_list_.pop_back();
  is_free_[b] = 0;
  ref_count_[b] = 1;
  block_credit_[b] = credit;
  if (credit != nullptr) {
    credit->live += 1;
    credit->peak = std::max(credit->peak, credit->live);
    credit_outstanding_ -= 1;
  }
  // Lazy re-zeroing: a recycled block is scrubbed on its first hand-out
  // after the free — except when the caller is about to overwrite every
  // byte with a COW/duplicate copy.
  if (needs_zero_[b]) {
    if (!skip_zero) {
      std::memset(data_ + size_t{b} * block_bytes(), 0, block_bytes());
      ++zero_fills_;
    }
    needs_zero_[b] = 0;
  }
  peak_used_ = std::max(peak_used_, num_blocks_ - free_list_.size());
  return b;
}

bool KvBlockPool::take_locked(size_t n, std::vector<uint32_t>& out,
                              KvPoolCredit* credit, bool skip_zero) {
  if (credit != nullptr) {
    // Credited takes draw on the group's admission reservation. Headroom
    // is guaranteed by the credit invariant (free >= credit_outstanding_
    // >= limit - live); exceeding the limit means the caller's
    // worst-case bound was wrong — fail loudly, never eat another
    // group's reservation. Failpoints never fire here: the reservation
    // is a contract.
    if (credit->live + n > credit->limit) {
      throw std::logic_error(
          "KvBlockPool: credited take exceeds its admission bound");
    }
  } else {
    const bool trip = failpoint_hit_locked();
    if (trip) note_failpoint_locked();
    if (trip || n > uncommitted_free_locked()) {
      ++exhaustion_events_;
      return false;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    out.push_back(pop_one_locked(credit, skip_zero));
  }
  note_occupancy_locked();
  return true;
}

bool KvBlockPool::take_retry_locked(size_t n, std::vector<uint32_t>& out,
                                    KvPoolCredit* credit, bool skip_zero) {
  if (n > uncommitted_free_locked()) return false;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(pop_one_locked(credit, skip_zero));
  }
  note_occupancy_locked();
  return true;
}

bool KvBlockPool::try_reserve(size_t n, std::vector<uint32_t>& out,
                              KvPoolCredit* credit, bool skip_zero) {
  if (n == 0) return true;
  bool honest_shortfall = false;
  {
    const std::lock_guard lock(mutex_);
    if (!configured()) {
      throw std::logic_error("KvBlockPool::try_reserve: not configured");
    }
    if (take_locked(n, out, credit, skip_zero)) return true;
    // Credited takes never fall through (they succeed or throw), so a
    // failed take here is uncredited: either an injected failure or a
    // real shortfall.
    honest_shortfall = n > uncommitted_free_locked();
  }
  if (!honest_shortfall || !reclaim_hook_) return false;
  // Honest shortfall: ask the cache layer to free cold blocks — outside
  // the lock, since reclamation releases blocks back into this pool —
  // and retry the same attempt (no second failpoint decision, no second
  // exhaustion event).
  if (reclaim_hook_(n) == 0) return false;
  const std::lock_guard lock(mutex_);
  return take_retry_locked(n, out, credit, skip_zero);
}

void KvBlockPool::wait_for_blocks_locked(std::unique_lock<std::mutex>& lock,
                                         size_t n) {
  while (n > uncommitted_free_locked()) {
    size_t freed = 0;
    if (reclaim_hook_) {
      // Drain the reclaim hook before parking: when the shortfall is
      // backed by cold cache blocks, nobody else would ever free them —
      // parking would deadlock. Re-checked after every wake too, since a
      // retiring sequence may hand its blocks to the cache (refcount
      // drop) rather than the free list.
      lock.unlock();
      freed = reclaim_hook_(n);
      lock.lock();
    }
    if (freed == 0) freed_.wait(lock);
  }
}

void KvBlockPool::release(std::span<const uint32_t> blocks) {
  if (blocks.empty()) return;
  {
    const std::lock_guard lock(mutex_);
    // Validate the whole span, marking seen ids as we go: one release
    // call drops ONE reference per DISTINCT block (a cache's table never
    // lists a block twice, so a duplicate WITHIN the span is always an
    // over-release — even when other forks still hold references). Roll
    // back before throwing: a bad or double-freed id must never leave a
    // block both free-listed and still held by a cache — that alias
    // would hand one block to two sequences, which then overwrite each
    // other's K/V rows.
    size_t marked = 0;
    while (marked < blocks.size()) {
      const uint32_t b = blocks[marked];
      if (b >= num_blocks_ || ref_count_[b] == 0 || in_span_[b]) break;
      in_span_[b] = 1;
      --ref_count_[b];
      ++marked;
    }
    if (marked != blocks.size()) {
      const bool bad_id = blocks[marked] >= num_blocks_;
      for (size_t i = 0; i < marked; ++i) {
        ++ref_count_[blocks[i]];
        in_span_[blocks[i]] = 0;
      }
      if (bad_id) {
        throw std::invalid_argument("KvBlockPool::release: bad block id");
      }
      throw std::logic_error("KvBlockPool::release: double free");
    }
    for (uint32_t b : blocks) in_span_[b] = 0;
    bool freed_any = false;
    for (uint32_t b : blocks) {
      if (ref_count_[b] == 0 && !is_free_[b]) {  // last holder let go
        is_free_[b] = 1;
        needs_zero_[b] = 1;  // scrubbed lazily at the next hand-out
        if (block_credit_[b] != nullptr) {
          block_credit_[b]->live -= 1;
          block_credit_[b] = nullptr;
          ++credit_outstanding_;  // headroom returns to the group
        }
        free_list_.push_back(b);
        freed_any = true;
      }
    }
    if (freed_any) note_occupancy_locked();
  }
  freed_.notify_all();
}

void KvBlockPool::fork_ref(std::span<const uint32_t> blocks) {
  const std::lock_guard lock(mutex_);
  for (uint32_t b : blocks) {
    if (b >= num_blocks_ || ref_count_[b] == 0) {
      throw std::invalid_argument("KvBlockPool::fork_ref: block not live");
    }
  }
  for (uint32_t b : blocks) ++ref_count_[b];
}

uint32_t KvBlockPool::ref_count(uint32_t block) const {
  const std::lock_guard lock(mutex_);
  if (block >= num_blocks_) {
    throw std::invalid_argument("KvBlockPool::ref_count: bad block id");
  }
  return ref_count_[block];
}

uint32_t KvBlockPool::duplicate_locked(uint32_t block,
                                       KvPoolCredit* credit) {
  if (block >= num_blocks_ || ref_count_[block] == 0) {
    throw std::invalid_argument("KvBlockPool::duplicate: block not live");
  }
  if (credit != nullptr) {
    if (credit->live + 1 > credit->limit) {
      throw std::logic_error(
          "KvBlockPool: credited take exceeds its admission bound");
    }
  } else {
    const bool trip = failpoint_hit_locked();
    if (trip) note_failpoint_locked();
    if (trip || uncommitted_free_locked() == 0) {
      ++exhaustion_events_;
      throw KvBlockExhausted(
          "KvBlockPool: no free block to back the copy-on-write");
    }
  }
  const uint32_t fresh = pop_one_locked(credit, /*skip_zero=*/true);
  std::memcpy(data_ + size_t{fresh} * block_bytes(),
              data_ + size_t{block} * block_bytes(), block_bytes());
  note_occupancy_locked();
  return fresh;
}

uint32_t KvBlockPool::make_private(uint32_t block, KvPoolCredit* credit) {
  const std::lock_guard lock(mutex_);
  if (block >= num_blocks_ || ref_count_[block] == 0) {
    throw std::invalid_argument(
        "KvBlockPool::make_private: block not live");
  }
  if (ref_count_[block] == 1) return block;  // sole holder: write in place
  const uint32_t copy = duplicate_locked(block, credit);
  --ref_count_[block];  // cannot hit zero: it was >= 2
  ++cow_copies_;
  return copy;
}

bool KvBlockPool::make_private_span(std::span<uint32_t> blocks,
                                    KvPoolCredit* credit) {
  const std::lock_guard lock(mutex_);
  bool copied = false;
  for (uint32_t& b : blocks) {
    if (b >= num_blocks_ || ref_count_[b] == 0) {
      throw std::invalid_argument(
          "KvBlockPool::make_private_span: block not live");
    }
    if (ref_count_[b] == 1) continue;  // sole holder: write in place
    const uint32_t copy = duplicate_locked(b, credit);
    --ref_count_[b];  // cannot hit zero: it was >= 2
    ++cow_copies_;
    b = copy;
    copied = true;
  }
  return copied;
}

uint32_t KvBlockPool::duplicate(uint32_t block, KvPoolCredit* credit) {
  const std::lock_guard lock(mutex_);
  return duplicate_locked(block, credit);
}

bool KvBlockPool::try_reserve_credit(KvPoolCredit& credit, size_t n) {
  bool honest_shortfall = false;
  {
    const std::lock_guard lock(mutex_);
    if (!configured()) {
      throw std::logic_error(
          "KvBlockPool::try_reserve_credit: not configured");
    }
    if (credit.limit != 0 || credit.live != 0) {
      throw std::logic_error(
          "KvBlockPool::try_reserve_credit: credit already in use");
    }
    const bool trip = failpoint_hit_locked();
    if (trip) note_failpoint_locked();
    if (!trip && n <= uncommitted_free_locked()) {
      credit.limit = n;
      credit.peak = 0;
      credit_outstanding_ += n;
      return true;
    }
    ++exhaustion_events_;
    honest_shortfall = n > uncommitted_free_locked();
  }
  // Same escape valve as try_reserve: cold cache blocks yield to an
  // admission that would otherwise be refused (no second failpoint
  // decision, no second exhaustion event on the retry).
  if (!honest_shortfall || !reclaim_hook_) return false;
  if (reclaim_hook_(n) == 0) return false;
  const std::lock_guard lock(mutex_);
  if (n > uncommitted_free_locked()) return false;
  credit.limit = n;
  credit.peak = 0;
  credit_outstanding_ += n;
  return true;
}

bool KvBlockPool::reserve_credit_wait(KvPoolCredit& credit, size_t n) {
  std::unique_lock lock(mutex_);
  if (!configured()) {
    throw std::logic_error(
        "KvBlockPool::reserve_credit_wait: not configured");
  }
  if (credit.limit != 0 || credit.live != 0) {
    throw std::logic_error(
        "KvBlockPool::reserve_credit_wait: credit already in use");
  }
  if (n > num_blocks_) {
    throw KvBlockExhausted(
        "KvBlockPool::reserve_credit_wait: request exceeds pool size");
  }
  bool waited = false;
  if (n > uncommitted_free_locked()) {
    waited = true;
    ++exhaustion_events_;  // once per backpressure episode
    wait_for_blocks_locked(lock, n);
  }
  credit.limit = n;
  credit.peak = 0;
  credit_outstanding_ += n;
  return waited;
}

void KvBlockPool::set_trace(TraceRecorder* trace) {
  const std::lock_guard lock(mutex_);
  trace_ = trace;
}

void KvBlockPool::note_occupancy_locked() {
  if (trace_ != nullptr) {
    trace_->record(TraceEventType::kPoolOccupancy, kNoTraceSeq,
                   num_blocks_ - free_list_.size(), free_list_.size());
  }
}

void KvBlockPool::note_failpoint_locked() {
#ifdef PROTEA_FAILPOINTS
  if (trace_ != nullptr) {
    trace_->record(TraceEventType::kFailpointTrip, kNoTraceSeq,
                   failpoint_trips_, 0);
  }
#endif
}

#ifdef PROTEA_FAILPOINTS
void KvBlockPool::inject_failures(uint64_t skip, uint64_t count) {
  const std::lock_guard lock(mutex_);
  fail_skip_ = skip;
  fail_next_ = count;
}

void KvBlockPool::force_exhaustion(bool on) {
  const std::lock_guard lock(mutex_);
  force_exhausted_ = on;
}

void KvBlockPool::clear_failures() {
  const std::lock_guard lock(mutex_);
  fail_skip_ = 0;
  fail_next_ = 0;
  force_exhausted_ = false;
}

uint64_t KvBlockPool::failpoint_trips() const {
  const std::lock_guard lock(mutex_);
  return failpoint_trips_;
}
#else
void KvBlockPool::inject_failures(uint64_t, uint64_t) {
  throw std::logic_error("KvBlockPool: built without PROTEA_FAILPOINTS");
}

void KvBlockPool::force_exhaustion(bool) {
  throw std::logic_error("KvBlockPool: built without PROTEA_FAILPOINTS");
}

void KvBlockPool::clear_failures() {}

uint64_t KvBlockPool::failpoint_trips() const { return 0; }
#endif

void KvBlockPool::release_credit(KvPoolCredit& credit) {
  {
    const std::lock_guard lock(mutex_);
    if (credit.live != 0) {
      throw std::logic_error(
          "KvBlockPool::release_credit: group still holds blocks");
    }
    credit_outstanding_ -= credit.limit;
    credit.limit = 0;
    credit.peak = 0;
  }
  freed_.notify_all();  // the headroom is uncommitted again
}

// --- KvCache -----------------------------------------------------------------

KvCache::~KvCache() {
  // Give shared-pool blocks back so a dying session (exception unwind,
  // scheduler teardown) never strands capacity other sequences wait on.
  if (pool_ != nullptr && !block_table_.empty()) {
    pool_->release(block_table_);
  }
}

void KvCache::configure(size_t num_layers, size_t num_heads,
                        size_t head_dim, size_t capacity,
                        size_t memory_capacity,
                        const KvCacheOptions& opts) {
  if (num_layers == 0 || num_heads == 0 || head_dim == 0 || capacity == 0 ||
      memory_capacity == 0) {
    throw std::invalid_argument("KvCache::configure: zero dimension");
  }
  const bool paged = opts.block_rows > 0;
  if (!paged && opts.pool != nullptr) {
    throw std::invalid_argument(
        "KvCache::configure: pool given but block_rows = 0 (dense)");
  }
  if (opts.storage == numeric::KvStorage::kFp4E2M1 && head_dim % 2 != 0) {
    throw std::invalid_argument(
        "KvCache::configure: packed fp4 storage needs an even head_dim");
  }
  if (configured() && layers_.size() == num_layers &&
      num_heads_ == num_heads && head_dim_ == head_dim &&
      capacity_ == capacity && memory_capacity_ == memory_capacity &&
      block_rows_ == opts.block_rows && storage_ == opts.storage &&
      (opts.pool == nullptr ? owned_pool_ != nullptr || !paged
                            : pool_ == opts.pool)) {
    return;  // identical geometry and layout: keep storage and state
  }

  release_blocks();
  layers_.clear();
  arena_.reset();  // no live views by contract once layers_ is cleared
  num_heads_ = num_heads;
  head_dim_ = head_dim;
  storage_ = opts.storage;
  codec_ = numeric::kv_codec(storage_);
  head_bytes_ = numeric::kv_storage_bytes(head_dim, storage_);
  capacity_ = capacity;
  memory_capacity_ = memory_capacity;
  len_ = 0;
  memory_len_ = 0;
  block_rows_ = opts.block_rows;
  owned_pool_.reset();
  pool_ = nullptr;
  credit_ = nullptr;
  maybe_shared_ = false;
  forked_lineage_ = false;

  layers_.resize(num_layers);
  for (LayerKv& layer : layers_) {
    layer.cross_k.reserve(num_heads);
    layer.cross_v.reserve(num_heads);
    for (size_t h = 0; h < num_heads; ++h) {
      layer.cross_k.push_back(arena_.matrix_i8(memory_capacity, head_dim));
      layer.cross_v.push_back(arena_.matrix_i8(memory_capacity, head_dim));
      layer.cross_k.back().fill(0);
      layer.cross_v.back().fill(0);
    }
    if (!paged) {
      layer.self_k.reserve(num_heads);
      layer.self_v.reserve(num_heads);
      for (size_t h = 0; h < num_heads; ++h) {
        layer.self_k.push_back(arena_.matrix_i8(capacity, head_dim));
        layer.self_v.push_back(arena_.matrix_i8(capacity, head_dim));
        layer.self_k.back().fill(0);
        layer.self_v.back().fill(0);
      }
    }
  }

  if (paged) {
    const size_t max_blocks = util::ceil_div(capacity, block_rows_);
    if (opts.pool != nullptr) {
      if (!opts.pool->configured()) {
        throw std::invalid_argument(
            "KvCache::configure: shared pool not configured");
      }
      if (opts.pool->block_rows() != block_rows_ ||
          opts.pool->row_bytes() != row_bytes()) {
        throw std::invalid_argument(
            "KvCache::configure: shared pool geometry mismatch");
      }
      pool_ = opts.pool;
    } else {
      owned_pool_ = std::make_unique<KvBlockPool>();
      owned_pool_->configure(max_blocks, block_rows_, row_bytes());
      pool_ = owned_pool_.get();
    }
    // Pre-size the table so steady-state growth never heap-allocates.
    block_table_.clear();
    block_table_.reserve(max_blocks);
  }
}

bool KvCache::try_reserve_rows(size_t rows) {
  if (!configured()) {
    throw std::logic_error("KvCache::try_reserve_rows: not configured");
  }
  if (rows > capacity_) {
    throw std::invalid_argument(
        "KvCache::try_reserve_rows: rows exceed capacity");
  }
  if (!paged() || rows <= reserved_rows()) return true;
  const size_t need =
      util::ceil_div(rows, block_rows_) - block_table_.size();
  return pool_->try_reserve(need, block_table_, credit_);
}

void KvCache::reserve_rows(size_t rows) {
  if (!try_reserve_rows(rows)) {
    throw KvBlockExhausted("KvCache::reserve_rows: block pool exhausted");
  }
}

void KvCache::release_blocks() {
  if (pool_ != nullptr && !block_table_.empty()) {
    pool_->release(block_table_);
    block_table_.clear();
  }
  len_ = 0;  // the cached rows died with their blocks
  maybe_shared_ = false;
  forked_lineage_ = false;
}

void KvCache::bind_credit(KvPoolCredit* credit) {
  if (!block_table_.empty()) {
    throw std::logic_error(
        "KvCache::bind_credit: cache still holds blocks");
  }
  credit_ = credit;
}

size_t KvCache::swap_bytes() const {
  return paged() ? block_table_.size() * pool_->block_bytes() : 0;
}

size_t KvCache::swap_out(std::vector<int8_t>& dst) {
  if (!paged() || pool_ == nullptr) {
    throw std::logic_error("KvCache::swap_out: paged layout required");
  }
  if (maybe_shared_) {
    // A fork sibling may still read these blocks; spilling and releasing
    // them would yank the shared prefix out from under it. Beam groups
    // preempt as a unit through drop-and-recompute instead.
    throw std::logic_error(
        "KvCache::swap_out: block table possibly shared with a fork");
  }
  const size_t bytes = swap_bytes();
  dst.resize(bytes);
  const size_t bb = pool_->block_bytes();
  for (size_t i = 0; i < block_table_.size(); ++i) {
    std::memcpy(dst.data() + i * bb, pool_->row_data(block_table_[i], 0),
                bb);
  }
  const size_t rows = len_;
  release_blocks();
  return rows;
}

bool KvCache::try_swap_in(std::span<const int8_t> src, size_t rows) {
  if (!paged() || pool_ == nullptr) {
    throw std::logic_error("KvCache::try_swap_in: paged layout required");
  }
  if (!block_table_.empty()) {
    throw std::logic_error("KvCache::try_swap_in: cache still holds blocks");
  }
  const size_t bb = pool_->block_bytes();
  if (src.size() % bb != 0) {
    throw std::invalid_argument(
        "KvCache::try_swap_in: spill size is not a whole block count");
  }
  const size_t blocks = src.size() / bb;
  if (rows > blocks * block_rows_ || rows > capacity_) {
    throw std::invalid_argument("KvCache::try_swap_in: bad row count");
  }
  // All-or-nothing like any other reservation; the restore copy
  // overwrites every byte, so the lazy re-zero is skipped.
  if (!pool_->try_reserve(blocks, block_table_, credit_,
                          /*skip_zero=*/true)) {
    return false;
  }
  for (size_t i = 0; i < blocks; ++i) {
    std::memcpy(pool_->row_data(block_table_[i], 0), src.data() + i * bb,
                bb);
  }
  len_ = rows;
  return true;
}

void KvCache::fork_from(KvCache& parent, bool eager_copy) {
  if (!configured() || !parent.configured()) {
    throw std::logic_error("KvCache::fork_from: not configured");
  }
  if (&parent == this) {
    throw std::invalid_argument("KvCache::fork_from: self fork");
  }
  if (!paged() || !parent.paged()) {
    throw std::logic_error(
        "KvCache::fork_from: forking requires the paged layout");
  }
  if (pool_ != parent.pool_) {
    throw std::invalid_argument(
        "KvCache::fork_from: parent and child must share one pool");
  }
  if (layers_.size() != parent.layers_.size() ||
      num_heads_ != parent.num_heads_ || head_dim_ != parent.head_dim_ ||
      capacity_ != parent.capacity_ ||
      memory_capacity_ != parent.memory_capacity_ ||
      block_rows_ != parent.block_rows_) {
    throw std::invalid_argument("KvCache::fork_from: geometry mismatch");
  }
  if (storage_ != parent.storage_) {
    // Same row_bytes does not mean same meaning: an int8 cache reading a
    // fork parent's fp8 codes (or vice versa) would silently decode
    // garbage. Refuse loudly, like the prefix cache does for adoption.
    throw std::invalid_argument(
        "KvCache::fork_from: KV storage format mismatch");
  }
  release_blocks();
  len_ = parent.len_;
  memory_len_ = parent.memory_len_;

  // The cross projections are per-sequence dense views in this cache's
  // private arena; fork copies the prefilled prefix (a function of the
  // shared memory alone, identical across forks).
  for (size_t li = 0; li < layers_.size(); ++li) {
    const LayerKv& src = parent.layers_[li];
    LayerKv& dst = layers_[li];
    for (size_t h = 0; h < num_heads_; ++h) {
      const size_t bytes = memory_len_ * head_dim_;
      std::memcpy(dst.cross_k[h].row(0).data(), src.cross_k[h].row(0).data(),
                  bytes);
      std::memcpy(dst.cross_v[h].row(0).data(), src.cross_v[h].row(0).data(),
                  bytes);
    }
  }

  if (eager_copy) {
    // Reference mode: materialize a private copy of every block now.
    // Roll back on exhaustion so a failed fork leaves no stray holds.
    try {
      for (uint32_t b : parent.block_table_) {
        block_table_.push_back(pool_->duplicate(b, credit_));
      }
    } catch (...) {
      release_blocks();
      throw;
    }
    return;
  }
  // COW fork: adopt the parent's table by reference — O(block-table),
  // no K/V bytes move. Both sides may now hold shared blocks, so both
  // route divergent appends through the write-triggered copy.
  for (uint32_t b : parent.block_table_) block_table_.push_back(b);
  pool_->fork_ref(block_table_);
  maybe_shared_ = true;
  forked_lineage_ = true;
  parent.maybe_shared_ = true;
  parent.forked_lineage_ = true;
}

void KvCache::adopt_prefix(std::span<const uint32_t> blocks, size_t rows) {
  if (!paged() || pool_ == nullptr) {
    throw std::logic_error("KvCache::adopt_prefix: paged layout required");
  }
  if (len_ != 0) {
    throw std::logic_error(
        "KvCache::adopt_prefix: sequence already has cached rows");
  }
  if (credit_ != nullptr) {
    throw std::logic_error(
        "KvCache::adopt_prefix: credited caches cannot adopt");
  }
  if (blocks.empty() || rows == 0 || rows > blocks.size() * block_rows_ ||
      rows > capacity_) {
    throw std::invalid_argument("KvCache::adopt_prefix: bad row count");
  }
  // Swap the adopted blocks in for any entries already reserved at the
  // same positions; displaced (private) blocks return to the pool, so
  // adoption never takes from the free list and strictly reduces
  // pressure. A table smaller than the chain is dropped entirely — the
  // caller re-reserves growth beyond the adopted span on demand.
  if (blocks.size() <= block_table_.size()) {
    pool_->release(
        std::span<const uint32_t>(block_table_.data(), blocks.size()));
    std::copy(blocks.begin(), blocks.end(), block_table_.begin());
  } else {
    if (!block_table_.empty()) {
      pool_->release(block_table_);
      block_table_.clear();
    }
    block_table_.assign(blocks.begin(), blocks.end());
  }
  len_ = rows;
  maybe_shared_ = true;
  forked_lineage_ = true;
}

void KvCache::ensure_rows_private(size_t pos, size_t n) {
  if (!maybe_shared_ || n == 0) return;
  const size_t first = pos / block_rows_;
  const size_t last = (pos + n - 1) / block_rows_;
  pool_->make_private_span(
      std::span<uint32_t>(block_table_.data() + first, last - first + 1),
      credit_);
  // The hot-path payoff: once an append pass owns every block through
  // the END of the table, later appends cannot hit a shared block —
  // rows behind the frontier are never rewritten (begin_sequence
  // re-arms the guard), table growth hands out private blocks, and a
  // new fork re-sets the flag. Only the first scatter after a fork
  // pays the pool lock; the other (layer, head) scatters of the same
  // rows skip it.
  if (last + 1 == block_table_.size()) maybe_shared_ = false;
}

int8_t* KvCache::self_row_ptr(size_t row, size_t layer, size_t head,
                              size_t which) {
  const uint32_t block = block_table_[row / block_rows_];
  return pool_->row_data(block, row % block_rows_) +
         ((layer * num_heads_ + head) * 2 + which) * head_bytes_;
}

const int8_t* KvCache::self_row_ptr(size_t row, size_t layer, size_t head,
                                    size_t which) const {
  const uint32_t block = block_table_[row / block_rows_];
  return pool_->row_data(block, row % block_rows_) +
         ((layer * num_heads_ + head) * 2 + which) * head_bytes_;
}

namespace {

/// Encodes one head_dim-wide int8 row into its stored form (fp8: one
/// code byte per element; fp4: two nibbles per byte, low = even).
void encode_row(const numeric::KvCodec& codec, const int8_t* src,
                size_t head_dim, int8_t* dst) {
  const uint8_t* enc = codec.encode.data();
  if (codec.storage == numeric::KvStorage::kFp4E2M1) {
    for (size_t j = 0; j < head_dim; j += 2) {
      const uint8_t lo = enc[static_cast<uint8_t>(src[j]) ^ 0x80u];
      const uint8_t hi = enc[static_cast<uint8_t>(src[j + 1]) ^ 0x80u];
      dst[j / 2] = static_cast<int8_t>(lo | (hi << 4));
    }
  } else {
    for (size_t j = 0; j < head_dim; ++j) {
      dst[j] = static_cast<int8_t>(enc[static_cast<uint8_t>(src[j]) ^ 0x80u]);
    }
  }
}

}  // namespace

void KvCache::storage_roundtrip(tensor::MatrixViewI8 rows) const {
  if (codec_ == nullptr) return;
  const int8_t* rt = codec_->roundtrip.data();
  int8_t* data = rows.data();
  const size_t n = rows.rows() * rows.cols();
  for (size_t i = 0; i < n; ++i) {
    data[i] = rt[static_cast<uint8_t>(data[i]) ^ 0x80u];
  }
}

void KvCache::scatter_self(size_t layer, size_t head, size_t pos,
                           tensor::ConstMatrixViewI8 k,
                           tensor::ConstMatrixViewI8 v) {
  if (!paged()) {
    throw std::logic_error("KvCache::scatter_self: dense layout");
  }
  if (layer >= layers_.size() || head >= num_heads_ ||
      k.rows() != v.rows() || k.cols() != head_dim_ ||
      v.cols() != head_dim_) {
    throw std::invalid_argument("KvCache::scatter_self: bad shape");
  }
  if (pos + k.rows() > reserved_rows()) {
    throw std::logic_error("KvCache::scatter_self: rows not reserved");
  }
  // Write-triggered copy: a fork must not scribble on blocks its
  // siblings still read. Layer 0 / head 0 pays the copy; later
  // (layer, head) writes of the same rows see refcount 1 and scatter in
  // place.
  ensure_rows_private(pos, k.rows());
  if (codec_ != nullptr) {
    for (size_t r = 0; r < k.rows(); ++r) {
      encode_row(*codec_, k.row(r).data(), head_dim_,
                 self_row_ptr(pos + r, layer, head, 0));
      encode_row(*codec_, v.row(r).data(), head_dim_,
                 self_row_ptr(pos + r, layer, head, 1));
    }
    return;
  }
  for (size_t r = 0; r < k.rows(); ++r) {
    std::memcpy(self_row_ptr(pos + r, layer, head, 0), k.row(r).data(),
                head_dim_);
    std::memcpy(self_row_ptr(pos + r, layer, head, 1), v.row(r).data(),
                head_dim_);
  }
}

tensor::RowSpanListI8 KvCache::self_spans(
    size_t layer, size_t head, size_t which, size_t rows,
    std::span<tensor::RowSpanI8> runs) const {
  if (!paged()) {
    throw std::logic_error("KvCache::self_spans: dense layout");
  }
  if (layer >= layers_.size() || head >= num_heads_ || which > 1) {
    throw std::invalid_argument("KvCache::self_spans: bad index");
  }
  if (rows > reserved_rows()) {
    throw std::logic_error("KvCache::self_spans: rows not reserved");
  }
  const size_t stride = row_bytes();
  size_t count = 0;
  for (size_t row = 0; row < rows;) {
    const size_t in_block =
        std::min(block_rows_ - row % block_rows_, rows - row);
    const int8_t* base = self_row_ptr(row, layer, head, which);
    if (count > 0 &&
        runs[count - 1].base + runs[count - 1].rows * stride == base) {
      // Adjacent pool blocks are contiguous in the pool arena: extend.
      runs[count - 1].rows += in_block;
    } else {
      if (count == runs.size()) {
        throw std::invalid_argument(
            "KvCache::self_spans: run buffer too small");
      }
      runs[count++] = {base, in_block};
    }
    row += in_block;
  }
  return {.runs = runs.first(count),
          .rows = rows,
          .cols = head_dim_,
          .row_stride = stride,
          // Quantized rows carry their dequant table: the GEMM kernels
          // decode the stored codes as they pack or read them.
          .decode = codec_ != nullptr ? codec_->decode.data() : nullptr,
          .nibbles = storage_ == numeric::KvStorage::kFp4E2M1};
}

size_t KvCache::max_self_span_runs(size_t rows) const {
  if (!paged()) {
    throw std::logic_error("KvCache::max_self_span_runs: dense layout");
  }
  return util::ceil_div(rows, block_rows_);
}

void KvCache::begin_sequence(size_t memory_len) {
  if (!configured()) {
    throw std::logic_error("KvCache::begin_sequence: not configured");
  }
  if (memory_len > memory_capacity_) {
    throw std::invalid_argument(
        "KvCache::begin_sequence: memory exceeds capacity");
  }
  len_ = 0;
  memory_len_ = memory_len;
  // In-place reuse rewinds the append frontier to 0: a forked lineage's
  // still-shared prefix blocks are writable again, so the COW guard must
  // come back up.
  if (forked_lineage_) maybe_shared_ = true;
}

void KvCache::append(size_t n) {
  if (len_ + n > capacity_) {
    throw std::invalid_argument("KvCache::append: capacity exceeded");
  }
  if (paged() && len_ + n > reserved_rows()) {
    throw std::logic_error("KvCache::append: rows not reserved");
  }
  len_ += n;
}

size_t KvCache::self_bytes() const {
  if (paged()) {
    return block_table_.size() * pool_->block_bytes();
  }
  return layers_.size() * num_heads_ * 2 * capacity_ * head_dim_;
}

}  // namespace protea::runtime

#include "runtime/prefix_cache.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "runtime/telemetry.hpp"

namespace protea::runtime {

namespace {

uint64_t fnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void PrefixCache::configure(KvBlockPool& pool, size_t block_rows,
                            size_t d_model, const Options& opts) {
  if (!pool.configured()) {
    throw std::invalid_argument("PrefixCache::configure: pool not configured");
  }
  if (block_rows == 0 || block_rows != pool.block_rows()) {
    throw std::invalid_argument(
        "PrefixCache::configure: block_rows must match the pool");
  }
  if (d_model == 0) {
    throw std::invalid_argument("PrefixCache::configure: zero d_model");
  }
  if (opts.max_memories == 0) {
    throw std::invalid_argument("PrefixCache::configure: zero max_memories");
  }
  clear();
  const std::lock_guard lock(mutex_);
  pool_ = &pool;
  block_rows_ = block_rows;
  d_model_ = d_model;
  opts_ = opts;
  tick_ = 0;
  stats_ = PrefixCacheStats{};
}

void PrefixCache::check_storage(const KvCache& kv, const char* what) const {
  if (kv.storage() != opts_.storage) {
    throw std::logic_error(
        std::string("PrefixCache::") + what +
        ": KV storage format mismatch (cache keyed to " +
        numeric::kv_storage_name(opts_.storage) + ", sequence uses " +
        numeric::kv_storage_name(kv.storage()) +
        ") — a block's bytes only decode under the format that wrote them");
  }
}

PrefixCache::MemoryEntry* PrefixCache::find_entry_locked(
    const tensor::MatrixF& memory) {
  const size_t bytes = memory.rows() * memory.cols() * sizeof(float);
  const uint64_t h = fnv1a(memory.data(), bytes);
  for (auto& e : entries_) {
    if (e->hash != h || e->memory.rows() != memory.rows() ||
        e->memory.cols() != memory.cols()) {
      continue;
    }
    if (std::memcmp(e->memory.data(), memory.data(), bytes) == 0) {
      return e.get();
    }
  }
  return nullptr;
}

bool PrefixCache::copy_cross_locked(const MemoryEntry& e, KvCache& kv) const {
  const size_t s = e.memory.rows();
  if (kv.num_layers() != e.layers || kv.num_heads() != e.heads ||
      kv.head_dim() != e.head_dim || kv.memory_len() != s ||
      s > kv.memory_capacity()) {
    return false;
  }
  const size_t hd = e.head_dim;
  const int8_t* src = e.cross.data();
  for (size_t li = 0; li < e.layers; ++li) {
    LayerKv& layer = kv.layer(li);
    for (size_t h = 0; h < e.heads; ++h) {
      // The cross views are (memory_capacity x head_dim) contiguous, so
      // the valid prefix [0, s) is one run.
      std::memcpy(layer.cross_k[h].row(0).data(), src, s * hd);
      src += s * hd;
      std::memcpy(layer.cross_v[h].row(0).data(), src, s * hd);
      src += s * hd;
    }
  }
  return true;
}

PrefixCache::MemoryEntry& PrefixCache::ensure_entry_locked(
    const tensor::MatrixF& memory, const KvCache& kv) {
  if (MemoryEntry* e = find_entry_locked(memory)) return *e;
  if (kv.memory_len() != memory.rows()) {
    throw std::logic_error(
        "PrefixCache: cross publish without an active sequence for this "
        "memory");
  }
  auto entry = std::make_unique<MemoryEntry>();
  entry->hash =
      fnv1a(memory.data(), memory.rows() * memory.cols() * sizeof(float));
  entry->memory = memory;
  entry->layers = kv.num_layers();
  entry->heads = kv.num_heads();
  entry->head_dim = kv.head_dim();
  const size_t s = memory.rows();
  const size_t hd = entry->head_dim;
  entry->cross.resize(entry->layers * entry->heads * 2 * s * hd);
  int8_t* dst = entry->cross.data();
  for (size_t li = 0; li < entry->layers; ++li) {
    const LayerKv& layer = kv.layer(li);
    for (size_t h = 0; h < entry->heads; ++h) {
      std::memcpy(dst, layer.cross_k[h].row(0).data(), s * hd);
      dst += s * hd;
      std::memcpy(dst, layer.cross_v[h].row(0).data(), s * hd);
      dst += s * hd;
    }
  }
  entry->last_used = tick_;
  entries_.push_back(std::move(entry));
  MemoryEntry& created = *entries_.back();

  // Soft cap on distinct memories: evict the LRU entry whose blocks are
  // all cache-only. When every other entry is live, exceed the cap — a
  // live adoption must never lose its chain.
  while (entries_.size() > opts_.max_memories) {
    size_t victim = SIZE_MAX;
    uint64_t oldest = UINT64_MAX;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].get() == &created) continue;
      bool cold = true;
      const auto check = [&](const auto& self, const Node& n) -> void {
        if (pool_->ref_count(n.block) != 1) cold = false;
        for (const auto& c : n.children) {
          if (cold) self(self, *c);
        }
      };
      for (const auto& c : entries_[i]->children) {
        if (cold) check(check, *c);
      }
      if (cold && entries_[i]->last_used < oldest) {
        oldest = entries_[i]->last_used;
        victim = i;
      }
    }
    if (victim == SIZE_MAX) break;
    std::vector<uint32_t> blocks;
    const auto collect = [&](const auto& self, const Node& n) -> void {
      blocks.push_back(n.block);
      for (const auto& c : n.children) self(self, *c);
    };
    for (const auto& c : entries_[victim]->children) collect(collect, *c);
    if (!blocks.empty()) pool_->release(blocks);
    stats_.evictions += blocks.size();
    if (trace_ != nullptr && !blocks.empty()) {
      trace_->record(TraceEventType::kPrefixEvict, kNoTraceSeq,
                     blocks.size(), 0);
    }
    entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(victim));
  }
  return created;
}

size_t PrefixCache::adopt(const tensor::MatrixF& memory,
                          const tensor::MatrixF& prompt, KvCache& kv,
                          tensor::MatrixF& states, bool* cross_hit) {
  if (!configured()) {
    throw std::logic_error("PrefixCache::adopt: not configured");
  }
  if (prompt.rows() == 0 || prompt.cols() != d_model_) {
    throw std::invalid_argument("PrefixCache::adopt: bad prompt shape");
  }
  check_storage(kv, "adopt");
  const std::lock_guard lock(mutex_);
  ++tick_;
  if (cross_hit != nullptr) *cross_hit = false;
  MemoryEntry* e = find_entry_locked(memory);
  if (e == nullptr || !copy_cross_locked(*e, kv)) {
    ++stats_.cross_misses;
    ++stats_.prefix_misses;
    return 0;
  }
  e->last_used = tick_;
  ++stats_.cross_hits;
  stats_.cross_bytes_reused += e->cross.size();
  if (cross_hit != nullptr) *cross_hit = true;

  // Prefix adoption needs this cache's pool underneath the sequence and
  // a still-empty table; otherwise the cross reuse stands alone. Whole blocks only, and always >= 1 uncovered tail row, so the
  // sequence's first write lands on a block boundary (a fresh, private
  // block — divergence never touches an adopted byte).
  if (kv.pool() != pool_ || kv.len() != 0) {
    ++stats_.prefix_misses;
    return 0;
  }
  const size_t row_bytes_f = block_rows_ * d_model_ * sizeof(float);
  const size_t max_rows = prompt.rows() - 1;
  std::vector<uint32_t> chain;
  std::vector<Node*> nodes;
  auto* children = &e->children;
  size_t pos = 0;
  while (pos + block_rows_ <= max_rows) {
    const uint64_t h = fnv1a(prompt.row(pos).data(), row_bytes_f);
    Node* match = nullptr;
    for (auto& c : *children) {
      if (c->hash == h &&
          std::memcmp(c->rows.data(), prompt.row(pos).data(), row_bytes_f) ==
              0) {
        match = c.get();
        break;
      }
    }
    if (match == nullptr) break;
    chain.push_back(match->block);
    nodes.push_back(match);
    children = &match->children;
    pos += block_rows_;
  }
  if (chain.empty()) {
    ++stats_.prefix_misses;
    return 0;
  }
  pool_->fork_ref(chain);
  try {
    kv.adopt_prefix(chain, pos);
  } catch (...) {
    pool_->release(chain);
    throw;
  }
  if (states.rows() < prompt.rows() ||
      states.cols() != static_cast<size_t>(d_model_)) {
    states = tensor::MatrixF(prompt.rows(), d_model_);
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i]->last_used = tick_;
    std::memcpy(states.row(i * block_rows_).data(), nodes[i]->states.data(),
                row_bytes_f);
  }
  ++stats_.prefix_hits;
  stats_.rows_adopted += pos;
  stats_.bytes_adopted += pos * pool_->row_bytes();
  if (trace_ != nullptr) {
    trace_->record(TraceEventType::kPrefixAdopt, kNoTraceSeq, pos,
                   chain.size());
  }
  return pos;
}

bool PrefixCache::cross_into(const tensor::MatrixF& memory, KvCache& kv) {
  if (!configured()) {
    throw std::logic_error("PrefixCache::cross_into: not configured");
  }
  check_storage(kv, "cross_into");
  const std::lock_guard lock(mutex_);
  ++tick_;
  MemoryEntry* e = find_entry_locked(memory);
  if (e == nullptr || !copy_cross_locked(*e, kv)) {
    ++stats_.cross_misses;
    return false;
  }
  e->last_used = tick_;
  ++stats_.cross_hits;
  stats_.cross_bytes_reused += e->cross.size();
  return true;
}

void PrefixCache::publish_cross(const tensor::MatrixF& memory,
                                const KvCache& kv) {
  if (!configured()) {
    throw std::logic_error("PrefixCache::publish_cross: not configured");
  }
  check_storage(kv, "publish_cross");
  const std::lock_guard lock(mutex_);
  ++tick_;
  ensure_entry_locked(memory, kv).last_used = tick_;
}

void PrefixCache::publish(const tensor::MatrixF& memory,
                          const tensor::MatrixF& prompt,
                          const tensor::MatrixF& states, KvCache& kv) {
  if (!configured()) {
    throw std::logic_error("PrefixCache::publish: not configured");
  }
  if (prompt.rows() == 0 || prompt.cols() != d_model_) {
    throw std::invalid_argument("PrefixCache::publish: bad prompt shape");
  }
  if (kv.pool() != pool_) {
    throw std::logic_error("PrefixCache::publish: sequence not on this pool");
  }
  check_storage(kv, "publish");
  if (kv.len() < prompt.rows()) {
    throw std::logic_error(
        "PrefixCache::publish: prompt rows not cached by the sequence");
  }
  if (states.rows() < prompt.rows() || states.cols() != d_model_) {
    throw std::invalid_argument("PrefixCache::publish: bad states shape");
  }
  const std::lock_guard lock(mutex_);
  ++tick_;
  MemoryEntry& e = ensure_entry_locked(memory, kv);
  e.last_used = tick_;
  const size_t row_bytes_f = block_rows_ * d_model_ * sizeof(float);
  const size_t nblocks = prompt.rows() / block_rows_;  // full blocks only
  const std::span<const uint32_t> table = kv.block_table();
  auto* children = &e.children;
  size_t new_blocks = 0;
  for (size_t k = 0; k < nblocks; ++k) {
    const size_t pos = k * block_rows_;
    const uint64_t h = fnv1a(prompt.row(pos).data(), row_bytes_f);
    Node* match = nullptr;
    for (auto& c : *children) {
      if (c->hash == h &&
          std::memcmp(c->rows.data(), prompt.row(pos).data(), row_bytes_f) ==
              0) {
        match = c.get();
        break;
      }
    }
    if (match == nullptr) {
      auto node = std::make_unique<Node>();
      node->hash = h;
      node->rows = prompt.slice_rows(pos, block_rows_);
      node->states = states.slice_rows(pos, block_rows_);
      const uint32_t b = table[k];
      pool_->fork_ref(std::span<const uint32_t>(&b, 1));
      node->block = b;
      ++stats_.inserts;
      ++new_blocks;
      children->push_back(std::move(node));
      match = children->back().get();
    }
    match->last_used = tick_;
    children = &match->children;
  }
  if (new_blocks > 0) {
    // The donor's leading blocks are now shared with the cache: arm its
    // COW guard (it only ever writes beyond the published prefix, but
    // in-place sequence reuse and swap-out must see the sharing).
    kv.mark_table_shared();
    note_blocks_locked();
    if (trace_ != nullptr) {
      trace_->record(TraceEventType::kPrefixPublish, kNoTraceSeq,
                     nblocks * block_rows_, new_blocks);
    }
  }
}

bool PrefixCache::evict_one_leaf_locked() {
  std::vector<std::unique_ptr<Node>>* best_vec = nullptr;
  size_t best_idx = 0;
  uint64_t best_tick = UINT64_MAX;
  const auto scan = [&](const auto& self,
                        std::vector<std::unique_ptr<Node>>& vec) -> void {
    for (size_t i = 0; i < vec.size(); ++i) {
      Node& n = *vec[i];
      if (n.children.empty()) {
        // Leaves only: an interior node's children are unreachable
        // without it. Refcount 1 means the cache is the sole holder — a
        // block a live table references is never victimized.
        if (pool_->ref_count(n.block) == 1 && n.last_used < best_tick) {
          best_vec = &vec;
          best_idx = i;
          best_tick = n.last_used;
        }
      } else {
        self(self, n.children);
      }
    }
  };
  for (auto& e : entries_) scan(scan, e->children);
  if (best_vec == nullptr) return false;
  const uint32_t b = (*best_vec)[best_idx]->block;
  pool_->release(std::span<const uint32_t>(&b, 1));
  best_vec->erase(best_vec->begin() + static_cast<ptrdiff_t>(best_idx));
  ++stats_.evictions;
  if (trace_ != nullptr) {
    trace_->record(TraceEventType::kPrefixEvict, kNoTraceSeq, 1, 0);
  }
  return true;
}

size_t PrefixCache::reclaim(size_t blocks_wanted) {
  if (!configured() || blocks_wanted == 0) return 0;
  const std::lock_guard lock(mutex_);
  size_t freed = 0;
  while (freed < blocks_wanted && evict_one_leaf_locked()) ++freed;
  if (freed > 0) note_blocks_locked();
  return freed;
}

size_t PrefixCache::reclaimable_blocks() const {
  const std::lock_guard lock(mutex_);
  size_t total = 0;
  const auto walk = [&](const auto& self, const Node& n) -> bool {
    bool full = pool_->ref_count(n.block) == 1;
    for (const auto& c : n.children) {
      const bool child_full = self(self, *c);
      full = full && child_full;
    }
    if (full) ++total;  // freeable once its (freeable) children go
    return full;
  };
  for (const auto& e : entries_) {
    for (const auto& c : e->children) walk(walk, *c);
  }
  return total;
}

size_t PrefixCache::count_blocks_locked() const {
  size_t total = 0;
  const auto walk = [&](const auto& self, const Node& n) -> void {
    ++total;
    for (const auto& c : n.children) self(self, *c);
  };
  for (const auto& e : entries_) {
    for (const auto& c : e->children) walk(walk, *c);
  }
  return total;
}

void PrefixCache::note_blocks_locked() {
  stats_.blocks_held = count_blocks_locked();
  stats_.blocks_peak = std::max(stats_.blocks_peak, stats_.blocks_held);
}

void PrefixCache::clear() {
  const std::lock_guard lock(mutex_);
  if (pool_ != nullptr) {
    std::vector<uint32_t> blocks;
    const auto collect = [&](const auto& self, const Node& n) -> void {
      blocks.push_back(n.block);
      for (const auto& c : n.children) self(self, *c);
    };
    for (const auto& e : entries_) {
      for (const auto& c : e->children) collect(collect, *c);
    }
    if (!blocks.empty()) pool_->release(blocks);
  }
  entries_.clear();
  stats_.blocks_held = 0;
}

PrefixCacheStats PrefixCache::stats() const {
  const std::lock_guard lock(mutex_);
  PrefixCacheStats out = stats_;
  out.blocks_held = count_blocks_locked();
  return out;
}

void PrefixCache::set_trace(TraceRecorder* trace) {
  const std::lock_guard lock(mutex_);
  trace_ = trace;
}

}  // namespace protea::runtime

#include "runtime/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "accel/decoder_accelerator.hpp"
#include "runtime/module_gate.hpp"
#include "runtime/prefix_cache.hpp"
#include "runtime/telemetry.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace protea::runtime {

const char* traffic_priority_name(TrafficPriority p) {
  switch (p) {
    case TrafficPriority::kInteractive:
      return "interactive";
    case TrafficPriority::kStandard:
      return "standard";
    case TrafficPriority::kBatch:
      return "batch";
  }
  return "?";
}

const char* traffic_outcome_name(TrafficOutcome o) {
  switch (o) {
    case TrafficOutcome::kPending:
      return "pending";
    case TrafficOutcome::kCompleted:
      return "completed";
    case TrafficOutcome::kCompletedLate:
      return "completed_late";
    case TrafficOutcome::kShedOverload:
      return "shed_overload";
    case TrafficOutcome::kShedDeadline:
      return "shed_deadline";
    case TrafficOutcome::kShedCapacity:
      return "shed_capacity";
    case TrafficOutcome::kCancelled:
      return "cancelled";
    case TrafficOutcome::kFailed:
      return "failed";
  }
  return "?";
}

namespace {

constexpr uint32_t kNoDeadline = std::numeric_limits<uint32_t>::max();

/// Scheduling rank, best first. A TOTAL order (the submission index ties
/// everything), so "preempt only strictly better -> worse" can never
/// cycle and the best-ranked live request is unpreemptable — the engine
/// always has a progress guarantee.
struct Rank {
  uint32_t pri = 0;
  uint32_t deadline = kNoDeadline;  // absolute round
  uint32_t arrival = 0;
  uint32_t index = 0;

  bool operator<(const Rank& o) const {  // true: this outranks o
    if (pri != o.pri) return pri < o.pri;
    if (deadline != o.deadline) return deadline < o.deadline;
    if (arrival != o.arrival) return arrival < o.arrival;
    return index < o.index;
  }
};

/// CPU-side state of an admitted request. This is the part that SURVIVES
/// preemption — block tables die, this does not — and it is exactly
/// enough to restore bit-identically: the prompt rows (in the request),
/// every decode input already fed (`fed`; replay re-prefills them
/// without re-invoking the caller's stateful next_token), the pending
/// not-yet-decoded token (`next`) and, for swap victims, the raw block
/// bytes.
struct Flight {
  const TrafficRequest* req = nullptr;
  TrafficResult* result = nullptr;
  uint32_t index = 0;
  Rank rank;
  uint32_t deadline_round = kNoDeadline;
  tensor::MatrixF next;          // pending token embedding (not cached yet)
  tensor::MatrixF state;         // last decode output (1 x d)
  tensor::MatrixF chunk_states;  // per-chunk prefill outputs
  tensor::MatrixF fed;           // decode inputs already cached, row per step
  size_t prefill_pos = 0;
  bool prefilling = true;
  bool needs_begin = true;  // cross K/V projection still owed
  bool done = false;
  bool stalled = false;     // inside a growth-wait episode (stat dedup)
  bool unit_ready = false;  // rows reserved for this round's unit
  bool published = false;   // prompt handed to the prefix cache
  double wall_admit = 0.0;
  // Telemetry bookkeeping (written only when a sink is bound; never read
  // by the scheduling logic, so telemetry cannot perturb the schedule).
  uint32_t preempt_round = 0;    // round of the last eviction
  uint32_t last_decode_round = 0;
  bool has_decoded = false;      // last_decode_round is valid
  bool ttft_recorded = false;    // first-token latency observed once
  std::vector<int8_t> swap_data;  // spilled block bytes while preempted
  size_t swap_rows = 0;
  bool swapped = false;
  std::exception_ptr error;
};

/// Queue entry: a never-admitted arrival (flight == nullptr) or a
/// preempted flight awaiting restoration.
struct Waiting {
  uint32_t index = 0;
  std::unique_ptr<Flight> flight;
  bool wait_counted = false;  // one kv_block_waits per wait episode
};

void validate_traffic_request(const TrafficRequest& t,
                              const ref::ModelConfig& cfg,
                              const hw::SynthParams& synth) {
  const GenerationRequest& r = t.gen;
  if (r.memory == nullptr) {
    throw std::invalid_argument("traffic request: memory missing");
  }
  if (r.prefix.rows() == 0 || r.prefix.cols() != cfg.d_model) {
    throw std::invalid_argument("traffic request: bad prefix shape");
  }
  if (r.prefix.rows() > cfg.seq_len) {
    throw std::invalid_argument("traffic request: prefix exceeds seq_len");
  }
  if (r.prefix.rows() + r.max_new_tokens > cfg.seq_len + 1) {
    throw std::invalid_argument(
        "traffic request: prefix + max_new_tokens exceeds seq_len + 1");
  }
  if (r.memory->rows() == 0 || r.memory->rows() > synth.max_seq_len ||
      r.memory->cols() != cfg.d_model) {
    throw std::invalid_argument("traffic request: bad memory shape");
  }
  if (r.max_new_tokens > 0 && !r.next_token) {
    throw std::invalid_argument("traffic request: next_token missing");
  }
}

/// One unit of compute for an active seat: the next prefill chunk or one
/// decode step. This is the ONLY code that runs on worker threads; it
/// never touches the pool beyond rows the coordinator pre-reserved, so
/// it cannot throw KvBlockExhausted — any other exception is captured
/// into the flight and handled serially.
void run_unit(Flight& f, GenerationSession& session, StageGate* gate,
              size_t chunk) noexcept {
  try {
    if (f.needs_begin) {
      session.prefill_begin(*f.req->gen.memory, gate);
      f.needs_begin = false;
    }
    if (f.prefilling) {
      const tensor::MatrixF& prefix = f.req->gen.prefix;
      const size_t t_rows = prefix.rows();
      const size_t n = chunk == 0 ? t_rows - f.prefill_pos
                                  : std::min(chunk, t_rows - f.prefill_pos);
      const auto rows = prefix.slice_rows(f.prefill_pos, n);
      session.prefill_rows(rows, f.chunk_states, gate);
      for (size_t r = 0; r < n; ++r) {
        std::copy(f.chunk_states.row(r).begin(), f.chunk_states.row(r).end(),
                  f.result->states.row(f.prefill_pos + r).begin());
      }
      f.prefill_pos += n;
      if (f.prefill_pos < t_rows) return;
      f.prefilling = false;
      f.done =
          f.req->gen.max_new_tokens == 0 ||
          !f.req->gen.next_token(f.result->states.row(t_rows - 1), f.next);
      if (!f.done && session.position() >= session.capacity()) f.done = true;
    } else {
      // Retain the embedding BEFORE feeding it: drop-and-recompute
      // replays `fed` verbatim instead of re-running the (stateful)
      // next_token callbacks.
      std::copy(f.next.row(0).begin(), f.next.row(0).end(),
                f.fed.row(f.result->steps).begin());
      session.decode_step(f.next, f.state, gate);
      const size_t row = f.req->gen.prefix.rows() + f.result->steps;
      std::copy(f.state.row(0).begin(), f.state.row(0).end(),
                f.result->states.row(row).begin());
      ++f.result->steps;
      f.done = f.result->steps >= f.req->gen.max_new_tokens ||
               !f.req->gen.next_token(f.state.row(0), f.next);
      if (!f.done && session.position() >= session.capacity()) f.done = true;
    }
  } catch (...) {
    f.error = std::current_exception();
  }
}

/// The single coordinator behind both modes. Rounds are the engine's
/// virtual clock: arrivals, deadlines and latencies are measured in
/// rounds, so the schedule is a pure function of (requests, options,
/// injected faults) — bit-identical stepped vs threaded.
class Coordinator {
 public:
  Coordinator(const accel::AccelConfig& config,
              const accel::QuantizedDecoder& model,
              const std::vector<TrafficRequest>& requests,
              const TrafficOptions& opts, KvBlockPool& pool,
              PrefixCache* pcache, std::vector<TrafficResult>& results,
              SchedulerStats& stats)
      : config_(config),
        model_(model),
        requests_(requests),
        opts_(opts),
        pool_(pool),
        pcache_(pcache),
        results_(results),
        stats_(stats),
        tel_(opts.telemetry != nullptr && opts.telemetry->enabled()
                 ? opts.telemetry
                 : nullptr) {
    const size_t slots = std::min(opts.slots, requests.size());
    const GenerationOptions session_opts{
        .kv_block_rows = pool.block_rows(),
        .kv_pool = &pool,
        .prefill_chunk = opts.prefill_chunk,
        .kv_storage = opts.kv_storage};
    sessions_.reserve(slots);
    for (size_t s = 0; s < slots; ++s) {
      sessions_.push_back(std::make_unique<GenerationSession>(
          config, model, nullptr, session_opts));
    }
    seats_.resize(slots);

    if (opts.threads > 1) {
      const size_t workers = std::min(opts.threads, slots);
      const auto width = [&](uint32_t requested) {
        return requested > 0 ? requested : static_cast<uint32_t>(workers);
      };
      mha_ = std::make_unique<ModuleSlots>(width(opts.mha_slots));
      ffn_ = std::make_unique<ModuleSlots>(width(opts.ffn_slots));
      gate_ = std::make_unique<ModuleGate>(*mha_, *ffn_);
      workers_ = std::make_unique<util::ThreadPool>(workers);
    }

    // Each request is in at most one place (the waiting list or a seat),
    // so waiting_ never outgrows this — preempt_seat's push_back can
    // then never reallocate, which keeps indices AND iterators stable
    // while a reserve-with-preemption pass is in flight.
    waiting_.reserve(requests.size());

    arrival_order_.resize(requests.size());
    std::iota(arrival_order_.begin(), arrival_order_.end(), 0u);
    std::sort(arrival_order_.begin(), arrival_order_.end(),
              [&](uint32_t a, uint32_t b) {
                if (requests[a].arrival_round != requests[b].arrival_round) {
                  return requests[a].arrival_round < requests[b].arrival_round;
                }
                return a < b;
              });
  }

  void run() {
    // Arm the fault schedule AFTER session construction: warm-up takes
    // would silently consume the skip window.
    uint64_t trips_before = 0;
    if (opts_.fail_skip > 0 || opts_.fail_count > 0) {
      trips_before = pool_.failpoint_trips();
      pool_.inject_failures(opts_.fail_skip, opts_.fail_count);
    }
    struct ClearFaults {  // exception-safe disarm
      KvBlockPool& pool;
      ~ClearFaults() { pool.clear_failures(); }
    } clear_faults{pool_};

    // Arm the trace on the pool and prefix cache AFTER session
    // construction for the same reason as the failpoints: warm-up takes
    // are not part of the run. Disarm before the coordinator (and its
    // sessions, whose teardown releases blocks) is destroyed.
    struct ClearTrace {  // exception-safe disarm
      KvBlockPool& pool;
      PrefixCache* pcache;
      ~ClearTrace() {
        pool.set_trace(nullptr);
        if (pcache != nullptr) pcache->set_trace(nullptr);
      }
    } clear_trace{pool_, pcache_};
    if (tel_ != nullptr) {
      pool_.set_trace(&tel_->trace);
      if (pcache_ != nullptr) pcache_->set_trace(&tel_->trace);
    }

    util::Stopwatch watch;
    watch_ = &watch;
    while (finished_ < requests_.size()) {
      progressed_ = false;
      if (tel_ != nullptr) tel_->trace.set_round(round_);
      absorb_arrivals();  // re-syncs the recorder after an idle jump
      expire_and_cancel();
      shed_overload();
      admit_and_restore();
      dispatch_units();
      handle_unit_errors();
      publish_prefixes();
      retire_done();
      track_stall();
      if (tel_ != nullptr) {
        tel_->pool_occupancy_blocks->observe(pool_.used_blocks());
      }
      ++round_;
    }
    stats_.rounds = round_;
    stats_.kv_blocks_peak = pool_.peak_used_blocks();
    stats_.failpoint_trips = pool_.failpoint_trips() - trips_before;
    stats_.wall_ms = watch.milliseconds();
  }

 private:
  // --- bookkeeping helpers ---------------------------------------------------

  TrafficClassStats& cls(uint32_t index) {
    return stats_
        .per_class[static_cast<size_t>(requests_[index].priority)];
  }

  uint32_t deadline_of(uint32_t index) const {
    const TrafficRequest& r = requests_[index];
    if (r.deadline_rounds == 0) return kNoDeadline;
    const uint64_t dl =
        static_cast<uint64_t>(r.arrival_round) + r.deadline_rounds;
    return dl >= kNoDeadline ? kNoDeadline - 1 : static_cast<uint32_t>(dl);
  }

  Rank rank_of(uint32_t index) const {
    return Rank{static_cast<uint32_t>(requests_[index].priority),
                deadline_of(index), requests_[index].arrival_round, index};
  }

  size_t active_count() const {
    size_t n = 0;
    for (const auto& s : seats_) n += s != nullptr;
    return n;
  }

  void finalize_states(Flight& f) const {
    const size_t rows = f.prefilling
                            ? f.prefill_pos
                            : f.req->gen.prefix.rows() + f.result->steps;
    if (f.result->states.rows() != rows) {
      f.result->states =
          rows == 0 ? tensor::MatrixF() : f.result->states.slice_rows(0, rows);
    }
  }

  /// Terminal bookkeeping shared by every outcome. `f` is null for
  /// requests that never ran.
  void retire(uint32_t index, TrafficOutcome outcome, std::string reason,
              Flight* f) {
    TrafficResult& r = results_[index];
    r.outcome = outcome;
    r.shed_reason = std::move(reason);
    r.retired_round = round_;
    r.latency_rounds = round_ - requests_[index].arrival_round;
    if (tel_ != nullptr) {
      const bool completed = outcome == TrafficOutcome::kCompleted ||
                             outcome == TrafficOutcome::kCompletedLate;
      tel_->trace.record(completed ? TraceEventType::kComplete
                                   : TraceEventType::kShed,
                         index, static_cast<uint64_t>(outcome),
                         completed ? r.latency_rounds : 0);
    }
    if (f != nullptr) {
      finalize_states(*f);
      r.latency_ms = watch_->milliseconds() - f->wall_admit;
      if (f->swapped) --swapped_count_;  // free the side-buffer slot
    }
    TrafficClassStats& c = cls(index);
    switch (outcome) {
      case TrafficOutcome::kCompleted:
        ++c.completed;
        break;
      case TrafficOutcome::kCompletedLate:
        ++c.completed_late;
        break;
      case TrafficOutcome::kShedOverload:
        ++c.shed_overload;
        break;
      case TrafficOutcome::kShedDeadline:
        ++c.shed_deadline;
        break;
      case TrafficOutcome::kShedCapacity:
        ++c.shed_capacity;
        break;
      case TrafficOutcome::kCancelled:
        ++c.cancelled;
        break;
      case TrafficOutcome::kFailed:
        ++c.failed;
        break;
      case TrafficOutcome::kPending:
        break;
    }
    ++finished_;
    progressed_ = true;
  }

  void clear_seat(size_t s) {
    sessions_[s]->end_sequence();
    seats_[s].reset();
  }

  // --- preemption ------------------------------------------------------------

  /// Would preempt_seat spill this seat to the side buffer (vs dropping
  /// and recomputing)? Kept in one place so the victim-cost model and
  /// the actual eviction can never disagree.
  bool would_swap(size_t s) const {
    return opts_.recovery != PreemptionRecovery::kRecompute &&
           swapped_count_ < opts_.swap_slots &&
           !sessions_[s]->cache().maybe_shared();
  }

  /// Modeled cost (ms) of evicting seat `s` and later restoring it,
  /// priced for the recovery path preempt_seat would actually take.
  /// Pure arithmetic over deterministic state (cached rows, memory
  /// length, swap-slot occupancy), so stepped and threaded runs agree.
  double preemption_cost_of(size_t s) const {
    const size_t rows = sessions_[s]->position();
    if (rows == 0) return 0.0;
    const accel::PreemptionCost c = accel::estimate_preemption_cost(
        config_, model_.config, static_cast<uint32_t>(rows),
        static_cast<uint32_t>(seats_[s]->req->gen.memory->rows()),
        static_cast<uint32_t>(pool_.block_rows()), opts_.kv_storage);
    return would_swap(s) ? c.swap_ms : c.recompute_ms;
  }

  /// Victim selection (SIZE_MAX: none). Only seats ranked strictly worse
  /// than `r` qualify; a seat whose unit rows are already reserved this
  /// round is off limits: its unit is committed to run (dispatch
  /// reserves in rank order, so a better-ranked requester always
  /// reserves before its victims would). Among qualifying seats the
  /// worst SLO class goes first; within one class the tie breaks by
  /// estimate_preemption_cost — evict the seat that is cheapest to spill
  /// and restore — and only then by the full (deadline, arrival, index)
  /// rank order.
  size_t find_victim(const Rank& r, size_t exclude) const {
    size_t victim = SIZE_MAX;
    double victim_cost = 0.0;
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (s == exclude || seats_[s] == nullptr) continue;
      if (seats_[s]->unit_ready) continue;
      if (!(r < seats_[s]->rank)) continue;  // only strictly worse ranks
      const double cost = preemption_cost_of(s);
      if (victim == SIZE_MAX) {
        victim = s;
        victim_cost = cost;
        continue;
      }
      const Rank& cur = seats_[victim]->rank;
      const Rank& cand = seats_[s]->rank;
      if (cand.pri != cur.pri) {
        if (cand.pri > cur.pri) {
          victim = s;
          victim_cost = cost;
        }
        continue;
      }
      if (cost != victim_cost) {
        if (cost < victim_cost) {
          victim = s;
          victim_cost = cost;
        }
        continue;
      }
      if (cur < cand) {
        victim = s;
        victim_cost = cost;
      }
    }
    return victim;
  }

  /// Evicts seat `s` back onto the waiting list at its original rank.
  /// Swap-out spills the block bytes (restored by rescatter); recompute
  /// releases everything (restored by re-prefilling the retained token
  /// history). Both provably bit-identical at restore.
  void preempt_seat(size_t s) {
    Flight& f = *seats_[s];
    GenerationSession& session = *sessions_[s];
    TrafficClassStats& c = cls(f.index);
    // A table the prefix cache shares (adopted or published blocks)
    // cannot spill byte-wise — swap_out refuses maybe-shared tables —
    // so those victims always drop and recompute.
    const bool swap = would_swap(s);
    const size_t cached_rows = session.position();
    if (swap) {
      f.swap_rows = session.swap_out(f.swap_data);
      f.swapped = true;
      ++swapped_count_;
      stats_.swap_bytes += f.swap_data.size();
      ++c.swap_outs;
    } else {
      session.end_sequence();
      ++c.recomputes;
    }
    if (tel_ != nullptr) {
      tel_->trace.record(TraceEventType::kPreempt, f.index, swap ? 1 : 0,
                         cached_rows);
      if (swap) {
        tel_->trace.record(TraceEventType::kSwapOut, f.index,
                           f.swap_data.size(), f.swap_rows);
      }
      f.preempt_round = round_;
    }
    f.needs_begin = true;  // cross K/V must be re-projected either way
    f.stalled = false;
    ++c.preemptions;
    ++f.result->preemptions;
    waiting_.push_back(Waiting{f.index, std::move(seats_[s]), false});
    progressed_ = true;
  }

  /// Retries `try_reserve` against the pool, evicting one strictly
  /// worse-ranked victim per failure. Terminates: every retry either
  /// succeeds or consumes a victim (finite), and injected failpoints are
  /// finite by construction.
  template <typename TryFn>
  bool reserve_with_preemption(const Rank& r, size_t exclude,
                               TryFn&& try_reserve) {
    while (!try_reserve()) {
      if (!opts_.preemption) return false;
      const size_t victim = find_victim(r, exclude);
      if (victim == SIZE_MAX) return false;
      preempt_seat(victim);
    }
    return true;
  }

  // --- round phases ----------------------------------------------------------

  void absorb_arrivals() {
    // Idle + nothing queued: jump the virtual clock to the next arrival
    // instead of spinning empty rounds.
    if (waiting_.empty() && active_count() == 0 &&
        next_arrival_ < arrival_order_.size()) {
      round_ = std::max(
          round_, requests_[arrival_order_[next_arrival_]].arrival_round);
      if (tel_ != nullptr) tel_->trace.set_round(round_);
    }
    while (next_arrival_ < arrival_order_.size() &&
           requests_[arrival_order_[next_arrival_]].arrival_round <= round_) {
      enqueue_arrival(arrival_order_[next_arrival_++]);
    }
  }

  void enqueue_arrival(uint32_t index) {
    const TrafficRequest& req = requests_[index];
    ++cls(index).submitted;
    // Reject-with-reason instead of queueing forever: a request whose
    // worst case exceeds the whole pool could never be admitted.
    const size_t capacity = sessions_.front()->capacity();
    const size_t need = std::min<size_t>(
        req.gen.prefix.rows() + req.gen.max_new_tokens, capacity);
    const size_t blocks = util::ceil_div(need, pool_.block_rows());
    if (blocks > pool_.num_blocks()) {
      retire(index, TrafficOutcome::kShedCapacity,
             "worst case " + std::to_string(blocks) +
                 " blocks exceeds pool (" +
                 std::to_string(pool_.num_blocks()) + ")",
             nullptr);
      return;
    }
    waiting_.push_back(Waiting{index, nullptr, false});
    progressed_ = true;
  }

  void expire_and_cancel() {
    for (size_t wi = 0; wi < waiting_.size();) {
      Waiting& w = waiting_[wi];
      const TrafficRequest& req = requests_[w.index];
      Flight* f = w.flight.get();
      if (req.cancel != nullptr && req.cancel->load()) {
        retire(w.index, TrafficOutcome::kCancelled, "cancelled by caller", f);
        waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(wi));
        continue;
      }
      if (round_ > deadline_of(w.index)) {
        if (!results_[w.index].deadline_missed) {
          results_[w.index].deadline_missed = true;
          ++cls(w.index).deadline_misses;
          if (tel_ != nullptr) {
            tel_->trace.record(TraceEventType::kDeadlineMiss, w.index,
                               deadline_of(w.index), 0);
          }
        }
        if (f == nullptr) {  // expired before it ever ran
          retire(w.index, TrafficOutcome::kShedDeadline,
                 "deadline expired after " +
                     std::to_string(round_ - req.arrival_round) +
                     " rounds in queue",
                 nullptr);
          waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(wi));
          continue;
        }
        if (req.cancel_on_deadline) {  // preempted past its deadline
          retire(w.index, TrafficOutcome::kCancelled,
                 "deadline expired while preempted", f);
          waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(wi));
          continue;
        }
      }
      ++wi;
    }
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s] == nullptr) continue;
      Flight& f = *seats_[s];
      if (f.req->cancel != nullptr && f.req->cancel->load()) {
        retire(f.index, TrafficOutcome::kCancelled, "cancelled by caller", &f);
        clear_seat(s);
        continue;
      }
      if (round_ > f.deadline_round) {
        if (!f.result->deadline_missed) {
          f.result->deadline_missed = true;
          ++cls(f.index).deadline_misses;
          if (tel_ != nullptr) {
            tel_->trace.record(TraceEventType::kDeadlineMiss, f.index,
                               f.deadline_round, 0);
          }
        }
        if (f.req->cancel_on_deadline) {
          retire(f.index, TrafficOutcome::kCancelled,
                 "deadline expired mid-flight", &f);
          clear_seat(s);
        }
      }
    }
  }

  void shed_overload() {
    if (opts_.shed_queue_depth == 0) return;
    while (true) {
      // Only never-admitted requests are sheddable here — a preempted
      // flight's compute is already invested.
      size_t fresh = 0;
      size_t worst = SIZE_MAX;
      for (size_t wi = 0; wi < waiting_.size(); ++wi) {
        if (waiting_[wi].flight != nullptr) continue;
        ++fresh;
        if (worst == SIZE_MAX ||
            rank_of(waiting_[worst].index) < rank_of(waiting_[wi].index)) {
          worst = wi;
        }
      }
      if (fresh <= opts_.shed_queue_depth) return;
      retire(waiting_[worst].index, TrafficOutcome::kShedOverload,
             "queue depth " + std::to_string(fresh) + " exceeds watermark " +
                 std::to_string(opts_.shed_queue_depth),
             nullptr);
      waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(worst));
    }
  }

  /// Admission + restoration in STRICT rank order: the best-ranked
  /// waiting request goes first and a failure stops the pass — no
  /// bypass, so a starving request is never overtaken by a cheaper one.
  void admit_and_restore() {
    while (!waiting_.empty()) {
      size_t best = 0;
      for (size_t wi = 1; wi < waiting_.size(); ++wi) {
        if (rank_of(waiting_[wi].index) < rank_of(waiting_[best].index)) {
          best = wi;
        }
      }
      const Rank r = rank_of(waiting_[best].index);

      size_t s = SIZE_MAX;
      for (size_t i = 0; i < seats_.size(); ++i) {
        if (seats_[i] == nullptr) {
          s = i;
          break;
        }
      }
      if (s == SIZE_MAX) {
        if (!opts_.preemption) break;
        const size_t victim = find_victim(r, SIZE_MAX);
        if (victim == SIZE_MAX) break;  // every seat outranks us
        preempt_seat(victim);  // appends to waiting_; index stays valid
        s = victim;
      }

      const bool ok = waiting_[best].flight != nullptr
                          ? try_restore(best, s)
                          : try_admit(best, s);
      if (!ok) {
        if (!waiting_[best].wait_counted) {
          ++cls(waiting_[best].index).kv_block_waits;
          waiting_[best].wait_counted = true;
        }
        break;
      }
      waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(best));
    }
    stats_.max_active =
        std::max(stats_.max_active, static_cast<uint32_t>(active_count()));
  }

  /// try_admit/try_restore take the WAITING-LIST INDEX, not a Waiting&:
  /// reserve_with_preemption can evict seats onto waiting_, and although
  /// the constructor pre-reserves enough capacity that push_back never
  /// reallocates, indexing (plus the heap-stable Flight) keeps these
  /// correct even if that invariant ever changes.
  bool try_admit(size_t best, size_t s) {
    const uint32_t index = waiting_[best].index;
    const TrafficRequest& req = requests_[index];
    GenerationSession& session = *sessions_[s];
    const size_t prefix = req.gen.prefix.rows();
    // Optimistic admission: only the first prefill chunk up front, the
    // rest grows on demand (preempting victims when the pool is short).
    const size_t first = opts_.prefill_chunk == 0
                             ? prefix
                             : std::min(opts_.prefill_chunk, prefix);
    const Rank r = rank_of(index);
    if (!reserve_with_preemption(
            r, s, [&] { return session.try_reserve_rows(first); })) {
      return false;
    }
    auto f = std::make_unique<Flight>();
    f->req = &req;
    f->result = &results_[index];
    f->index = index;
    f->rank = r;
    f->deadline_round = deadline_of(index);
    f->result->states = tensor::MatrixF(prefix + req.gen.max_new_tokens,
                                        req.gen.prefix.cols());
    if (req.gen.max_new_tokens > 0) {
      f->fed =
          tensor::MatrixF(req.gen.max_new_tokens, req.gen.prefix.cols());
    }
    f->result->admitted_round = round_;
    f->wall_admit = watch_->milliseconds();
    if (tel_ != nullptr) {
      const uint32_t wait = round_ - req.arrival_round;
      tel_->trace.record(TraceEventType::kAdmit, index, wait, prefix);
      tel_->queue_wait_rounds->observe(wait);
    }
    if (pcache_ != nullptr) {
      // Coordinator-side adoption: copy cached cross projections (or
      // project and publish them on a miss), adopt the longest cached
      // prompt prefix by refcount, and start the prefill cursor past the
      // adopted rows — all before the flight's first unit runs. Workers
      // never touch the cache, so the hit/miss sequence is identical in
      // stepped and threaded modes. begin_sequence keeps the rows just
      // reserved, and adoption itself never takes pool blocks.
      f->prefill_pos = session.prefill_begin_cached(
          *pcache_, req.gen.prefix, *req.gen.memory, f->result->states);
      f->needs_begin = false;
    }
    seats_[s] = std::move(f);
    progressed_ = true;
    return true;
  }

  /// Could a take of `blocks` blocks (or the preemption
  /// retry loop behind it) possibly succeed right now? Exact under the
  /// coordinator's pool serialization — units never touch the pool —
  /// except for armed failpoints, which the real take still consults.
  bool reserve_could_succeed(size_t blocks, const Rank& r,
                             size_t exclude) const {
    // Cold prefix-cache blocks count as available: the pool's reclaim
    // hook frees them before a take fails, so admission reclaims the
    // cache before it would shed or preempt live work.
    const size_t reclaimable =
        pcache_ != nullptr ? pcache_->reclaimable_blocks() : 0;
    if (blocks <= pool_.free_blocks() + reclaimable) return true;
    return opts_.preemption && find_victim(r, exclude) != SIZE_MAX;
  }

  bool try_restore(size_t best, size_t s) {
    // The Flight lives on the heap behind waiting_[best].flight, so it
    // is stable across waiting_ growth; the Waiting slot itself is only
    // re-touched (by index) for the final hand-off.
    Flight& f = *waiting_[best].flight;
    GenerationSession& session = *sessions_[s];
    uint64_t restore_path = 0;  // 0 swap-in, 1 re-prefill, 2 replay
    // The cross K/V is a pure function of the encoder memory: recompute
    // it fresh (deterministic, so bit-identical to the original). It is
    // also the expensive part of a restore attempt — a full projection
    // over the memory — so every path below secures (or at least
    // probes) the block reservation FIRST, keeping a failed attempt
    // cheap under sustained pool contention.
    if (f.swapped) {
      // prefill_begin must precede try_swap_in (begin_sequence rewinds
      // the cached length that swap-in re-establishes), so probe the
      // pool before paying for the projection. The probe can only
      // misfire on an armed failpoint, which the take below consults.
      const size_t blocks = f.swap_data.size() / pool_.block_bytes();
      if (!reserve_could_succeed(blocks, f.rank, s)) return false;
      if (pcache_ != nullptr) {
        // Swap-in brings the self rows back byte-wise; only the cross
        // projections are owed, and the cache usually has them.
        session.prefill_begin_cross(*pcache_, *f.req->gen.memory, nullptr);
      } else {
        session.prefill_begin(*f.req->gen.memory, nullptr);
      }
      // Rescatter the spilled block bytes — byte-exact, including the
      // partial tail block.
      if (!reserve_with_preemption(f.rank, s, [&] {
            return session.try_swap_in(f.swap_data, f.swap_rows);
          })) {
        return false;
      }
      if (tel_ != nullptr) {
        tel_->trace.record(TraceEventType::kSwapIn, f.index,
                           f.swap_data.size(), f.swap_rows);
      }
      f.swapped = false;
      --swapped_count_;
      f.swap_data.clear();
      f.swap_data.shrink_to_fit();
    } else if (f.prefilling) {
      restore_path = 1;
      // Drop-and-recompute of a mid-prefill victim: restart the prompt
      // (rows are rewritten identically — chunked prefill is exact).
      // Reserving before prefill_begin is safe here: begin_sequence
      // keeps held blocks, and prefill_begin never touches the pool.
      const size_t prefix = f.req->gen.prefix.rows();
      const size_t first = opts_.prefill_chunk == 0
                               ? prefix
                               : std::min(opts_.prefill_chunk, prefix);
      if (!reserve_with_preemption(
              f.rank, s, [&] { return session.try_reserve_rows(first); })) {
        return false;
      }
      if (pcache_ != nullptr) {
        // The restart can adopt cached blocks (possibly MORE than the
        // victim had prefilled before eviction — the published prefix
        // may have grown since). Adopted states are bit-identical to
        // the rows already recorded, so overwriting them is a no-op.
        f.prefill_pos = session.prefill_begin_cached(
            *pcache_, f.req->gen.prefix, *f.req->gen.memory,
            f.result->states);
      } else {
        session.prefill_begin(*f.req->gen.memory, nullptr);
        f.prefill_pos = 0;
      }
    } else {
      restore_path = 2;
      // Drop-and-recompute: re-prefill the prompt plus every decode
      // input already fed. Chunk invariance (PR 4) makes the replayed
      // K/V bytes identical to the incremental original; the pending
      // `next` token and recorded states survive in CPU memory.
      const size_t cached = f.req->gen.prefix.rows() + f.result->steps;
      if (!reserve_with_preemption(
              f.rank, s, [&] { return session.try_reserve_rows(cached); })) {
        return false;
      }
      size_t adopted = 0;
      if (pcache_ != nullptr) {
        // Adoption trims the replay to the uncovered prompt tail (the
        // adopted states are bit-identical to the recorded rows, and
        // chunk invariance makes the tail replay exact on top of them).
        adopted = session.prefill_begin_cached(
            *pcache_, f.req->gen.prefix, *f.req->gen.memory,
            f.result->states);
      } else {
        session.prefill_begin(*f.req->gen.memory, nullptr);
      }
      const size_t prefix_rows = f.req->gen.prefix.rows();
      tensor::MatrixF scratch;
      if (adopted < prefix_rows) {
        session.prefill_rows(
            f.req->gen.prefix.slice_rows(adopted, prefix_rows - adopted),
            scratch, nullptr);
      }
      if (f.result->steps > 0) {
        const auto fed = f.fed.slice_rows(0, f.result->steps);
        session.prefill_rows(fed, scratch, nullptr);
      }
      stats_.replayed_rows += cached - adopted;  // rows actually re-run
    }
    f.needs_begin = false;
    f.stalled = false;
    ++cls(f.index).restores;
    if (tel_ != nullptr) {
      const uint32_t downtime = round_ - f.preempt_round;
      tel_->trace.record(TraceEventType::kRestore, f.index, downtime,
                         restore_path);
      tel_->preempt_downtime_rounds->observe(downtime);
    }
    seats_[s] = std::move(waiting_[best].flight);
    progressed_ = true;
    return true;
  }

  /// Pre-reserves every runnable seat's rows for this round's unit (so
  /// units never touch the pool), then runs the units — serially in
  /// seat order, or fanned out over the worker pool behind the module
  /// gates. Pool order is coordinator-only either way: bit-identical.
  void dispatch_units() {
    // Reserve each runnable seat's rows in RANK order, best first: a
    // growth that comes up short may preempt strictly worse seats, and
    // those have provably not reserved yet (reserved seats are immune —
    // see find_victim — so a unit in runnable_ can never lose its seat
    // before it runs).
    runnable_.clear();
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s] != nullptr && !seats_[s]->done && !seats_[s]->error) {
        runnable_.push_back(s);
      }
    }
    std::sort(runnable_.begin(), runnable_.end(), [&](size_t a, size_t b) {
      return seats_[a]->rank < seats_[b]->rank;
    });
    size_t ready = 0;
    for (const size_t s : runnable_) {
      // A better-ranked seat earlier in this pass may have evicted us.
      if (seats_[s] == nullptr) continue;
      Flight& f = *seats_[s];
      const size_t prefix = f.req->gen.prefix.rows();
      size_t target;
      if (f.prefilling) {
        const size_t n =
            opts_.prefill_chunk == 0
                ? prefix - f.prefill_pos
                : std::min(opts_.prefill_chunk, prefix - f.prefill_pos);
        target = f.prefill_pos + n;
      } else {
        target = prefix + f.result->steps + 1;
      }
      if (!reserve_with_preemption(f.rank, s, [&] {
            return sessions_[s]->try_reserve_rows(target);
          })) {
        if (!f.stalled) {  // one wait per stall episode
          ++cls(f.index).kv_block_waits;
          f.stalled = true;
        }
        continue;
      }
      f.stalled = false;
      f.unit_ready = true;
      runnable_[ready++] = s;
      if (f.prefilling) {
        ++stats_.prefill_chunks;
        if (tel_ != nullptr) {
          tel_->trace.record(TraceEventType::kPrefillChunk, f.index, target,
                             0);
        }
      } else {
        ++stats_.decode_steps;
        if (tel_ != nullptr) {
          tel_->trace.record(TraceEventType::kDecodeStep, f.index,
                             f.result->steps, 0);
          if (f.has_decoded) {
            tel_->token_gap_rounds->observe(round_ - f.last_decode_round);
          }
          f.has_decoded = true;
          f.last_decode_round = round_;
        }
      }
    }
    runnable_.resize(ready);
    if (runnable_.empty()) return;
    progressed_ = true;
    if (workers_ == nullptr) {
      for (const size_t s : runnable_) {
        run_unit(*seats_[s], *sessions_[s], nullptr, opts_.prefill_chunk);
      }
    } else {
      for (const size_t s : runnable_) {
        Flight* f = seats_[s].get();
        GenerationSession* session = sessions_[s].get();
        workers_->submit([this, f, session] {
          run_unit(*f, *session, gate_.get(), opts_.prefill_chunk);
        });
      }
      workers_->wait_idle();
    }
    for (const size_t s : runnable_) {
      Flight& f = *seats_[s];
      f.unit_ready = false;
      // TTFT: prefilling flips true -> false exactly once per request (a
      // mid-prefill recompute keeps it true, post-prefill paths never
      // reset it), at the unit that computed the last prompt row — the
      // state the first generated token is drawn from.
      if (tel_ != nullptr && !f.prefilling && !f.ttft_recorded) {
        f.ttft_recorded = true;
        tel_->ttft_rounds->observe(round_ - f.req->arrival_round);
        tel_->ttft_us->observe(static_cast<uint64_t>(
            (watch_->milliseconds() - f.wall_admit) * 1e3));
      }
    }
  }

  void handle_unit_errors() {
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s] == nullptr || !seats_[s]->error) continue;
      Flight& f = *seats_[s];
      // Units run against pre-reserved rows, so pool exhaustion here
      // would be an engine invariant slipping — keep it visible as a
      // capacity shed. Anything else is a caller fault (typically a
      // throwing next_token callback) and retires kFailed so caller
      // bugs never masquerade as pool pressure in outcomes or stats.
      TrafficOutcome outcome = TrafficOutcome::kFailed;
      std::string reason = "unit failed: ";
      try {
        std::rethrow_exception(f.error);
      } catch (const KvBlockExhausted& e) {
        outcome = TrafficOutcome::kShedCapacity;
        reason += e.what();
      } catch (const std::exception& e) {
        reason += e.what();
      } catch (...) {
        reason += "unknown exception";
      }
      retire(f.index, outcome, std::move(reason), &f);
      clear_seat(s);
    }
  }

  /// Coordinator-side publication: every prompt that finished prefilling
  /// this round is handed to the prefix cache in seat order, so the
  /// radix index grows identically in stepped and threaded runs. Runs
  /// after unit errors are cleared and before retire_done, so a prompt
  /// that completes and retires in the same round is still captured
  /// (its blocks outlive the seat via the cache's references).
  void publish_prefixes() {
    if (pcache_ == nullptr) return;
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s] == nullptr) continue;
      Flight& f = *seats_[s];
      if (f.prefilling || f.published) continue;
      sessions_[s]->publish_prefix(*pcache_, f.req->gen.prefix,
                                   *f.req->gen.memory, f.result->states);
      f.published = true;
    }
  }

  void retire_done() {
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s] == nullptr || !seats_[s]->done) continue;
      Flight& f = *seats_[s];
      retire(f.index,
             f.result->deadline_missed ? TrafficOutcome::kCompletedLate
                                       : TrafficOutcome::kCompleted,
             "", &f);
      clear_seat(s);
    }
  }

  /// Liveness backstop: after stall_limit consecutive rounds without
  /// progress (reachable only under forced exhaustion or with
  /// preemption disabled), shed the worst-ranked request anywhere so
  /// the run always terminates.
  void track_stall() {
    if (progressed_) {
      stall_streak_ = 0;
      return;
    }
    if (++stall_streak_ <= opts_.stall_limit) return;
    size_t worst_seat = SIZE_MAX;
    size_t worst_wait = SIZE_MAX;
    Rank worst;
    bool have = false;
    for (size_t s = 0; s < seats_.size(); ++s) {
      if (seats_[s] == nullptr) continue;
      if (!have || worst < seats_[s]->rank) {
        worst = seats_[s]->rank;
        worst_seat = s;
        worst_wait = SIZE_MAX;
        have = true;
      }
    }
    for (size_t wi = 0; wi < waiting_.size(); ++wi) {
      const Rank r = rank_of(waiting_[wi].index);
      if (!have || worst < r) {
        worst = r;
        worst_wait = wi;
        worst_seat = SIZE_MAX;
        have = true;
      }
    }
    if (!have) return;  // nothing left to shed; arrivals will progress
    const char* reason = "stall limit: KV pool cannot serve the working set";
    if (worst_seat != SIZE_MAX) {
      retire(seats_[worst_seat]->index, TrafficOutcome::kShedCapacity, reason,
             seats_[worst_seat].get());
      clear_seat(worst_seat);
    } else {
      retire(waiting_[worst_wait].index, TrafficOutcome::kShedCapacity, reason,
             waiting_[worst_wait].flight.get());
      waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(worst_wait));
    }
    stall_streak_ = 0;
  }

  const accel::AccelConfig& config_;
  const accel::QuantizedDecoder& model_;
  const std::vector<TrafficRequest>& requests_;
  const TrafficOptions& opts_;
  KvBlockPool& pool_;
  PrefixCache* pcache_;  // null when the prefix cache is off
  std::vector<TrafficResult>& results_;
  SchedulerStats& stats_;
  Telemetry* tel_;  // null when unset or unconfigured (inert)

  std::vector<std::unique_ptr<GenerationSession>> sessions_;
  std::vector<std::unique_ptr<Flight>> seats_;
  std::vector<Waiting> waiting_;
  std::vector<uint32_t> arrival_order_;
  std::vector<size_t> runnable_;
  size_t next_arrival_ = 0;
  size_t swapped_count_ = 0;
  size_t finished_ = 0;
  size_t stall_streak_ = 0;
  uint32_t round_ = 0;
  bool progressed_ = false;
  util::Stopwatch* watch_ = nullptr;

  std::unique_ptr<ModuleSlots> mha_;
  std::unique_ptr<ModuleSlots> ffn_;
  std::unique_ptr<ModuleGate> gate_;
  std::unique_ptr<util::ThreadPool> workers_;
};

}  // namespace

// --- SchedulerStats serialization --------------------------------------------

namespace {

struct ClassField {
  const char* name;
  uint64_t TrafficClassStats::* ptr;
};

constexpr ClassField kClassFields[] = {
    {"submitted", &TrafficClassStats::submitted},
    {"completed", &TrafficClassStats::completed},
    {"completed_late", &TrafficClassStats::completed_late},
    {"shed_overload", &TrafficClassStats::shed_overload},
    {"shed_deadline", &TrafficClassStats::shed_deadline},
    {"shed_capacity", &TrafficClassStats::shed_capacity},
    {"cancelled", &TrafficClassStats::cancelled},
    {"failed", &TrafficClassStats::failed},
    {"preemptions", &TrafficClassStats::preemptions},
    {"swap_outs", &TrafficClassStats::swap_outs},
    {"recomputes", &TrafficClassStats::recomputes},
    {"restores", &TrafficClassStats::restores},
    {"deadline_misses", &TrafficClassStats::deadline_misses},
    {"kv_block_waits", &TrafficClassStats::kv_block_waits},
};

}  // namespace

std::vector<StatSample> flatten_stats(const SchedulerStats& stats) {
  std::vector<StatSample> out;
  out.reserve(std::size(kClassFields) * (kTrafficClasses + 1) + 16);
  const auto push = [&](std::string metric, double value,
                        const char* unit = "count") {
    out.push_back(StatSample{std::move(metric), value, unit});
  };
  for (const ClassField& f : kClassFields) {
    push(f.name, static_cast<double>(stats.total(f.ptr)));
  }
  for (size_t c = 0; c < kTrafficClasses; ++c) {
    const std::string prefix =
        std::string(traffic_priority_name(static_cast<TrafficPriority>(c))) +
        ".";
    for (const ClassField& f : kClassFields) {
      push(prefix + f.name,
           static_cast<double>(stats.per_class[c].*(f.ptr)));
    }
  }
  push("rounds", static_cast<double>(stats.rounds), "rounds");
  push("decode_steps", static_cast<double>(stats.decode_steps));
  push("prefill_chunks", static_cast<double>(stats.prefill_chunks));
  push("replayed_rows", static_cast<double>(stats.replayed_rows), "rows");
  push("swap_bytes", static_cast<double>(stats.swap_bytes), "bytes");
  push("kv_blocks_peak", static_cast<double>(stats.kv_blocks_peak), "blocks");
  push("failpoint_trips", static_cast<double>(stats.failpoint_trips));
  push("prefix_hits", static_cast<double>(stats.prefix_hits));
  push("prefix_misses", static_cast<double>(stats.prefix_misses));
  push("prefix_rows_adopted", static_cast<double>(stats.prefix_rows_adopted),
       "rows");
  push("prefix_bytes_saved", static_cast<double>(stats.prefix_bytes_saved),
       "bytes");
  push("cross_kv_hits", static_cast<double>(stats.cross_kv_hits));
  push("cross_kv_misses", static_cast<double>(stats.cross_kv_misses));
  push("prefix_evictions", static_cast<double>(stats.prefix_evictions));
  push("max_active", static_cast<double>(stats.max_active));
  push("wall_ms", stats.wall_ms, "ms");
  return out;
}

// --- TrafficEngine -----------------------------------------------------------

TrafficEngine::TrafficEngine(accel::AccelConfig config,
                             accel::QuantizedDecoder model)
    : config_(std::move(config)), model_(std::move(model)) {
  config_.validate();
  accel::validate_runtime(config_.synth, model_.config);
}

std::vector<TrafficResult> TrafficEngine::run(
    const std::vector<TrafficRequest>& requests, const TrafficOptions& opts) {
  if (opts.slots == 0) {
    throw std::invalid_argument("TrafficEngine: zero slots");
  }
  if (opts.threads == 0) {
    throw std::invalid_argument("TrafficEngine: zero threads");
  }
  if (opts.kv_pool != nullptr && !opts.kv_pool->configured()) {
    throw std::invalid_argument("TrafficEngine: pool not configured");
  }
  for (const TrafficRequest& r : requests) {
    validate_traffic_request(r, model_.config, config_.synth);
  }

  std::vector<TrafficResult> results(requests.size());
  last_run_ = SchedulerStats{};
  if (requests.empty()) return results;

  KvBlockPool owned_pool;
  KvBlockPool* pool = opts.kv_pool;
  if (pool == nullptr) {
    const ref::ModelConfig& mc = model_.config;
    // kv_block_rows = 0: one block holds a whole sequence.
    const size_t block_rows =
        opts.kv_block_rows > 0 ? opts.kv_block_rows : mc.seq_len;
    // kv_pool_blocks = 0: room for a full-capacity sequence in every seat.
    const size_t blocks =
        opts.kv_pool_blocks > 0
            ? opts.kv_pool_blocks
            : std::min(opts.slots, requests.size()) *
                  util::ceil_div<size_t>(mc.seq_len, block_rows);
    // Storage-aware row width (packed fp4 rows are half as wide); must
    // match what each seat's KvCache derives for the same format.
    owned_pool.configure(blocks, block_rows,
                         accel::kv_row_bytes(mc, opts.kv_storage));
    pool = &owned_pool;
  }

  // The cache is declared after any owned pool (destroyed first) and the
  // guard after the cache (runs first): even on a throwing run the hook
  // unbinds before the cache dies and cached block refs drop before the
  // pool does.
  PrefixCache prefix_cache;
  struct CacheGuard {
    KvBlockPool* pool = nullptr;
    PrefixCache* cache = nullptr;
    ~CacheGuard() {
      if (pool != nullptr) pool->set_reclaim_hook(nullptr);
      if (cache != nullptr) cache->clear();
    }
  } cache_guard;
  PrefixCache* pcache = nullptr;
  if (opts.prefix_cache) {
    prefix_cache.configure(*pool, pool->block_rows(), model_.config.d_model,
                           PrefixCache::Options{.storage = opts.kv_storage});
    pool->set_reclaim_hook(
        [&prefix_cache](size_t want) { return prefix_cache.reclaim(want); });
    cache_guard.pool = pool;
    cache_guard.cache = &prefix_cache;
    pcache = &prefix_cache;
  }

  Coordinator coord(config_, model_, requests, opts, *pool, pcache, results,
                    last_run_);
  coord.run();
  if (pcache != nullptr) {
    const PrefixCacheStats ps = pcache->stats();
    last_run_.prefix_hits = ps.prefix_hits;
    last_run_.prefix_misses = ps.prefix_misses;
    last_run_.prefix_rows_adopted = ps.rows_adopted;
    last_run_.prefix_bytes_saved = ps.bytes_adopted + ps.cross_bytes_reused;
    last_run_.cross_kv_hits = ps.cross_hits;
    last_run_.cross_kv_misses = ps.cross_misses;
    last_run_.prefix_evictions = ps.evictions;
  }
  return results;
}

std::vector<TrafficResult> TrafficEngine::run(
    const std::vector<GenerationRequest>& requests, const TrafficOptions& opts) {
  std::vector<TrafficRequest> batch(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) batch[i].gen = requests[i];
  return run(batch, opts);
}

// --- synthetic traces --------------------------------------------------------

std::vector<TraceItem> generate_trace(const TraceConfig& config) {
  if (config.max_prompt < config.min_prompt || config.min_prompt == 0 ||
      config.max_new < config.min_new) {
    throw std::invalid_argument("generate_trace: bad length bounds");
  }
  if (config.mean_interarrival_rounds <= 0.0 || config.burst_factor <= 0.0 ||
      config.heavy_tail_alpha <= 0.0) {
    throw std::invalid_argument("generate_trace: bad rate parameters");
  }
  if (config.shared_prefix_count > 0 && config.shared_prefix_rows == 0) {
    throw std::invalid_argument(
        "generate_trace: shared_prefix_count needs shared_prefix_rows > 0");
  }
  util::Xoshiro256 rng(config.seed);

  // Bounded Pareto via inverse-CDF: the classic heavy-tailed length
  // model (most requests short, a fat tail of long ones).
  const auto pareto = [&](uint32_t lo, uint32_t hi) -> uint32_t {
    if (hi <= lo) return lo;
    const double a = config.heavy_tail_alpha;
    const double l = lo;
    const double h = hi;
    const double u = rng.next_double();
    const double x =
        l / std::pow(1.0 - u * (1.0 - std::pow(l / h, a)), 1.0 / a);
    return std::clamp(static_cast<uint32_t>(x), lo, hi);
  };

  std::vector<TraceItem> items(config.requests);
  double t = 0.0;
  bool burst = false;
  for (TraceItem& item : items) {
    // Markov-modulated Poisson arrivals: exponential interarrivals whose
    // rate jumps by burst_factor while the burst state is on.
    if (rng.next_double() < config.burst_prob) burst = !burst;
    const double mean =
        config.mean_interarrival_rounds / (burst ? config.burst_factor : 1.0);
    t += -mean * std::log(1.0 - rng.next_double());
    item.arrival_round = static_cast<uint32_t>(t);
    item.prompt_rows = pareto(config.min_prompt, config.max_prompt);
    if (config.shared_prefix_count > 0) {
      // Storm mode: a uniformly drawn shared system prompt plus the
      // bounded-Pareto draw as the UNIQUE tail, so every prompt strictly
      // extends its shared prefix (adoption always leaves tail rows).
      item.shared_prefix_id =
          static_cast<uint32_t>(rng.next() % config.shared_prefix_count);
      item.prompt_rows += config.shared_prefix_rows;
    }
    item.max_new = pareto(config.min_new, config.max_new);
    const double pu = rng.next_double();
    item.priority =
        pu < config.interactive_fraction ? TrafficPriority::kInteractive
        : pu < config.interactive_fraction + config.batch_fraction
            ? TrafficPriority::kBatch
            : TrafficPriority::kStandard;
    if (rng.next_double() < config.deadline_fraction) {
      item.deadline_rounds =
          static_cast<uint32_t>(config.deadline_slack *
                                (item.prompt_rows + item.max_new)) +
          1;
      item.cancel_on_deadline =
          rng.next_double() < config.cancel_on_deadline_fraction;
    }
    const double mu = rng.next_double();
    item.beam = mu < config.beam_fraction;
    item.sampled =
        !item.beam && mu < config.beam_fraction + config.sampled_fraction;
    item.policy_seed = rng.next();
  }
  return items;
}

}  // namespace protea::runtime

#include "runtime/telemetry.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace protea::runtime {

const char* trace_event_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kAdmit:
      return "admit";
    case TraceEventType::kShed:
      return "shed";
    case TraceEventType::kPrefillChunk:
      return "prefill_chunk";
    case TraceEventType::kDecodeStep:
      return "decode_step";
    case TraceEventType::kPreempt:
      return "preempt";
    case TraceEventType::kSwapOut:
      return "swap_out";
    case TraceEventType::kSwapIn:
      return "swap_in";
    case TraceEventType::kRestore:
      return "restore";
    case TraceEventType::kPrefixAdopt:
      return "prefix_adopt";
    case TraceEventType::kPrefixPublish:
      return "prefix_publish";
    case TraceEventType::kPrefixEvict:
      return "prefix_evict";
    case TraceEventType::kDeadlineMiss:
      return "deadline_miss";
    case TraceEventType::kComplete:
      return "complete";
    case TraceEventType::kPoolOccupancy:
      return "pool_occupancy";
    case TraceEventType::kFailpointTrip:
      return "failpoint_trip";
  }
  return "?";
}

bool virtual_equal(const std::vector<TraceEvent>& x,
                   const std::vector<TraceEvent>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (!virtual_equal(x[i], y[i])) return false;
  }
  return true;
}

// --- TraceRecorder -----------------------------------------------------------

#ifdef PROTEA_TELEMETRY

void TraceRecorder::configure(size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("TraceRecorder: zero capacity");
  }
  const std::lock_guard lock(mutex_);
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  total_ = 0;
  round_ = 0;
  counts_.fill(0);
}

bool TraceRecorder::configured() const {
  const std::lock_guard lock(mutex_);
  return !ring_.empty();
}

void TraceRecorder::record(TraceEventType type, uint32_t seq, uint64_t a,
                           uint64_t b) {
  const uint64_t now = util::monotonic_ns();
  const std::lock_guard lock(mutex_);
  if (ring_.empty()) return;  // unconfigured recorder is inert
  TraceEvent& e = ring_[head_];
  e.type = type;
  e.seq = seq;
  e.round = round_;
  e.a = a;
  e.b = b;
  e.wall_ns = now;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (size_ < ring_.size()) ++size_;
  ++total_;
  ++counts_[static_cast<size_t>(type)];
}

void TraceRecorder::set_round(uint32_t round) {
  const std::lock_guard lock(mutex_);
  round_ = round;
}

uint32_t TraceRecorder::round() const {
  const std::lock_guard lock(mutex_);
  return round_;
}

uint64_t TraceRecorder::total() const {
  const std::lock_guard lock(mutex_);
  return total_;
}

uint64_t TraceRecorder::count(TraceEventType t) const {
  const std::lock_guard lock(mutex_);
  return counts_[static_cast<size_t>(t)];
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  const std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event sits at head_ once the ring has wrapped, at 0 before.
  const size_t start = size_ == ring_.size() ? head_ : 0;
  for (size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void TraceRecorder::clear() {
  const std::lock_guard lock(mutex_);
  head_ = 0;
  size_ = 0;
  total_ = 0;
  round_ = 0;
  counts_.fill(0);
}

#else  // !PROTEA_TELEMETRY

void TraceRecorder::configure(size_t) {
  throw std::logic_error("TraceRecorder: built without PROTEA_TELEMETRY");
}
bool TraceRecorder::configured() const { return false; }
void TraceRecorder::record(TraceEventType, uint32_t, uint64_t, uint64_t) {}
void TraceRecorder::set_round(uint32_t) {}
uint32_t TraceRecorder::round() const { return 0; }
uint64_t TraceRecorder::total() const { return 0; }
uint64_t TraceRecorder::count(TraceEventType) const { return 0; }
std::vector<TraceEvent> TraceRecorder::snapshot() const { return {}; }
void TraceRecorder::clear() {}

#endif  // PROTEA_TELEMETRY

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram() { buckets_.assign(num_buckets(), 0); }

size_t Histogram::num_buckets() {
  // One exact bucket per value below kLinearMax, then kSubBuckets linear
  // sub-buckets per power-of-two range [2^k, 2^{k+1}) for k in [6, 63].
  return static_cast<size_t>(kLinearMax) + (64 - 6) * kSubBuckets;
}

size_t Histogram::bucket_index(uint64_t value) {
  if (value < kLinearMax) return static_cast<size_t>(value);
  const int k = std::bit_width(value) - 1;  // floor(log2), >= 6
  const uint64_t base = uint64_t{1} << k;
  const size_t sub = static_cast<size_t>((value - base) >> (k - 3));
  return static_cast<size_t>(kLinearMax) +
         static_cast<size_t>(k - 6) * kSubBuckets + sub;
}

uint64_t Histogram::bucket_upper_bound(size_t index) {
  if (index < kLinearMax) return index;
  const size_t rel = index - static_cast<size_t>(kLinearMax);
  const int k = 6 + static_cast<int>(rel / kSubBuckets);
  const size_t sub = rel % kSubBuckets;
  const uint64_t width = uint64_t{1} << (k - 3);  // range / kSubBuckets
  const uint64_t lower = (uint64_t{1} << k) + sub * width;
  return lower + (width - 1);
}

void Histogram::observe(uint64_t value) {
  ++buckets_[bucket_index(value)];
  ++count_;
  sum_ += value;
  min_ = value < min_ ? value : min_;
  max_ = value > max_ ? value : max_;
}

uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest rank: the ceil(p/100 * N)-th smallest observation, at least
  // the 1st.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum >= rank) {
      // Exact buckets report their value; range buckets their upper
      // bound, clipped to the true max so p100 == max() always.
      return std::min(bucket_upper_bound(i), max_);
    }
  }
  return max_;
}

void Histogram::reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

// --- Telemetry bundle --------------------------------------------------------

#ifdef PROTEA_TELEMETRY

void Telemetry::configure(const TelemetryOptions& opts) {
  trace.configure(opts.trace_capacity);
  // Idempotent re-configure: instruments keep their addresses and start
  // empty again.
  for (std::unique_ptr<Histogram>* h :
       {&ttft_rounds, &queue_wait_rounds, &token_gap_rounds,
        &preempt_downtime_rounds, &pool_occupancy_blocks, &ttft_us}) {
    if (*h == nullptr) {
      *h = std::make_unique<Histogram>();
    } else {
      (*h)->reset();
    }
  }
  configured_ = true;
}

bool Telemetry::enabled() const { return configured_; }

#else  // !PROTEA_TELEMETRY

void Telemetry::configure(const TelemetryOptions&) {
  throw std::logic_error("Telemetry: built without PROTEA_TELEMETRY");
}

bool Telemetry::enabled() const { return false; }

#endif  // PROTEA_TELEMETRY

// --- exporters ---------------------------------------------------------------

namespace {

/// Human-readable names for the a/b payload fields, per event type (see
/// the taxonomy in telemetry.hpp).
struct PayloadNames {
  const char* a;
  const char* b;
};

PayloadNames payload_names(TraceEventType t) {
  switch (t) {
    case TraceEventType::kAdmit:
      return {"queue_wait_rounds", "prompt_rows"};
    case TraceEventType::kShed:
      return {"outcome", "unused"};
    case TraceEventType::kPrefillChunk:
      return {"target_rows", "unused"};
    case TraceEventType::kDecodeStep:
      return {"step", "unused"};
    case TraceEventType::kPreempt:
      return {"swap", "cached_rows"};
    case TraceEventType::kSwapOut:
      return {"bytes", "rows"};
    case TraceEventType::kSwapIn:
      return {"bytes", "rows"};
    case TraceEventType::kRestore:
      return {"downtime_rounds", "path"};
    case TraceEventType::kPrefixAdopt:
      return {"rows", "blocks"};
    case TraceEventType::kPrefixPublish:
      return {"rows", "new_blocks"};
    case TraceEventType::kPrefixEvict:
      return {"blocks", "unused"};
    case TraceEventType::kDeadlineMiss:
      return {"deadline_round", "unused"};
    case TraceEventType::kComplete:
      return {"outcome", "latency_rounds"};
    case TraceEventType::kPoolOccupancy:
      return {"used_blocks", "free_blocks"};
    case TraceEventType::kFailpointTrip:
      return {"trips", "unused"};
  }
  return {"a", "b"};
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                              sizeof(buf) - 1));
}

void append_args(std::string& out, const TraceEvent& e) {
  const PayloadNames names = payload_names(e.type);
  append_fmt(out, "\"args\":{\"round\":%u", e.round);
  append_fmt(out, ",\"%s\":%" PRIu64, names.a, e.a);
  append_fmt(out, ",\"%s\":%" PRIu64, names.b, e.b);
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 160 + 256);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Track naming: tid 0 is the scheduler/pool track; every sequence gets
  // its own track (tid = seq + 1 keeps tid 0 free).
  sep();
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"protea\"}}";
  sep();
  out +=
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"scheduler/pool\"}}";
  std::vector<uint32_t> named_seqs;
  std::vector<uint32_t> open_spans;  // seqs with an un-ended admit span
  for (const TraceEvent& e : events) {
    if (e.seq == kNoTraceSeq) continue;
    if (std::find(named_seqs.begin(), named_seqs.end(), e.seq) ==
        named_seqs.end()) {
      named_seqs.push_back(e.seq);
      sep();
      append_fmt(out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"seq %u\"}}",
                 e.seq + 1, e.seq);
    }
  }

  for (const TraceEvent& e : events) {
    const double ts_us = static_cast<double>(e.wall_ns) / 1000.0;
    const uint32_t tid = e.seq == kNoTraceSeq ? 0 : e.seq + 1;
    if (e.type == TraceEventType::kPoolOccupancy) {
      sep();
      append_fmt(out,
                 "{\"name\":\"kv_pool_blocks\",\"ph\":\"C\",\"pid\":1,"
                 "\"tid\":0,\"ts\":%.3f,\"args\":{\"used\":%" PRIu64
                 ",\"free\":%" PRIu64 "}}",
                 ts_us, e.a, e.b);
      continue;
    }
    if (e.type == TraceEventType::kAdmit && e.seq != kNoTraceSeq) {
      open_spans.push_back(e.seq);
      sep();
      append_fmt(out,
                 "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"b\","
                 "\"id\":%u,\"pid\":1,\"tid\":%u,\"ts\":%.3f,",
                 e.seq, tid, ts_us);
      append_args(out, e);
      out += "}";
      continue;
    }
    const bool terminal = e.type == TraceEventType::kComplete ||
                          e.type == TraceEventType::kShed;
    if (terminal && e.seq != kNoTraceSeq) {
      const auto it =
          std::find(open_spans.begin(), open_spans.end(), e.seq);
      if (it != open_spans.end()) {
        open_spans.erase(it);
        sep();
        append_fmt(out,
                   "{\"name\":\"request\",\"cat\":\"request\",\"ph\":\"e\","
                   "\"id\":%u,\"pid\":1,\"tid\":%u,\"ts\":%.3f,",
                   e.seq, tid, ts_us);
        append_args(out, e);
        out += "}";
        continue;
      }
    }
    sep();
    append_fmt(out,
               "{\"name\":\"%s\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\","
               "\"pid\":1,\"tid\":%u,\"ts\":%.3f,",
               trace_event_name(e.type), tid, ts_us);
    append_args(out, e);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events) {
  const std::string json = chrome_trace_json(events);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("write_chrome_trace: cannot open " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    throw std::runtime_error("write_chrome_trace: short write to " + path);
  }
}

}  // namespace protea::runtime

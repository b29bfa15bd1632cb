// Traced run (--trace 1): the per-layer metrics of one workload.
//
// Never part of the compared runs. Three steps, all from the benchmark's
// own files through public calls:
//   1. serve the request set stepped (threads=1), untraced and then with
//      the engine's Telemetry sink set on TrafficOptions: per-round cost,
//      TTFT/queue/occupancy histograms, telemetry overhead, and the
//      engine's Chrome trace;
//   2. replay the served requests one at a time through the public
//      GenerationSession calls the engine makes (or InferenceSession for
//      the encoder), one span per call plus one child span per module
//      bracket from a benchmark-owned StageGate; a call's self time is
//      its duration minus its children;
//   3. time the public engine entry points at the workload's shapes.
// Spans stay in memory and are written as Chrome trace JSON at exit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/engines.hpp"
#include "accel/perf_model.hpp"
#include "accel/softmax_unit.hpp"
#include "bench_util.hpp"
#include "modes.hpp"
#include "numeric/fp8.hpp"
#include "runtime/generation.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/kv_cache.hpp"
#include "runtime/prefix_cache.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace pa = protea::accel;
using protea::util::monotonic_ns;

// --- the 79 per-layer metrics, in print order ----------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"traffic.rounds", "rounds"},
    {"traffic.units_per_round", "units"},
    {"traffic.queue_rounds_p90", "rounds"},
    {"traffic.ttft_rounds_p50", "rounds"},
    {"traffic.ttft_rounds_p95", "rounds"},
    {"traffic.preemptions", "count"},
    {"traffic.replayed_rows", "rows"},
    {"traffic.shed", "count"},
    {"traffic.round_us", "us"},
    {"traffic.coordinator_us_per_round", "us"},
    {"generation.decode_step_us_p50", "us"},
    {"generation.decode_step_us_p90", "us"},
    {"generation.prefill_row_us", "us"},
    {"generation.cross_fill_us", "us"},
    {"generation.adopt_us", "us"},
    {"generation.self_share", "share"},
    {"layer_ops.decode.self_attn_us", "us"},
    {"layer_ops.decode.self_proj_us", "us"},
    {"layer_ops.decode.cross_attn_us", "us"},
    {"layer_ops.decode.cross_proj_ffn_us", "us"},
    {"layer_ops.prefill.self_attn_us", "us"},
    {"layer_ops.prefill.self_proj_us", "us"},
    {"layer_ops.prefill.cross_attn_us", "us"},
    {"layer_ops.prefill.cross_proj_ffn_us", "us"},
    {"layer_ops.encoder.mha_ms", "ms"},
    {"layer_ops.encoder.ffn_ms", "ms"},
    {"layer_ops.decode.self_attn_cycles", "cycles"},
    {"layer_ops.decode.self_proj_cycles", "cycles"},
    {"layer_ops.decode.cross_attn_cycles", "cycles"},
    {"layer_ops.decode.cross_proj_ffn_cycles", "cycles"},
    {"layer_ops.prefill.self_attn_cycles", "cycles"},
    {"layer_ops.prefill.self_proj_cycles", "cycles"},
    {"layer_ops.prefill.cross_attn_cycles", "cycles"},
    {"layer_ops.prefill.cross_proj_ffn_cycles", "cycles"},
    {"layer_ops.encoder.mha_cycles", "cycles"},
    {"layer_ops.encoder.ffn_cycles", "cycles"},
    {"accel.macs_per_token", "MAC/tok"},
    {"accel.host_gmacs_per_s", "GMAC/s"},
    {"accel.span_runs_per_step", "runs"},
    {"accel.gathered_bytes_per_step", "B"},
    {"accel.decode.qkv_us", "us"},
    {"accel.decode.qk_softmax_us", "us"},
    {"accel.decode.sv_us", "us"},
    {"accel.decode.ffn_expand_us", "us"},
    {"accel.decode.ffn_contract_us", "us"},
    {"accel.encoder.qkv_us", "us"},
    {"accel.encoder.qk_us", "us"},
    {"accel.encoder.softmax_us", "us"},
    {"accel.encoder.sv_us", "us"},
    {"accel.encoder.ffn1_us", "us"},
    {"accel.encoder.ffn2_us", "us"},
    {"accel.encoder.ffn3_us", "us"},
    {"accel.decode.qkv_cycles", "cycles"},
    {"accel.decode.qk_softmax_cycles", "cycles"},
    {"accel.decode.sv_cycles", "cycles"},
    {"accel.decode.ffn_expand_cycles", "cycles"},
    {"accel.decode.ffn_contract_cycles", "cycles"},
    {"accel.encoder.qkv_cycles", "cycles"},
    {"accel.encoder.qk_cycles", "cycles"},
    {"accel.encoder.softmax_cycles", "cycles"},
    {"accel.encoder.sv_cycles", "cycles"},
    {"accel.encoder.ffn1_cycles", "cycles"},
    {"accel.encoder.ffn2_cycles", "cycles"},
    {"accel.encoder.ffn3_cycles", "cycles"},
    {"accel.sim_error_pct", "%"},
    {"kv_cache.blocks_peak", "blocks"},
    {"kv_cache.occupancy_p50", "blocks"},
    {"kv_cache.swap_bytes", "B"},
    {"kv_cache.swap_out_us", "us"},
    {"kv_cache.swap_in_us", "us"},
    {"prefix_cache.hit_rate", "share"},
    {"prefix_cache.rows_adopted_share", "share"},
    {"prefix_cache.cross_hit_rate", "share"},
    {"prefix_cache.bytes_saved", "B"},
    {"prefix_cache.evictions", "count"},
    {"batch_scheduler.host_speedup", "x"},
    {"batch_scheduler.model_speedup", "x"},
    {"inference_session.forward_ms", "ms"},
    {"telemetry.overhead_share", "share"},
};

/// Measured per-layer values plus, for the ones left out, the reason.
struct Readings {
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;
  std::vector<std::pair<std::string, std::string>> skipped;  // prefix, why

  void set(const std::string& name, double v, const std::string& note = "") {
    values[name] = v;
    if (!note.empty()) notes[name] = note;
  }
  void skip(const std::string& prefix, const std::string& why) {
    skipped.emplace_back(prefix, why);
  }
  void print(MetricSink& sink) const {
    for (const LayerMetric& m : kLayerMetrics) {
      const auto it = values.find(m.name);
      if (it != values.end()) {
        const auto note = notes.find(m.name);
        sink.add(m.name, it->second, m.unit,
                 note == notes.end() ? "" : note->second);
        continue;
      }
      std::string why = "not measured on this workload";
      for (const auto& [prefix, reason] : skipped) {
        if (std::string(m.name).rfind(prefix, 0) == 0) {
          why = reason;
          break;
        }
      }
      sink.not_applicable(m.name, m.unit, why);
    }
  }
};

// --- spans -----------------------------------------------------------------------

struct Span {
  const char* name = "";
  uint64_t start = 0, end = 0;
  uint32_t request = 0;
  int64_t parent = -1;  // index of the enclosing call span, -1 at top level
  double us() const { return static_cast<double>(end - start) * 1e-3; }
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  size_t open(const char* name, uint32_t request, int64_t parent) {
    spans_.push_back({name, monotonic_ns(), 0, request, parent});
    return spans_.size() - 1;
  }
  void close(size_t i) { spans_[i].end = monotonic_ns(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one complete ("X") event per span on the
  /// owning request's track; children carry their parent's index.
  void write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"span\": %zu, \"parent\": %lld}}\n",
                   i == 0 ? "" : ",", s.name, s.request,
                   static_cast<double>(s.start - t0) * 1e-3, s.us(), i,
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
};

/// Module brackets of one traced call as child spans. Per decoder layer
/// the engine brackets MHA, FFN, MHA, FFN: self-attention, self
/// projection + LN, cross-attention, cross projection + LN + FFN.
class SpanGate final : public pr::StageGate {
 public:
  enum class Labels { kCrossFill, kDecoderLayer, kEncoder };

  explicit SpanGate(SpanLog& log) : log_(log) {}

  void bind(size_t call, uint32_t request, Labels labels) {
    call_ = call;
    request_ = request;
    labels_ = labels;
    count_ = 0;
  }
  void enter(pr::Stage stage) override {
    // Row passes and encoder layers alternate MHA, FFN brackets.
    if (labels_ != Labels::kCrossFill &&
        (stage == pr::Stage::kMha) != (count_ % 2 == 0)) {
      ++order_errors_;
    }
    open_ = log_.open(label(stage), request_, static_cast<int64_t>(call_));
  }
  void exit(pr::Stage) override {
    log_.close(open_);
    ++count_;
  }
  uint64_t order_errors() const { return order_errors_; }

 private:
  const char* label(pr::Stage stage) const {
    static constexpr const char* kDecoder[4] = {"self_attn", "self_proj",
                                                "cross_attn", "cross_proj_ffn"};
    switch (labels_) {
      case Labels::kCrossFill: return "cross_fill";
      case Labels::kEncoder: return stage == pr::Stage::kMha ? "mha" : "ffn";
      case Labels::kDecoderLayer: return kDecoder[count_ % 4];
    }
    return "";
  }

  SpanLog& log_;
  size_t call_ = 0, open_ = 0, count_ = 0;
  uint32_t request_ = 0;
  Labels labels_ = Labels::kDecoderLayer;
  uint64_t order_errors_ = 0;
};

/// Runs `fn(gate)` as one traced call; returns the call's span index.
template <typename Fn>
size_t traced_call(SpanLog& log, SpanGate& gate, const char* name,
                   uint32_t request, SpanGate::Labels labels, Fn&& fn) {
  const size_t call = log.open(name, request, -1);
  gate.bind(call, request, labels);
  fn(&gate);
  log.close(call);
  return call;
}

/// Per-call accounting: duration, children by label, self time; plus the
/// check that children lie inside their call and do not overlap, so that
/// children + self == duration holds for every call.
struct CallTable {
  struct Call {
    const char* name;
    double us = 0.0, self_us = 0.0;
    std::map<std::string, double> child_us;
  };
  std::vector<Call> calls;
  std::vector<int64_t> index;  // span index -> call index
  uint64_t violations = 0;

  explicit CallTable(const std::vector<Span>& spans) {
    index.assign(spans.size(), -1);
    std::vector<uint64_t> last_end;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0) {
        index[i] = static_cast<int64_t>(calls.size());
        calls.push_back({s.name, s.us(), s.us(), {}});
        last_end.push_back(s.start);
        continue;
      }
      const int64_t c = index[static_cast<size_t>(s.parent)];
      const Span& p = spans[static_cast<size_t>(s.parent)];
      if (c < 0 || s.start < p.start || s.end > p.end ||
          s.start < last_end[static_cast<size_t>(c)]) {
        ++violations;
      }
      if (c < 0) continue;
      Call& call = calls[static_cast<size_t>(c)];
      call.child_us[s.name] += s.us();
      call.self_us -= s.us();
      last_end[static_cast<size_t>(c)] = s.end;
    }
    for (const Call& call : calls) {
      if (call.self_us < 0.0) ++violations;
    }
  }

  double total(const char* name, double Call::* field) const {
    double t = 0.0;
    for (const Call& c : calls) {
      if (std::strcmp(c.name, name) == 0) t += c.*field;
    }
    return t;
  }
  double child_total(const char* name, const std::string& child) const {
    double t = 0.0;
    for (const Call& c : calls) {
      if (std::strcmp(c.name, name) != 0) continue;
      const auto it = c.child_us.find(child);
      if (it != c.child_us.end()) t += it->second;
    }
    return t;
  }
  std::vector<double> durations(const char* name) const {
    std::vector<double> v;
    for (const Call& c : calls) {
      if (std::strcmp(c.name, name) == 0) v.push_back(c.us);
    }
    return v;
  }
};

/// Median microseconds of `fn()` over `reps` calls after one warm call.
template <typename Fn>
double time_us(size_t reps, Fn&& fn) {
  fn();
  std::vector<double> t;
  for (size_t r = 0; r < reps; ++r) {
    const uint64_t start = monotonic_ns();
    fn();
    t.push_back(static_cast<double>(monotonic_ns() - start) * 1e-3);
  }
  return median(t);
}

pt::MatrixI8 random_i8(size_t rows, size_t cols, uint64_t seed) {
  pt::MatrixI8 m(rows, cols);
  protea::util::Xoshiro256 rng(seed);
  for (int8_t& x : m.flat()) x = static_cast<int8_t>(rng.bounded(255) - 127);
  return m;
}

std::string trace_path(const Args& args, const char* what) {
  std::filesystem::create_directories(kTraceDir);
  return std::string(kTraceDir) + "/" + args.workload + "_" + what + ".json";
}

// --- cycle-model twins ---------------------------------------------------------

/// Decoder stage cycles grouped like the module brackets (one layer).
struct DecoderStageCycles {
  double self_attn = 0, self_proj = 0, cross_attn = 0, cross_proj_ffn = 0;

  DecoderStageCycles& operator+=(const DecoderStageCycles& o) {
    self_attn += o.self_attn;
    self_proj += o.self_proj;
    cross_attn += o.cross_attn;
    cross_proj_ffn += o.cross_proj_ffn;
    return *this;
  }
};

DecoderStageCycles group_decoder_stages(const pa::PerfReport& r) {
  DecoderStageCycles g;
  for (const pa::StageTiming& s : r.stages) {
    const double c = static_cast<double>(s.total);
    const std::string& n = s.name;
    if (n == "self_qkv" || n == "self_qk" || n == "self_softmax" ||
        n == "self_sv" || n == "self_gather" || n == "kv_dequant") {
      g.self_attn += c;
    } else if (n == "self_proj") {
      g.self_proj += c;
    } else if (n == "cross_q" || n == "cross_qk" || n == "cross_softmax" ||
               n == "cross_sv") {
      g.cross_attn += c;
    } else if (n == "cross_proj" || n == "ffn_expand" ||
               n == "ffn_contract") {
      g.cross_proj_ffn += c;
    } else if (n == "layernorm") {
      // Three LayerNorms per layer: one after the self projection, two
      // in the cross projection + FFN bracket.
      g.self_proj += c / 3.0;
      g.cross_proj_ffn += 2.0 * c / 3.0;
    }
    // cross_kv is the one-time memory projection (prefill_begin's
    // cross_fill bracket), not part of the row brackets.
  }
  return g;
}

double stage_cycles(const pa::PerfReport& r, const char* name) {
  for (const pa::StageTiming& s : r.stages) {
    if (s.name == name) return static_cast<double>(s.total);
  }
  return 0.0;
}

// --- decode-shape engine split ---------------------------------------------------

void decode_engine_split(const DecoderModel& m, size_t kv_rows,
                         protea::numeric::KvStorage storage, uint64_t seed,
                         Readings& r) {
  const auto& layer = m.qd.layers[0];
  const auto& synth = m.acfg.synth;
  const size_t d = m.cfg.d_model, dk = m.cfg.head_dim(),
               f = m.cfg.ffn_hidden(), heads = m.cfg.num_heads;
  pr::WorkspaceArena ws;
  const pt::MatrixI8 x = random_i8(1, d, seed);
  const pt::MatrixI8 kc = random_i8(kv_rows, dk, seed + 1);
  const pt::MatrixI8 vc = random_i8(kv_rows, dk, seed + 2);
  pt::MatrixI8 q(1, dk), k(1, dk), v(1, dk), w(1, kv_rows), sc(1, dk),
      hidden(1, f), out(1, d);
  const pt::RowSpanI8 krun{kc.data(), kv_rows}, vrun{vc.data(), kv_rows};
  const pt::RowSpanListI8 kspans{{&krun, 1}, kv_rows, dk, dk, nullptr};
  const pt::RowSpanListI8 vspans{{&vrun, 1}, kv_rows, dk, dk, nullptr};
  const pa::SoftmaxUnit softmax(layer.scales.logit);
  const size_t reps = 200;

  r.set("accel.decode.qkv_us", time_us(reps, [&] {
            for (size_t h = 0; h < heads; ++h) {
              pa::run_qkv_engine(pt::ConstMatrixViewI8(x), layer.self_heads[h],
                                 synth.ts_mha, layer.rq_q, layer.rq_k,
                                 layer.rq_v, pt::MatrixViewI8(q),
                                 pt::MatrixViewI8(k), pt::MatrixViewI8(v), ws);
            }
          }));
  r.set("accel.decode.qk_softmax_us", time_us(reps, [&] {
            for (size_t h = 0; h < heads; ++h) {
              pa::run_qk_softmax_engine(pt::ConstMatrixViewI8(q), kspans,
                                        layer.rq_logit, softmax, kv_rows - 1,
                                        pt::MatrixViewI8(w), ws);
            }
          }));
  r.set("accel.decode.sv_us", time_us(reps, [&] {
            for (size_t h = 0; h < heads; ++h) {
              pa::run_sv_engine(pt::ConstMatrixViewI8(w), vspans, layer.rq_sv,
                                pt::MatrixViewI8(sc), ws);
            }
          }));
  r.set("accel.decode.ffn_expand_us", time_us(reps, [&] {
            pa::run_ffn_engine(pt::ConstMatrixViewI8(x), layer.w1, layer.b1,
                               synth.ts_ffn, layer.rq_hidden,
                               pa::FfnActivation::kRelu, layer.scales.hidden,
                               pt::MatrixViewI8(hidden), ws);
          }));
  r.set("accel.decode.ffn_contract_us", time_us(reps, [&] {
            pa::run_ffn_engine(pt::ConstMatrixViewI8(hidden), layer.w2,
                               layer.b2, synth.ts_ffn, layer.rq_ffn_out,
                               pa::FfnActivation::kNone, 0.0,
                               pt::MatrixViewI8(out), ws);
          }));

  const pa::PerfReport step = pa::estimate_decode_step_performance(
      m.acfg, m.cfg, static_cast<uint32_t>(kv_rows - 1), 32, false, storage);
  r.set("accel.decode.qkv_cycles", stage_cycles(step, "self_qkv"));
  r.set("accel.decode.qk_softmax_cycles",
          stage_cycles(step, "self_qk") + stage_cycles(step, "self_softmax"));
  r.set("accel.decode.sv_cycles", stage_cycles(step, "self_sv"));
  r.set("accel.decode.ffn_expand_cycles", stage_cycles(step, "ffn_expand"));
  r.set("accel.decode.ffn_contract_cycles",
          stage_cycles(step, "ffn_contract"));
}

// --- serving workloads -------------------------------------------------------------

/// Step 1's results that later steps use.
struct StepOne {
  ServingPass plain;
  double round_us = 0.0;
  double units_per_round = 0.0;
  std::vector<double> victim_rows;  // cached rows of each preempted seat
  bool same_schedule = false;       // threads=1 == threads=2
};

/// Serves the request set stepped, untraced and traced alternately (the
/// fastest of each gives the round cost and the overhead), then once
/// threaded to confirm both modes run the same virtual schedule.
StepOne serve_stepped(ServingWorkload& w, const Args& args, Readings& R,
                      uint64_t& failed) {
  StepOne one;
  std::vector<double> plain_s, traced_s;
  std::unique_ptr<pr::Telemetry> tel;
  for (int k = 0; k < 2; ++k) {
    one.plain = w.run_pass(1);
    plain_s.push_back(one.plain.wall_s);
    tel = std::make_unique<pr::Telemetry>();
    tel->configure();
    const ServingPass traced = w.run_pass(1, tel.get());
    traced_s.push_back(traced.wall_s);
    if (traced.digest != one.plain.digest ||
        traced.stats_key != one.plain.stats_key) {
      std::printf("MISMATCH: the traced serve differs from the untraced one\n");
      ++failed;
    }
  }
  const ServingPass threaded = w.run_pass(2);
  one.same_schedule = threaded.digest == one.plain.digest &&
                      threaded.stats_key == one.plain.stats_key;
  if (!one.same_schedule) {
    std::printf("MISMATCH: threads=1 and threads=2 serves differ\n");
    ++failed;
  }
  const auto events = tel->trace.snapshot();
  pr::write_chrome_trace(trace_path(args, "engine_trace"), events);
  for (const pr::TraceEvent& e : events) {
    if (e.type == pr::TraceEventType::kPreempt) {
      one.victim_rows.push_back(static_cast<double>(e.b));
    }
  }

  const pr::SchedulerStats& st = one.plain.stats;
  const double rounds = static_cast<double>(st.rounds);
  const double plain_min = *std::min_element(plain_s.begin(), plain_s.end());
  one.round_us = plain_min * 1e6 / rounds;
  one.units_per_round =
      static_cast<double>(st.decode_steps + st.prefill_chunks) / rounds;
  R.set("traffic.rounds", rounds);
  R.set("traffic.units_per_round", one.units_per_round);
  R.set("traffic.queue_rounds_p90",
        static_cast<double>(tel->queue_wait_rounds->percentile(90.0)));
  R.set("traffic.ttft_rounds_p50",
        static_cast<double>(tel->ttft_rounds->percentile(50.0)));
  R.set("traffic.ttft_rounds_p95",
        static_cast<double>(tel->ttft_rounds->percentile(95.0)));
  R.set("traffic.preemptions",
        static_cast<double>(st.total(&pr::TrafficClassStats::preemptions)));
  R.set("traffic.replayed_rows", static_cast<double>(st.replayed_rows));
  R.set("traffic.shed",
        static_cast<double>(st.total(&pr::TrafficClassStats::shed_overload) +
                            st.total(&pr::TrafficClassStats::shed_deadline) +
                            st.total(&pr::TrafficClassStats::shed_capacity)));
  R.set("traffic.round_us", one.round_us, "stepped, fastest of 2");
  R.set("telemetry.overhead_share",
        *std::min_element(traced_s.begin(), traced_s.end()) / plain_min - 1.0,
        "stepped, traced vs untraced");
  R.set("kv_cache.blocks_peak", static_cast<double>(st.kv_blocks_peak));
  R.set("kv_cache.occupancy_p50",
        static_cast<double>(tel->pool_occupancy_blocks->percentile(50.0)));
  R.set("kv_cache.swap_bytes", static_cast<double>(st.swap_bytes));

  const ServingSpec& spec = w.spec();
  if (spec.opts.prefix_cache) {
    const auto share = [](uint64_t a, uint64_t b) {
      return a + b == 0 ? 0.0
                        : static_cast<double>(a) / static_cast<double>(a + b);
    };
    R.set("prefix_cache.hit_rate", share(st.prefix_hits, st.prefix_misses));
    R.set("prefix_cache.rows_adopted_share",
          static_cast<double>(st.prefix_rows_adopted) /
              static_cast<double>(spec.prompt_rows()));
    R.set("prefix_cache.cross_hit_rate",
          share(st.cross_kv_hits, st.cross_kv_misses));
    R.set("prefix_cache.bytes_saved", static_cast<double>(st.prefix_bytes_saved));
    R.set("prefix_cache.evictions", static_cast<double>(st.prefix_evictions));
  } else {
    R.skip("prefix_cache.", "the prefix cache is off on this workload");
  }
  return one;
}

/// Counters step 2 gathers beside its spans.
struct ReplayTotals {
  uint64_t requests = 0, steps = 0, rows_prefilled = 0, gather_steps = 0;
  uint64_t gathered = 0, span_runs = 0, macs = 0, mismatches = 0;
  std::vector<double> positions;  // cached rows before each decode step
  DecoderStageCycles decode_cyc, prefill_cyc;
};

/// The GenerationSession calls the engine makes, one request at a time,
/// on a pool, prefix cache and options configured as the engine
/// configures them; every finished request's states must match the
/// engine's bit for bit.
class Replayer {
 public:
  Replayer(const ServingWorkload& w, SpanLog& log)
      : w_(w), spec_(w.spec()), m_(w.model()), log_(log), gate_(log) {
    pool_.configure(spec_.opts.kv_pool_blocks, spec_.opts.kv_block_rows,
                    m_.cfg.num_layers * m_.cfg.num_heads * 2 *
                        protea::numeric::kv_storage_bytes(
                            m_.cfg.head_dim(), spec_.opts.kv_storage));
    if (spec_.opts.prefix_cache) {
      cache_.configure(pool_, spec_.opts.kv_block_rows, m_.cfg.d_model,
                       pr::PrefixCache::Options{.storage = spec_.opts.kv_storage});
      pool_.set_reclaim_hook(
          [this](size_t want) { return cache_.reclaim(want); });
    }
    pr::GenerationOptions opts;
    opts.kv_block_rows = spec_.opts.kv_block_rows;
    opts.kv_pool = &pool_;
    opts.prefill_chunk = spec_.opts.prefill_chunk;
    opts.kv_storage = spec_.opts.kv_storage;
    session_ = std::make_unique<pr::GenerationSession>(m_.acfg, m_.qd, &es_,
                                                       opts);
  }
  ~Replayer() {
    session_.reset();
    pool_.set_reclaim_hook(nullptr);
    cache_.clear();
  }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void request(size_t i, const pr::TrafficResult& res, ReplayTotals& t);
  /// Median swap-out and swap-in microseconds of a `rows`-row sequence.
  std::pair<double, double> swap(size_t rows, uint64_t seed, ReplayTotals& t);
  uint64_t order_errors() const { return gate_.order_errors(); }

 private:
  const ServingWorkload& w_;
  const ServingSpec& spec_;
  const DecoderModel& m_;
  SpanLog& log_;
  SpanGate gate_;
  pr::KvBlockPool pool_;
  pr::PrefixCache cache_;
  pa::EngineStats es_;
  std::unique_ptr<pr::GenerationSession> session_;
  std::map<uint32_t, DecoderStageCycles> step_cycles_;  // by position
  pt::MatrixF prompt_states_, chunk_states_, state_;
};

void Replayer::request(size_t i, const pr::TrafficResult& res,
                       ReplayTotals& t) {
  using L = SpanGate::Labels;
  pr::GenerationSession& session = *session_;
  const auto id = static_cast<uint32_t>(i);
  const pr::TrafficRequest& req = w_.requests()[i];
  const pt::MatrixF& prefix = req.gen.prefix;
  const pt::MatrixF& memory = *req.gen.memory;
  const size_t rows = prefix.rows(), d = m_.cfg.d_model;
  const auto stream = w_.make_stream(i);
  const auto select = stream->callback();
  pt::MatrixF states(rows + res.steps, d), next(1, d);
  prompt_states_ = pt::MatrixF(rows, d);
  const uint64_t macs_before = es_.macs;
  ++t.requests;

  size_t pos = 0;
  bool cross_hit = false;
  if (spec_.opts.prefix_cache) {
    traced_call(log_, gate_, "prefill_begin_cached", id, L::kCrossFill,
                [&](SpanGate* g) {
                  pos = session.prefill_begin_cached(cache_, prefix, memory,
                                                     prompt_states_, g,
                                                     &cross_hit);
                });
  } else {
    traced_call(log_, gate_, "prefill_begin", id, L::kCrossFill,
                [&](SpanGate* g) { session.prefill_begin(memory, g); });
  }
  pa::GenerationCosting costing;
  costing.prefill_chunk = static_cast<uint32_t>(spec_.opts.prefill_chunk);
  costing.adopted_rows = static_cast<uint32_t>(pos);
  costing.cross_cached = cross_hit;
  costing.kv_storage = spec_.opts.kv_storage;
  t.prefill_cyc += group_decoder_stages(pa::estimate_prefill_performance(
      m_.acfg, m_.cfg, static_cast<uint32_t>(rows), spec_.memory_rows,
      costing));
  const size_t chunk = spec_.opts.prefill_chunk;
  while (pos < rows) {
    const size_t n = chunk == 0 ? rows - pos : std::min(chunk, rows - pos);
    const pt::MatrixF slice = prefix.slice_rows(pos, n);
    traced_call(log_, gate_, "prefill_rows", id, L::kDecoderLayer,
                [&](SpanGate* g) {
                  session.prefill_rows(slice, chunk_states_, g);
                });
    for (size_t r = 0; r < n; ++r) {
      std::copy(chunk_states_.row(r).begin(), chunk_states_.row(r).end(),
                prompt_states_.row(pos + r).begin());
    }
    pos += n;
    t.rows_prefilled += n;
  }
  for (size_t r = 0; r < rows; ++r) {
    std::copy(prompt_states_.row(r).begin(), prompt_states_.row(r).end(),
              states.row(r).begin());
  }
  if (spec_.opts.prefix_cache) {
    session.publish_prefix(cache_, prefix, memory, prompt_states_);
  }

  bool more = res.steps > 0 && select(states.row(rows - 1), next);
  for (uint32_t s = 0; s < res.steps && more; ++s) {
    const auto position = static_cast<uint32_t>(session.position());
    const uint64_t g0 = es_.gathered_bytes, r0 = es_.span_runs;
    traced_call(log_, gate_, "decode_step", id, L::kDecoderLayer,
                [&](SpanGate* g) { session.decode_step(next, state_, g); });
    t.gathered += es_.gathered_bytes - g0;
    t.span_runs += es_.span_runs - r0;
    t.gather_steps += es_.gathered_bytes > g0 ? 1 : 0;
    t.positions.push_back(position);
    auto it = step_cycles_.find(position);
    if (it == step_cycles_.end()) {
      it = step_cycles_
               .emplace(position, group_decoder_stages(
                                      pa::estimate_decode_step_performance(
                                          m_.acfg, m_.cfg, position,
                                          spec_.memory_rows, false,
                                          spec_.opts.kv_storage)))
               .first;
    }
    t.decode_cyc += it->second;
    std::copy(state_.row(0).begin(), state_.row(0).end(),
              states.row(rows + s).begin());
    ++t.steps;
    more = select(state_.row(0), next);
  }
  session.end_sequence();
  t.macs += es_.macs - macs_before;
  if (!(states == res.states)) {
    std::printf("MISMATCH: replay of request %zu differs from the engine\n", i);
    ++t.mismatches;
  }
}

std::pair<double, double> Replayer::swap(size_t rows, uint64_t seed,
                                         ReplayTotals& t) {
  pr::GenerationSession& session = *session_;
  protea::util::Xoshiro256 rng(seed);
  std::vector<uint32_t> tokens(rows);
  for (uint32_t& x : tokens) {
    x = static_cast<uint32_t>(rng.bounded(m_.vocab.vocab_size()));
  }
  const pt::MatrixF& memory = w_.memories().front();
  session.prefill_begin(memory);
  session.prefill_rows(m_.embed_rows(tokens), chunk_states_);
  std::vector<int8_t> buf;
  std::vector<double> out_us, in_us;
  for (int k = 0; k < 8; ++k) {
    size_t n = 0;
    bool ok = false;
    const size_t out = traced_call(log_, gate_, "swap_out", 0,
                                   SpanGate::Labels::kCrossFill,
                                   [&](SpanGate*) { n = session.swap_out(buf); });
    out_us.push_back(log_.spans()[out].us());
    session.prefill_begin(memory);  // a restore re-projects cross K/V first
    const size_t in = traced_call(
        log_, gate_, "try_swap_in", 0, SpanGate::Labels::kCrossFill,
        [&](SpanGate*) { ok = session.try_swap_in(buf, n); });
    in_us.push_back(log_.spans()[in].us());
    if (!ok || n != rows) ++t.mismatches;
  }
  session.end_sequence();
  return {median(out_us), median(in_us)};
}

int traced_serving(const Args& args) {
  ServingWorkload w(args.workload, args.seed, args.tiny);
  const DecoderModel& m = w.model();
  const ServingSpec& spec = w.spec();
  Readings R;
  uint64_t failed = 0;

  // Step 1: the engine, stepped.
  const StepOne one = serve_stepped(w, args, R, failed);

  // Step 2: the replay, then swap at overload's median victim size.
  SpanLog log;
  ReplayTotals t;
  uint64_t order_errors = 0;
  {
    Replayer replay(w, log);
    for (size_t i = 0; i < one.plain.results.size(); ++i) {
      const pr::TrafficResult& res = one.plain.results[i];
      if (finished(res.outcome)) replay.request(i, res, t);
    }
    if (!one.victim_rows.empty()) {
      const auto rows = static_cast<size_t>(median(one.victim_rows));
      const auto [out_us, in_us] =
          replay.swap(rows, derive_seed(args.seed, 99), t);
      const std::string note = std::to_string(rows) + " rows, median victim";
      R.set("kv_cache.swap_out_us", out_us, note);
      R.set("kv_cache.swap_in_us", in_us, note);
    } else {
      R.skip("kv_cache.swap_", "nothing is preempted on this workload");
    }
    order_errors = replay.order_errors();
  }
  log.write_chrome(trace_path(args, "spans"));

  const CallTable table(log.spans());
  const double n_steps = static_cast<double>(t.steps);
  const double n_rows = static_cast<double>(t.rows_prefilled);
  const char* begin = spec.opts.prefix_cache ? "prefill_begin_cached"
                                             : "prefill_begin";
  const double begin_us = table.total(begin, &CallTable::Call::us);
  const double rows_us = table.total("prefill_rows", &CallTable::Call::us);
  const double step_us = table.total("decode_step", &CallTable::Call::us);
  const double self_us = table.total(begin, &CallTable::Call::self_us) +
                         table.total("prefill_rows", &CallTable::Call::self_us) +
                         table.total("decode_step", &CallTable::Call::self_us);
  const double unit_us = begin_us + rows_us + step_us;
  const double n_units =
      n_steps + static_cast<double>(table.durations("prefill_rows").size());
  const auto decode_us = table.durations("decode_step");
  R.set("generation.decode_step_us_p50", percentile(decode_us, 50.0));
  R.set("generation.decode_step_us_p90", percentile(decode_us, 90.0));
  R.set("generation.prefill_row_us", rows_us / n_rows);
  std::vector<double> fills;
  for (const Span& s : log.spans()) {
    if (std::strcmp(s.name, "cross_fill") == 0) fills.push_back(s.us());
  }
  if (!fills.empty()) {
    double sum = 0.0;
    for (const double f : fills) sum += f;
    R.set("generation.cross_fill_us", sum / static_cast<double>(fills.size()));
  }
  if (spec.opts.prefix_cache) {
    R.set("generation.adopt_us",
          table.total(begin, &CallTable::Call::self_us) /
              static_cast<double>(table.durations(begin).size()),
          "prefill_begin_cached self time");
  } else {
    R.skip("generation.adopt_us", "the prefix cache is off on this workload");
  }
  R.set("generation.self_share", self_us / unit_us);
  R.set("traffic.coordinator_us_per_round",
        one.round_us - one.units_per_round * (unit_us / n_units),
        "derived: round_us - units_per_round x mean replayed unit, two "
        "separately timed runs, so host noise can make it negative");

  const char* brackets[4] = {"self_attn", "self_proj", "cross_attn",
                             "cross_proj_ffn"};
  const double layers = m.cfg.num_layers;
  const double dec_cyc[4] = {t.decode_cyc.self_attn, t.decode_cyc.self_proj,
                             t.decode_cyc.cross_attn,
                             t.decode_cyc.cross_proj_ffn};
  const double pre_cyc[4] = {t.prefill_cyc.self_attn, t.prefill_cyc.self_proj,
                             t.prefill_cyc.cross_attn,
                             t.prefill_cyc.cross_proj_ffn};
  for (int b = 0; b < 4; ++b) {
    const std::string k = brackets[b];
    R.set("layer_ops.decode." + k + "_us",
          table.child_total("decode_step", k) / n_steps);
    R.set("layer_ops.prefill." + k + "_us",
          table.child_total("prefill_rows", k) / n_rows, "per prompt row");
    R.set("layer_ops.decode." + k + "_cycles", dec_cyc[b] * layers / n_steps);
    R.set("layer_ops.prefill." + k + "_cycles", pre_cyc[b] * layers / n_rows,
          "per prompt row");
  }
  R.skip("layer_ops.encoder.", "no encoder on the serving workloads");
  R.set("accel.macs_per_token",
        static_cast<double>(t.macs) / (n_rows + n_steps));
  R.set("accel.host_gmacs_per_s",
        static_cast<double>(t.macs) / (unit_us * 1e-6) / 1e9);
  R.set("accel.span_runs_per_step", static_cast<double>(t.span_runs) / n_steps);
  R.set("accel.gathered_bytes_per_step",
        static_cast<double>(t.gathered) / n_steps);
  R.set("accel.sim_error_pct", 0.0,
        "the decode cost model has no published reference; unvalidated");

  // Step 3: engines at the representative decode shape.
  const auto kv_rows = static_cast<size_t>(median(t.positions)) + 1;
  decode_engine_split(m, kv_rows, spec.opts.kv_storage,
                      derive_seed(args.seed, 77), R);
  R.skip("accel.encoder.", "no encoder on the serving workloads");
  R.skip("batch_scheduler.", "the serving workloads run no BatchScheduler");
  R.skip("inference_session.", "the serving workloads run no InferenceSession");

  const Outcomes o = w.outcomes(one.plain);
  uint64_t preempted_requests = 0;
  for (const pr::TrafficResult& r : one.plain.results) {
    preempted_requests += r.preemptions > 0 ? 1 : 0;
  }
  std::printf("workload %s (traced), seed %llu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  std::printf(
      "requests: sent %llu, completed %llu, shed %llu, cancelled %llu, "
      "failed %llu; replayed %llu finished requests (%llu mismatches)\n",
      static_cast<unsigned long long>(o.sent),
      static_cast<unsigned long long>(o.completed + o.late),
      static_cast<unsigned long long>(o.shed),
      static_cast<unsigned long long>(o.cancelled),
      static_cast<unsigned long long>(o.failed),
      static_cast<unsigned long long>(t.requests),
      static_cast<unsigned long long>(t.mismatches));
  std::printf("stepped serve == threaded serve (outputs + SchedulerStats): "
              "%s\n",
              one.same_schedule ? "yes" : "NO");
  std::printf("spans: %zu calls, %zu spans, %llu containment violations, "
              "%llu bracket-order errors; children + self == duration for "
              "every call by construction\n",
              table.calls.size(), log.spans().size(),
              static_cast<unsigned long long>(table.violations),
              static_cast<unsigned long long>(order_errors));
  std::printf("properties: rows adopted share %.4f, requests preempted %.4f, "
              "decode steps with gathered bytes %.4f, unit time decode %.4f / "
              "prefill %.4f\n",
              static_cast<double>(one.plain.stats.prefix_rows_adopted) /
                  static_cast<double>(spec.prompt_rows()),
              static_cast<double>(preempted_requests) /
                  static_cast<double>(o.sent),
              static_cast<double>(t.gather_steps) / n_steps, step_us / unit_us,
              (begin_us + rows_us) / unit_us);
  std::printf("engine split at %zu cached rows (median decode position + 1), "
              "one layer, all heads\n",
              kv_rows);
  failed += t.mismatches + table.violations + order_errors;

  MetricSink sink;
  R.print(sink);
  const bool correct = failed == 0;
  sink.print_json(correct, o.sent, failed);
  return correct ? 0 : 1;
}

// --- encoder_batch -------------------------------------------------------------------

int traced_encoder(const Args& args) {
  EncoderWorkload w(args.seed, args.tiny);
  pr::BatchScheduler& sched = w.scheduler();
  const auto& cfg = w.cfg();
  const auto& acfg = sched.config();
  const auto& qm = sched.model();
  const uint32_t batch = EncoderWorkload::kBatch;
  Readings R;
  uint64_t failed = 0;

  // Serial vs batched (the paper's strict two-stage overlap), alternating.
  std::vector<double> serial_ms, batched_ms;
  std::vector<pt::MatrixF> serial;
  for (int k = 0; k < 2; ++k) {
    serial = sched.run_serial(w.inputs());
    serial_ms.push_back(sched.last_run().wall_ms);
    const auto batched =
        sched.run_batched(w.inputs(), encoder_batch_options(args.threads));
    batched_ms.push_back(sched.last_run().wall_ms);
    if (batched != serial) ++failed;
  }
  const pa::BatchReport predicted = sched.predicted(batch);
  if (sched.simulate_pipeline_cycles(batch) != predicted.pipelined_cycles) {
    ++failed;
  }
  R.set("batch_scheduler.host_speedup",
        *std::min_element(serial_ms.begin(), serial_ms.end()) /
            *std::min_element(batched_ms.begin(), batched_ms.end()),
        "serial / batched, fastest of 2 each");
  R.set("batch_scheduler.model_speedup", predicted.speedup_vs_serial);

  // Traced forwards: one span per forward_into, a child per module stage.
  pr::InferenceSession session(acfg, qm);
  pt::MatrixF out;
  session.forward_into(w.inputs()[0], out);  // sizes the arena
  SpanLog log;
  SpanGate gate(log);
  const uint64_t macs_before = session.stats().macs;
  size_t forwards = 0;
  for (int round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < batch; ++i) {
      traced_call(log, gate, "forward_into", i, SpanGate::Labels::kEncoder,
                  [&](SpanGate* g) {
                    session.forward_into(w.inputs()[i], out, g);
                  });
      ++forwards;
      if (!(out == serial[i])) ++failed;
    }
  }
  const uint64_t macs = session.stats().macs - macs_before;
  log.write_chrome(trace_path(args, "spans"));
  const CallTable table(log.spans());
  const double n = static_cast<double>(forwards);
  const double fwd_us = table.total("forward_into", &CallTable::Call::us);
  R.set("inference_session.forward_ms",
        median(table.durations("forward_into")) * 1e-3);
  R.set("layer_ops.encoder.mha_ms",
        table.child_total("forward_into", "mha") / n * 1e-3);
  R.set("layer_ops.encoder.ffn_ms",
        table.child_total("forward_into", "ffn") / n * 1e-3);

  const pa::PerfReport perf = pa::estimate_performance(acfg, cfg);
  const double layers = cfg.num_layers;
  R.set("layer_ops.encoder.mha_cycles",
        (stage_cycles(perf, "qkv") + stage_cycles(perf, "qk") +
         stage_cycles(perf, "softmax") + stage_cycles(perf, "sv")) *
            layers);
  R.set("layer_ops.encoder.ffn_cycles",
        (stage_cycles(perf, "ffn1") + stage_cycles(perf, "ffn2") +
         stage_cycles(perf, "ffn3") + stage_cycles(perf, "layernorm")) *
            layers);
  R.set("accel.macs_per_token", static_cast<double>(macs) / (n * cfg.seq_len));
  R.set("accel.host_gmacs_per_s",
        static_cast<double>(macs) / (fwd_us * 1e-6) / 1e9);
  if (w.paper_shape()) {
    R.set("accel.sim_error_pct",
          100.0 * (perf.latency_ms - kPaperTest5Ms) / kPaperTest5Ms,
          "modeled " + std::to_string(perf.latency_ms) +
              " ms vs Table I Test 5's published 93 ms");
  } else {
    R.skip("accel.sim_error_pct", "the tiny shape is not Table I Test 5");
  }

  // Engines at the encoder shape (M = SL = 64, K = d), one layer.
  const auto& layer = qm.layers[0];
  const auto& synth = acfg.synth;
  const size_t sl = cfg.seq_len, d = cfg.d_model, dk = cfg.head_dim(),
               f = cfg.ffn_hidden(), heads = cfg.num_heads;
  pr::WorkspaceArena ws;
  const pt::MatrixI8 x = random_i8(sl, d, derive_seed(args.seed, 78));
  pt::MatrixI8 q(sl, dk), k(sl, dk), v(sl, dk), logits(sl, sl),
      weights(sl, sl), scores(sl, dk), o(sl, d), hidden(sl, f);
  const pa::SoftmaxUnit softmax(layer.scales.logit);
  const size_t reps = args.tiny ? 5 : 9;
  R.set("accel.encoder.qkv_us", time_us(reps, [&] {
          for (size_t h = 0; h < heads; ++h) {
            pa::run_qkv_engine(pt::ConstMatrixViewI8(x), layer.heads[h],
                               synth.ts_mha, layer.rq_q, layer.rq_k, layer.rq_v,
                               pt::MatrixViewI8(q), pt::MatrixViewI8(k),
                               pt::MatrixViewI8(v), ws);
          }
        }));
  R.set("accel.encoder.qk_us", time_us(reps, [&] {
          for (size_t h = 0; h < heads; ++h) {
            pa::run_qk_engine(pt::ConstMatrixViewI8(q), pt::ConstMatrixViewI8(k),
                              layer.rq_logit, pt::MatrixViewI8(logits), ws);
          }
        }));
  R.set("accel.encoder.softmax_us", time_us(reps, [&] {
          for (size_t h = 0; h < heads; ++h) {
            softmax.run_into(pt::ConstMatrixViewI8(logits),
                             pt::MatrixViewI8(weights));
          }
        }));
  R.set("accel.encoder.sv_us", time_us(reps, [&] {
          for (size_t h = 0; h < heads; ++h) {
            pa::run_sv_engine(pt::ConstMatrixViewI8(weights),
                              pt::ConstMatrixViewI8(v), layer.rq_sv,
                              pt::MatrixViewI8(scores), ws);
          }
        }));
  R.set("accel.encoder.ffn1_us", time_us(reps, [&] {
          pa::run_ffn_engine(pt::ConstMatrixViewI8(x), layer.wo, layer.bo,
                             synth.ts_ffn, layer.rq_proj,
                             pa::FfnActivation::kNone, 0.0,
                             pt::MatrixViewI8(o), ws);
        }));
  R.set("accel.encoder.ffn2_us", time_us(reps, [&] {
          pa::run_ffn_engine(pt::ConstMatrixViewI8(x), layer.w1, layer.b1,
                             synth.ts_ffn, layer.rq_hidden,
                             pa::FfnActivation::kGeluLut, layer.scales.hidden,
                             pt::MatrixViewI8(hidden), ws);
        }));
  R.set("accel.encoder.ffn3_us", time_us(reps, [&] {
          pa::run_ffn_engine(pt::ConstMatrixViewI8(hidden), layer.w2, layer.b2,
                             synth.ts_ffn, layer.rq_ffn_out,
                             pa::FfnActivation::kNone, 0.0,
                             pt::MatrixViewI8(o), ws);
        }));
  for (const char* stage :
       {"qkv", "qk", "softmax", "sv", "ffn1", "ffn2", "ffn3"}) {
    R.set(std::string("accel.encoder.") + stage + "_cycles",
          stage_cycles(perf, stage));
  }

  const std::string no_decoder = "encoder_batch runs no decoder";
  R.skip("traffic.", "encoder_batch has no traffic engine (closed-loop batches)");
  R.skip("generation.", no_decoder);
  R.skip("layer_ops.decode.", no_decoder);
  R.skip("layer_ops.prefill.", no_decoder);
  R.skip("accel.decode.", no_decoder);
  R.skip("accel.span_runs", "encoder_batch has no KV cache");
  R.skip("accel.gathered", "encoder_batch has no KV cache");
  R.skip("kv_cache.", "encoder_batch has no KV cache");
  R.skip("prefix_cache.", "encoder_batch has no KV cache");
  R.skip("telemetry.", "the BatchScheduler has no telemetry sink");

  std::printf("workload encoder_batch (traced), seed %llu, SL=%u d=%u h=%u "
              "N=%u\n",
              static_cast<unsigned long long>(args.seed), cfg.seq_len,
              cfg.d_model, cfg.num_heads, cfg.num_layers);
  std::printf("requests: sent %u, completed %u, shed 0, cancelled 0, failed "
              "%llu\n",
              batch, batch, static_cast<unsigned long long>(failed));
  std::printf("spans: %zu calls, %zu spans, %llu containment violations, "
              "%llu bracket-order errors\n",
              table.calls.size(), log.spans().size(),
              static_cast<unsigned long long>(table.violations),
              static_cast<unsigned long long>(gate.order_errors()));
  failed += table.violations + gate.order_errors();

  MetricSink sink;
  R.print(sink);
  const bool correct = failed == 0;
  sink.print_json(correct, batch, failed);
  return correct ? 0 : 1;
}

}  // namespace

int run_traced(const Args& args) {
  if (args.workload == "encoder_batch") return traced_encoder(args);
  return traced_serving(args);
}

}  // namespace perfbench

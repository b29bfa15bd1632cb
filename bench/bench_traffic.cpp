// Fault-injecting traffic stress harness (the PR-6 robustness gate).
//
// A seeded synthetic trace (bursty Poisson arrivals, bounded-Pareto
// heavy-tailed lengths, greedy/sampled/beam policy mix with priorities
// and deadlines) drives the TrafficEngine through an overload scenario:
// a deliberately undersized KV pool, an overload watermark, a swap side
// buffer of one, and an injected pool-exhaustion storm (failpoints).
// The run is graded, not just timed — the process exits non-zero unless
// every invariant holds:
//
//   1. every request that completes under preemption/faults is
//      BIT-IDENTICAL to its unconstrained solo reference (swap-out and
//      drop-and-recompute are invisible in the bits);
//   2. the threaded run reproduces the stepped run exactly — outputs
//      AND SchedulerStats (only wall-clock differs);
//   3. the storm actually exercised the machinery: >= 1 preemption,
//      >= 1 shed, >= 1 deadline miss (and >= 1 failpoint trip when
//      PROTEA_FAILPOINTS is compiled in);
//   4. a beam group preempted mid-decode restores to the exact
//      hypotheses of an unpreempted run.
//
// Emits BENCH_traffic.json (p50/p99 latency, goodput, preemption /
// shed / deadline-miss counts, bit-identity results) in the unified
// record schema. `--ci` tags the records for the sanitizer stress job.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/decoder_accelerator.hpp"
#include "accel/decoder_model.hpp"
#include "bench_common.hpp"
#include "ref/weights.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/generation.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace protea;

tensor::MatrixF random_input(size_t rows, size_t cols, uint64_t seed) {
  tensor::MatrixF m(rows, cols);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

/// Small decoder + vocabulary the whole harness runs against.
struct Harness {
  ref::ModelConfig cfg;
  accel::AccelConfig acfg;
  accel::QuantizedDecoder qd;
  tensor::MatrixF memory;
  tensor::MatrixF head, embed;
  runtime::VocabModel vocab;

  Harness() {
    cfg.name = "traffic-small";
    cfg.seq_len = 24;
    cfg.d_model = 48;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
    cfg.activation = ref::Activation::kGelu;
    const auto weights = ref::make_random_decoder_weights(cfg, 6001);
    memory = random_input(6, cfg.d_model, 6002);
    const auto calib = random_input(cfg.seq_len, cfg.d_model, 6003);
    qd = accel::prepare_decoder(weights, calib, memory);
    util::Xoshiro256 rng(6007);
    const uint32_t vocab_size = 32;
    head = tensor::MatrixF(vocab_size, cfg.d_model);
    embed = tensor::MatrixF(vocab_size, cfg.d_model);
    for (float& x : head.flat()) x = static_cast<float>(rng.normal());
    for (float& x : embed.flat()) {
      x = static_cast<float>(rng.normal() * 0.5);
    }
    vocab.head = &head;
    vocab.embed = &embed;
  }

  tensor::MatrixF embed_rows(std::span<const uint32_t> tokens) const {
    tensor::MatrixF m(tokens.size(), cfg.d_model);
    for (size_t r = 0; r < tokens.size(); ++r) {
      std::copy(embed.row(tokens[r]).begin(), embed.row(tokens[r]).end(),
                m.row(r).begin());
    }
    return m;
  }
};

/// One scenario's requests plus the TokenStreams that back their
/// next_token callbacks (streams are stateful, so every run builds a
/// fresh set — determinism comes from the per-item policy seed).
struct BuiltRequests {
  std::vector<runtime::TrafficRequest> reqs;
  std::vector<std::unique_ptr<runtime::TokenStream>> streams;
};

/// `shared_rows` > 0 selects the storm's shared-prefix mode: items
/// carrying a shared_prefix_id start with that system prompt's token
/// block (seeded by the id alone, so every request on the same id embeds
/// byte-identical prefix rows — the radix cache's hit condition) before
/// their per-request unique tail.
BuiltRequests build_requests(const Harness& hx,
                             const std::vector<runtime::TraceItem>& items,
                             uint32_t shared_rows = 0) {
  BuiltRequests out;
  out.reqs.reserve(items.size());
  out.streams.reserve(items.size());
  for (const auto& item : items) {
    util::Xoshiro256 rng(item.policy_seed);
    std::vector<uint32_t> prompt(item.prompt_rows);
    size_t row = 0;
    if (shared_rows > 0 && item.shared_prefix_id != UINT32_MAX) {
      util::Xoshiro256 srng(0x5EEDF00Dull + item.shared_prefix_id);
      for (; row < shared_rows && row < prompt.size(); ++row) {
        prompt[row] = static_cast<uint32_t>(srng.bounded(hx.vocab.vocab_size()));
      }
    }
    for (; row < prompt.size(); ++row) {
      prompt[row] = static_cast<uint32_t>(rng.bounded(hx.vocab.vocab_size()));
    }
    runtime::DecodePolicy policy;
    if (item.sampled) {
      policy.sample = true;
      policy.temperature = 1.2f;
      policy.top_k = 8;
      policy.seed = item.policy_seed;
    }
    auto stream = std::make_unique<runtime::TokenStream>(policy, hx.vocab,
                                                         hx.cfg.seq_len);
    stream->reset(prompt);

    runtime::TrafficRequest req;
    req.gen.prefix = hx.embed_rows(prompt);
    req.gen.memory = &hx.memory;
    req.gen.max_new_tokens = item.max_new;
    req.gen.next_token = stream->callback();
    req.priority = item.priority;
    req.arrival_round = item.arrival_round;
    req.deadline_rounds = item.deadline_rounds;
    req.cancel_on_deadline = item.cancel_on_deadline;
    out.reqs.push_back(std::move(req));
    out.streams.push_back(std::move(stream));
  }
  return out;
}

bool rows_equal(const tensor::MatrixF& a, const tensor::MatrixF& b,
                size_t rows) {
  if (a.rows() < rows || b.rows() < rows || a.cols() != b.cols()) {
    return false;
  }
  for (size_t r = 0; r < rows; ++r) {
    if (std::memcmp(a.row(r).data(), b.row(r).data(),
                    a.cols() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

struct Gate {
  bool ok = true;
  void require(bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "GATE FAILED: %s\n", what);
      ok = false;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  // --ci tags the emitted records for the CI stress job; the trace is
  // small enough (sub-second in Release, seconds under sanitizers) that
  // the workload itself is identical — same seed, same gates.
  // --trace <path> arms runtime telemetry on the storms and writes the
  // merged Chrome trace-event JSON there (chrome://tracing / Perfetto).
  bool ci = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--ci") ci = true;
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  // Unconfigured bundles are inert, so the engines can take the
  // pointers unconditionally; configure() only runs when tracing was
  // requested (it throws by contract when PROTEA_TELEMETRY is off).
  runtime::Telemetry tel_stepped, tel_threaded, tel_pstep, tel_pthr;
  if (!trace_path.empty()) {
#ifdef PROTEA_TELEMETRY
    tel_stepped.configure();
    tel_threaded.configure();
    tel_pstep.configure();
    tel_pthr.configure();
#else
    std::fprintf(stderr,
                 "bench_traffic: --trace ignored (PROTEA_TELEMETRY off)\n");
    trace_path.clear();
#endif
  }

  Harness hx;
  Gate gate;
  std::vector<bench::BenchRecord> records;

  // --- seeded trace ----------------------------------------------------------
  runtime::TraceConfig trace_cfg;
  trace_cfg.requests = 56;
  trace_cfg.mean_interarrival_rounds = 1.0;  // faster than service: overload
  trace_cfg.burst_prob = 0.2;
  trace_cfg.burst_factor = 6.0;
  trace_cfg.heavy_tail_alpha = 1.1;
  trace_cfg.min_prompt = 1;
  trace_cfg.max_prompt = 10;
  trace_cfg.min_new = 1;
  trace_cfg.max_new = 10;
  trace_cfg.sampled_fraction = 0.35;
  trace_cfg.beam_fraction = 0.1;
  trace_cfg.interactive_fraction = 0.25;
  trace_cfg.batch_fraction = 0.25;
  trace_cfg.deadline_fraction = 0.6;
  trace_cfg.deadline_slack = 0.8;
  trace_cfg.cancel_on_deadline_fraction = 0.1;
  trace_cfg.seed = 20260807;
  const auto trace = runtime::generate_trace(trace_cfg);

  std::vector<runtime::TraceItem> engine_items, beam_items;
  for (const auto& item : trace) {
    (item.beam ? beam_items : engine_items).push_back(item);
  }
  gate.require(!beam_items.empty(), "trace contains a beam request");

  // --- solo references (unconstrained bits, one request at a time) ----------
  runtime::TrafficEngine ref_sched(hx.acfg, hx.qd);
  auto ref_built = build_requests(hx, engine_items);
  std::vector<runtime::GenerationRequest> ref_gens;
  ref_gens.reserve(ref_built.reqs.size());
  for (auto& r : ref_built.reqs) ref_gens.push_back(r.gen);
  runtime::TrafficOptions ref_opts;
  ref_opts.slots = 1;  // strictly sequential, private dense caches
  ref_opts.kv_block_rows = 0;
  const auto reference = ref_sched.run(ref_gens, ref_opts);

  // --- overload scenario (stepped, then threaded) ----------------------------
  runtime::TrafficOptions overload;
  overload.slots = 6;
  overload.prefill_chunk = 2;
  overload.kv_block_rows = 4;
  overload.kv_pool_blocks = 10;  // far below the working set: contention
  overload.recovery = runtime::PreemptionRecovery::kAuto;
  overload.swap_slots = 1;  // second concurrent victim must recompute
  overload.shed_queue_depth = 6;
  overload.stall_limit = 64;
#ifdef PROTEA_FAILPOINTS
  overload.fail_skip = 24;  // let the pool warm up, then storm
  overload.fail_count = 12;
#endif

  overload.telemetry = &tel_stepped;

  runtime::TrafficEngine engine(hx.acfg, hx.qd);
  auto stepped_built = build_requests(hx, engine_items);
  const auto stepped = engine.run(stepped_built.reqs, overload);
  const auto stepped_stats = engine.last_run();

  runtime::TrafficOptions threaded_opts = overload;
  threaded_opts.threads = 4;
  threaded_opts.mha_slots = 2;
  threaded_opts.ffn_slots = 2;
  threaded_opts.telemetry = &tel_threaded;
  auto threaded_built = build_requests(hx, engine_items);
  const auto threaded = engine.run(threaded_built.reqs, threaded_opts);
  const auto threaded_stats = engine.last_run();

  // Telemetry gate: the recorded virtual-time event sequence is
  // bit-identical between the modes (wall_ns is a non-compared
  // annotation), and the storm left every lifecycle stage in the trace.
  if (tel_stepped.enabled()) {
    gate.require(runtime::virtual_equal(tel_stepped.trace.snapshot(),
                                        tel_threaded.trace.snapshot()),
                 "storm virtual-time trace identical stepped vs threaded");
    using TE = runtime::TraceEventType;
    for (const TE t : {TE::kAdmit, TE::kShed, TE::kPreempt, TE::kSwapOut,
                       TE::kSwapIn, TE::kRestore, TE::kDeadlineMiss,
                       TE::kComplete, TE::kPoolOccupancy}) {
      const std::string what =
          std::string("storm trace covers ") + runtime::trace_event_name(t);
      gate.require(tel_stepped.trace.count(t) >= 1, what.c_str());
    }
  }

  // Gate 1: completed bits match the solo references; cancelled requests
  // return an exact prefix of them.
  size_t completed = 0, late = 0, shed = 0, cancelled = 0;
  std::vector<double> lat_rounds, lat_ms;
  uint64_t ontime_tokens = 0;
  for (size_t i = 0; i < stepped.size(); ++i) {
    const auto& res = stepped[i];
    const auto& ref = reference[i];
    switch (res.outcome) {
      case runtime::TrafficOutcome::kCompleted:
      case runtime::TrafficOutcome::kCompletedLate: {
        const bool is_late =
            res.outcome == runtime::TrafficOutcome::kCompletedLate;
        completed += 1;
        late += is_late ? 1 : 0;
        gate.require(res.steps == ref.steps, "completed request step count");
        gate.require(res.states.rows() == ref.states.rows() &&
                         rows_equal(res.states, ref.states, ref.states.rows()),
                     "completed request bit-identical to solo reference");
        lat_rounds.push_back(static_cast<double>(res.latency_rounds));
        lat_ms.push_back(res.latency_ms);
        if (!is_late) ontime_tokens += res.steps;
        break;
      }
      case runtime::TrafficOutcome::kCancelled:
        cancelled += 1;
        gate.require(rows_equal(res.states, ref.states, res.states.rows()),
                     "cancelled request returns an exact computed prefix");
        break;
      case runtime::TrafficOutcome::kShedOverload:
      case runtime::TrafficOutcome::kShedDeadline:
      case runtime::TrafficOutcome::kShedCapacity:
        shed += 1;
        gate.require(!res.shed_reason.empty(), "shed carries a reason");
        break;
      case runtime::TrafficOutcome::kFailed:
        gate.require(false, "no unit failures in the storm");
        break;
      default:
        gate.require(false, "request reached a terminal outcome");
    }
  }

  // Gate 2: threaded == stepped, bit for bit (wall clock excepted).
  bool modes_match = threaded.size() == stepped.size();
  for (size_t i = 0; modes_match && i < stepped.size(); ++i) {
    const auto& a = stepped[i];
    const auto& b = threaded[i];
    modes_match = a.outcome == b.outcome && a.steps == b.steps &&
                  a.shed_reason == b.shed_reason &&
                  a.admitted_round == b.admitted_round &&
                  a.retired_round == b.retired_round &&
                  a.latency_rounds == b.latency_rounds &&
                  a.preemptions == b.preemptions &&
                  a.deadline_missed == b.deadline_missed &&
                  a.states.rows() == b.states.rows() &&
                  rows_equal(a.states, b.states, a.states.rows());
  }
  for (size_t c = 0; c < runtime::kTrafficClasses; ++c) {
    const auto& a = stepped_stats.per_class[c];
    const auto& b = threaded_stats.per_class[c];
    modes_match = modes_match && std::memcmp(&a, &b, sizeof(a)) == 0;
  }
  modes_match = modes_match && stepped_stats.rounds == threaded_stats.rounds &&
                stepped_stats.decode_steps == threaded_stats.decode_steps &&
                stepped_stats.prefill_chunks == threaded_stats.prefill_chunks &&
                stepped_stats.replayed_rows == threaded_stats.replayed_rows &&
                stepped_stats.swap_bytes == threaded_stats.swap_bytes &&
                stepped_stats.kv_blocks_peak == threaded_stats.kv_blocks_peak &&
                stepped_stats.failpoint_trips ==
                    threaded_stats.failpoint_trips &&
                stepped_stats.max_active == threaded_stats.max_active;
  gate.require(modes_match, "threaded run reproduces stepped run exactly");

  // --- same storm, recovery forced to drop-and-recompute ---------------------
  // The kAuto storm above exercises the swap path (its side buffer has a
  // free slot at each eviction); this pass proves the other strategy on
  // the same trace: every preemption re-prefills from token history, and
  // the bits still match the solo references.
  runtime::TrafficOptions recompute_opts = overload;
  recompute_opts.recovery = runtime::PreemptionRecovery::kRecompute;
  recompute_opts.telemetry = nullptr;  // keep tel_stepped's ring storm-only
  auto recompute_built = build_requests(hx, engine_items);
  const auto recomputed = engine.run(recompute_built.reqs, recompute_opts);
  const auto recompute_stats = engine.last_run();
  for (size_t i = 0; i < recomputed.size(); ++i) {
    const auto& res = recomputed[i];
    if (res.outcome == runtime::TrafficOutcome::kCompleted ||
        res.outcome == runtime::TrafficOutcome::kCompletedLate) {
      gate.require(res.steps == reference[i].steps &&
                       res.states.rows() == reference[i].states.rows() &&
                       rows_equal(res.states, reference[i].states,
                                  reference[i].states.rows()),
                   "recompute-storm request bit-identical to solo reference");
    }
  }

  // Gate 3: the storm actually happened.
  using CS = runtime::TrafficClassStats;
  const uint64_t preemptions = stepped_stats.total(&CS::preemptions);
  const uint64_t swap_outs = stepped_stats.total(&CS::swap_outs);
  const uint64_t recomputes = recompute_stats.total(&CS::recomputes);
  const uint64_t deadline_misses = stepped_stats.total(&CS::deadline_misses);
  const uint64_t sheds = stepped_stats.total(&CS::shed_overload) +
                         stepped_stats.total(&CS::shed_deadline) +
                         stepped_stats.total(&CS::shed_capacity);
  gate.require(preemptions >= 1, "storm preempted at least one request");
  gate.require(swap_outs >= 1, "at least one swap-out recovery");
  gate.require(recomputes >= 1, "at least one drop-and-recompute recovery");
  gate.require(recompute_stats.total(&CS::swap_outs) == 0 &&
                   recompute_stats.swap_bytes == 0,
               "forced-recompute storm never touches the swap buffer");
  gate.require(recompute_stats.replayed_rows > 0,
               "recompute restores replayed rows through prefill");
  gate.require(sheds >= 1, "storm shed at least one request");
  gate.require(deadline_misses >= 1, "storm missed at least one deadline");
  gate.require(completed >= 1, "storm completed at least one request");
#ifdef PROTEA_FAILPOINTS
  gate.require(stepped_stats.failpoint_trips >= 1,
               "injected exhaustion storm fired");
#endif

  // --- beam group preemption under the same pool pressure --------------------
  const auto& bi = beam_items.front();
  util::Xoshiro256 brng(bi.policy_seed);
  std::vector<uint32_t> beam_prompt(std::max<uint32_t>(bi.prompt_rows, 1));
  for (uint32_t& t : beam_prompt) {
    t = static_cast<uint32_t>(brng.bounded(hx.vocab.vocab_size()));
  }
  runtime::BeamSearchOptions bopts;
  bopts.beam_width = 3;
  bopts.max_new_tokens = std::max<uint32_t>(bi.max_new, 4);
  bopts.kv_block_rows = 4;
  runtime::BeamSearchDecoder solo(hx.acfg, hx.qd, hx.vocab, bopts);
  const auto want = solo.generate(beam_prompt, hx.memory);

  runtime::KvBlockPool beam_pool;
  const size_t worst = runtime::beam_worst_case_blocks(
      beam_prompt.size(), bopts.max_new_tokens, bopts.beam_width,
      bopts.kv_block_rows, bopts.cow);
  beam_pool.configure(worst + 2, bopts.kv_block_rows,
                      size_t{hx.cfg.num_layers} * hx.cfg.num_heads * 2 *
                          (hx.cfg.d_model / hx.cfg.num_heads));
  bopts.kv_pool = &beam_pool;
  bool beam_fired = false;
  bopts.preempt_point = [&beam_fired](uint32_t generated) {
    if (generated == 2 && !beam_fired) {
      beam_fired = true;
      return true;
    }
    return false;
  };
  runtime::BeamSearchDecoder preempted(hx.acfg, hx.qd, hx.vocab, bopts);
  const auto got = preempted.generate(beam_prompt, hx.memory);
  bool beams_match = got.size() == want.size();
  for (size_t i = 0; beams_match && i < got.size(); ++i) {
    beams_match = got[i].tokens == want[i].tokens &&
                  got[i].sum_logprob == want[i].sum_logprob &&
                  got[i].finished == want[i].finished;
  }
  gate.require(beams_match, "preempted beam group restores bit-identically");
  gate.require(preempted.last_run().group_preemptions == 1,
               "beam group was preempted exactly once");
  gate.require(preempted.last_run().replayed_rows > 0,
               "beam restore replayed committed rows");

  // --- shared-prefix storm: radix adoption under the same pressure -----------
  // A second seeded trace where every request opens with one of four
  // distinct system prompts (8 shared rows) before its unique tail, run
  // with TrafficOptions::prefix_cache on over a deliberately undersized
  // pool with failpoints armed. Gates: completed/cancelled bits still
  // match the solo references, the threaded run reproduces the stepped
  // run exactly (prefix counters included), the cache actually fired
  // (hits, adopted rows, cross reuse, bytes saved), and the storm still
  // preempted/shed — adoption and LRU reclaim never deadlock admission.
  uint64_t px_hits = 0, px_rows = 0, px_bytes = 0, px_evictions = 0;
  size_t px_completed = 0, px_shed = 0;
  {
    runtime::TraceConfig pcfg;
    pcfg.requests = 40;
    pcfg.mean_interarrival_rounds = 1.0;
    pcfg.burst_prob = 0.2;
    pcfg.burst_factor = 5.0;
    pcfg.heavy_tail_alpha = 1.1;
    pcfg.min_prompt = 1;  // unique tail rows; the 8 shared rows stack on top
    pcfg.max_prompt = 4;
    pcfg.min_new = 1;
    pcfg.max_new = 8;
    pcfg.sampled_fraction = 0.3;
    pcfg.beam_fraction = 0.0;  // engine-only: the cache serves sessions
    pcfg.interactive_fraction = 0.25;
    pcfg.batch_fraction = 0.25;
    pcfg.deadline_fraction = 0.5;
    pcfg.deadline_slack = 0.8;
    pcfg.cancel_on_deadline_fraction = 0.1;
    pcfg.shared_prefix_count = 4;
    pcfg.shared_prefix_rows = 8;
    pcfg.seed = 20260808;
    const auto pitems = runtime::generate_trace(pcfg);

    auto pref_built = build_requests(hx, pitems, pcfg.shared_prefix_rows);
    std::vector<runtime::GenerationRequest> pref_gens;
    pref_gens.reserve(pref_built.reqs.size());
    for (auto& r : pref_built.reqs) pref_gens.push_back(r.gen);
    runtime::TrafficOptions pref_opts;
    pref_opts.slots = 1;
    pref_opts.kv_block_rows = 0;
    const auto pref = ref_sched.run(pref_gens, pref_opts);

    runtime::TrafficOptions popts;
    popts.slots = 5;
    popts.prefill_chunk = 2;
    popts.kv_block_rows = 4;
    popts.kv_pool_blocks = 16;  // live set + cached prefixes cannot all fit
    popts.recovery = runtime::PreemptionRecovery::kAuto;
    popts.swap_slots = 1;
    popts.shed_queue_depth = 6;
    popts.stall_limit = 64;
    popts.prefix_cache = true;
    popts.telemetry = &tel_pstep;
#ifdef PROTEA_FAILPOINTS
    popts.fail_skip = 20;
    popts.fail_count = 8;
#endif
    auto pstep_built = build_requests(hx, pitems, pcfg.shared_prefix_rows);
    const auto pstep = engine.run(pstep_built.reqs, popts);
    const auto pstep_stats = engine.last_run();

    runtime::TrafficOptions pthr_opts = popts;
    pthr_opts.threads = 4;
    pthr_opts.mha_slots = 2;
    pthr_opts.ffn_slots = 2;
    pthr_opts.telemetry = &tel_pthr;
    auto pthr_built = build_requests(hx, pitems, pcfg.shared_prefix_rows);
    const auto pthr = engine.run(pthr_built.reqs, pthr_opts);
    const auto pthr_stats = engine.last_run();

    for (size_t i = 0; i < pstep.size(); ++i) {
      const auto& res = pstep[i];
      switch (res.outcome) {
        case runtime::TrafficOutcome::kCompleted:
        case runtime::TrafficOutcome::kCompletedLate:
          px_completed += 1;
          gate.require(res.steps == pref[i].steps &&
                           res.states.rows() == pref[i].states.rows() &&
                           rows_equal(res.states, pref[i].states,
                                      pref[i].states.rows()),
                       "shared-prefix completion bit-identical to solo ref");
          break;
        case runtime::TrafficOutcome::kCancelled:
          gate.require(rows_equal(res.states, pref[i].states,
                                  res.states.rows()),
                       "shared-prefix cancel returns an exact prefix");
          break;
        case runtime::TrafficOutcome::kShedOverload:
        case runtime::TrafficOutcome::kShedDeadline:
        case runtime::TrafficOutcome::kShedCapacity:
          px_shed += 1;
          break;
        default:
          gate.require(false, "shared-prefix request reached terminal state");
      }
    }

    bool pmatch = pthr.size() == pstep.size();
    for (size_t i = 0; pmatch && i < pstep.size(); ++i) {
      const auto& a = pstep[i];
      const auto& b = pthr[i];
      pmatch = a.outcome == b.outcome && a.steps == b.steps &&
               a.latency_rounds == b.latency_rounds &&
               a.preemptions == b.preemptions &&
               a.states.rows() == b.states.rows() &&
               rows_equal(a.states, b.states, a.states.rows());
    }
    pmatch = pmatch && pstep_stats.rounds == pthr_stats.rounds &&
             pstep_stats.prefix_hits == pthr_stats.prefix_hits &&
             pstep_stats.prefix_misses == pthr_stats.prefix_misses &&
             pstep_stats.prefix_rows_adopted ==
                 pthr_stats.prefix_rows_adopted &&
             pstep_stats.prefix_bytes_saved ==
                 pthr_stats.prefix_bytes_saved &&
             pstep_stats.cross_kv_hits == pthr_stats.cross_kv_hits &&
             pstep_stats.cross_kv_misses == pthr_stats.cross_kv_misses &&
             pstep_stats.prefix_evictions == pthr_stats.prefix_evictions &&
             pstep_stats.replayed_rows == pthr_stats.replayed_rows &&
             pstep_stats.kv_blocks_peak == pthr_stats.kv_blocks_peak &&
             pstep_stats.failpoint_trips == pthr_stats.failpoint_trips;
    gate.require(pmatch,
                 "shared-prefix threaded run reproduces stepped exactly");

    px_hits = pstep_stats.prefix_hits;
    px_rows = pstep_stats.prefix_rows_adopted;
    px_bytes = pstep_stats.prefix_bytes_saved;
    px_evictions = pstep_stats.prefix_evictions;
    const uint64_t px_preempt = pstep_stats.total(&CS::preemptions);
    gate.require(px_completed >= 1, "shared-prefix storm completed a request");
    gate.require(px_hits >= 1, "shared-prefix storm scored a prefix hit");
    gate.require(px_rows >= 1, "shared-prefix storm adopted cached rows");
    gate.require(pstep_stats.cross_kv_hits >= 1,
                 "shared-prefix storm reused cross projections");
    gate.require(px_bytes > 0, "shared-prefix storm saved K/V bytes");
    gate.require(px_preempt + px_shed >= 1,
                 "shared-prefix storm kept the pool under pressure");
#ifdef PROTEA_FAILPOINTS
    gate.require(pstep_stats.failpoint_trips >= 1,
                 "shared-prefix exhaustion storm fired");
#endif

    std::printf(
        "shared-prefix storm (%zu requests, %zu system prompts x %u rows): "
        "%zu completed, %zu shed, %llu preempted, %llu/%llu prefix "
        "hit/miss, %llu rows adopted, %llu bytes saved, %llu evictions, "
        "%llu cross reuses, stepped==threaded %s\n\n",
        pitems.size(), pcfg.shared_prefix_count, pcfg.shared_prefix_rows,
        px_completed, px_shed,
        static_cast<unsigned long long>(px_preempt),
        static_cast<unsigned long long>(px_hits),
        static_cast<unsigned long long>(pstep_stats.prefix_misses),
        static_cast<unsigned long long>(px_rows),
        static_cast<unsigned long long>(px_bytes),
        static_cast<unsigned long long>(px_evictions),
        static_cast<unsigned long long>(pstep_stats.cross_kv_hits),
        pmatch ? "yes" : "NO");

    // Telemetry gate: adoption, publication and eviction events are
    // part of the deterministic virtual-time sequence too.
    if (tel_pstep.enabled()) {
      gate.require(runtime::virtual_equal(tel_pstep.trace.snapshot(),
                                          tel_pthr.trace.snapshot()),
                   "prefix-storm virtual-time trace identical stepped vs "
                   "threaded");
      gate.require(
          tel_pstep.trace.count(runtime::TraceEventType::kPrefixAdopt) >= 1,
          "prefix-storm trace covers prefix-adopt");
      gate.require(
          tel_pstep.trace.count(runtime::TraceEventType::kPrefixPublish) >= 1,
          "prefix-storm trace covers prefix-publish");
    }

    // SchedulerStats go through the shared flattener (the same samples
    // scheduler_stats_json serializes) instead of hand-picked fields.
    const std::string pname =
        std::string("shared_prefix_storm_") + (ci ? "ci" : "full");
    records.push_back(
        {pname, "requests", static_cast<double>(pitems.size()), "count"});
    for (const auto& s : runtime::flatten_stats(pstep_stats)) {
      records.push_back({pname, s.metric, s.value, s.unit});
    }
    records.push_back(
        {pname, "stepped_equals_threaded", pmatch ? 1.0 : 0.0, "bool"});
  }

  // --- report ---------------------------------------------------------------
  const double goodput_tok_s =
      stepped_stats.wall_ms > 0.0
          ? static_cast<double>(ontime_tokens) / (stepped_stats.wall_ms * 1e-3)
          : 0.0;
  const char* mode = ci ? "ci" : "full";

  util::Table table({"Metric", "Value"});
  table.set_title("Traffic storm (" + std::string(mode) + " trace, " +
                  std::to_string(engine_items.size()) + " engine + " +
                  std::to_string(beam_items.size()) + " beam requests)");
  table.row({"completed (on time / late)", std::to_string(completed - late) +
                                               " / " + std::to_string(late)});
  table.row({"shed / cancelled",
             std::to_string(shed) + " / " + std::to_string(cancelled)});
  table.row({"preemptions (kAuto storm)",
             std::to_string(preemptions) + " (" + std::to_string(swap_outs) +
                 " swapped)"});
  table.row({"preemptions (forced-recompute storm)",
             std::to_string(recompute_stats.total(&CS::preemptions)) + " (" +
                 std::to_string(recomputes) + " recomputed, " +
                 std::to_string(recompute_stats.replayed_rows) +
                 " rows replayed)"});
  table.row({"deadline misses", std::to_string(deadline_misses)});
  table.row({"failpoint trips", std::to_string(stepped_stats.failpoint_trips)});
  table.row({"latency p50/p99 (rounds)",
             bench::fmt(percentile(lat_rounds, 50), 1) + " / " +
                 bench::fmt(percentile(lat_rounds, 99), 1)});
  table.row({"latency p50/p99 (ms)", bench::fmt(percentile(lat_ms, 50), 2) +
                                         " / " +
                                         bench::fmt(percentile(lat_ms, 99), 2)});
  table.row({"goodput (on-time tokens/s)", bench::fmt(goodput_tok_s, 1)});
  table.row({"stepped == threaded", modes_match ? "yes" : "NO"});
  std::printf("%s\n", table.to_string().c_str());

  // One line of machine-readable storm stats (the shared serializer
  // the JSON records below are flattened from).
  std::printf("storm stats: %s\n\n",
              runtime::scheduler_stats_json(stepped_stats).c_str());

  const std::string name = std::string("traffic_storm_") + mode;
  const auto count = [&](const char* metric, double value,
                         const char* unit = "count") {
    records.push_back({name, metric, value, unit});
  };
  // Every SchedulerStats counter — aggregate and per-class — lands in
  // the records through the shared flattener; only derived metrics
  // (latencies, goodput, gate verdicts) are emitted by hand.
  count("requests", static_cast<double>(engine_items.size()));
  for (const auto& s : runtime::flatten_stats(stepped_stats)) {
    records.push_back({name, s.metric, s.value, s.unit});
  }
  {
    const std::string rname = std::string("recompute_storm_") + mode;
    for (const auto& s : runtime::flatten_stats(recompute_stats)) {
      records.push_back({rname, s.metric, s.value, s.unit});
    }
  }
  count("latency_p50", percentile(lat_rounds, 50), "rounds");
  count("latency_p99", percentile(lat_rounds, 99), "rounds");
  count("latency_ms_p50", percentile(lat_ms, 50), "ms");
  count("latency_ms_p99", percentile(lat_ms, 99), "ms");
  count("goodput", goodput_tok_s, "tokens/s");
  count("bit_identical_vs_solo", gate.ok ? 1.0 : 0.0, "bool");
  count("stepped_equals_threaded", modes_match ? 1.0 : 0.0, "bool");
  records.push_back({std::string("beam_group_preemption_") + mode,
                     "bit_identical_restore", beams_match ? 1.0 : 0.0,
                     "bool"});
  records.push_back({std::string("beam_group_preemption_") + mode,
                     "replayed_rows",
                     static_cast<double>(preempted.last_run().replayed_rows),
                     "rows"});

  // Telemetry folds into the same record file: every registered
  // histogram's p50/p95/p99/mean/count plus the counters, under the
  // storm's record name. The merged Chrome trace (overload storm +
  // shared-prefix storm, the latter's sequences offset onto their own
  // span tracks) goes to --trace.
  if (tel_stepped.enabled()) {
    for (const auto& s : runtime::metric_samples(tel_stepped)) {
      records.push_back({name, s.name + "_" + s.metric, s.value, s.unit});
    }
  }
  if (!trace_path.empty() && tel_stepped.enabled()) {
    auto events = tel_stepped.trace.snapshot();
    auto pe = tel_pstep.trace.snapshot();
    for (auto& e : pe) {
      if (e.seq != runtime::kNoTraceSeq) e.seq += 1000;
    }
    events.insert(events.end(), pe.begin(), pe.end());
    runtime::write_chrome_trace(trace_path, events);
    std::printf("bench_traffic: wrote %zu trace events to %s\n",
                events.size(), trace_path.c_str());
  }

  const bool wrote =
      bench::write_bench_records("BENCH_traffic.json", "bench_traffic",
                                 records);
  if (!gate.ok) {
    std::fprintf(stderr, "bench_traffic: INVARIANT GATES FAILED\n");
    return 1;
  }
  std::printf("bench_traffic: all invariant gates passed\n");
  return wrote ? 0 : 1;
}

#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "accel/decoder_accelerator.hpp"
#include "bench_util.hpp"
#include "ref/decoder.hpp"
#include "ref/model_zoo.hpp"
#include "ref/weights.hpp"
#include "runtime/generation.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {

using protea::util::Xoshiro256;

// Request shapes (arrival rounds, lengths, classes, deadlines, which
// memory or document) come from fixed per-workload shape seeds, so the
// virtual-time schedule is the same for every --seed and its metrics
// compare exactly across seeds; --seed drives every other input: the
// weights, calibration data, vocabulary, memories, prompt tokens and
// encoder inputs.
constexpr uint64_t kDecodeSteadyShape = 0xD5EAD1;
constexpr uint64_t kPrefillSharedShape = 0x9F5A4ED;
constexpr uint64_t kOverloadShape = 0x0F4F4;

// Sub-seed tags: one per kind of generated input.
enum SeedTag : uint64_t {
  kWeights = 1,
  kCalib,
  kVocab,
  kMemories,
  kRequests,
  kEncoderWeights,
  kEncoderCalib,
  kEncoderInputs,
};

constexpr uint32_t kVocabSize = 128;

pt::MatrixF random_matrix(size_t rows, size_t cols, uint64_t seed) {
  pt::MatrixF m(rows, cols);
  Xoshiro256 rng(seed);
  for (float& x : m.flat()) {
    x = static_cast<float>(std::clamp(rng.normal(), -3.0, 3.0));
  }
  return m;
}

uint32_t uniform_u32(Xoshiro256& rng, uint32_t lo, uint32_t hi) {
  return lo + static_cast<uint32_t>(rng.bounded(hi - lo + 1));
}

std::vector<uint32_t> random_tokens(Xoshiro256& rng, size_t n) {
  std::vector<uint32_t> t(n);
  for (uint32_t& x : t) x = static_cast<uint32_t>(rng.bounded(kVocabSize));
  return t;
}

// --- decode_steady ----------------------------------------------------------
// Evenly spaced arrivals, each request ~1 prefill round + 48..112 decode
// rounds, so about (service rounds / spacing) = 8 seats stay busy; the
// pool covers every seat's worst case, so nothing is preempted or shed.
ServingSpec decode_steady(uint64_t seed, bool tiny) {
  ServingSpec s;
  s.name = "decode_steady";
  const size_t n = tiny ? 6 : 24;
  const uint32_t spacing = 10;
  const uint32_t min_new = tiny ? 8 : 48, max_new = tiny ? 16 : 112;
  Xoshiro256 shape(kDecodeSteadyShape);
  Xoshiro256 rng(derive_seed(seed, kRequests));
  for (size_t i = 0; i < n; ++i) {
    RequestSpec r;
    r.prompt = random_tokens(rng, uniform_u32(shape, 2, 8));
    r.max_new = uniform_u32(shape, min_new, max_new);
    r.memory = static_cast<uint32_t>(i);  // a distinct memory per request
    r.arrival_round = static_cast<uint32_t>(i) * spacing;
    s.requests.push_back(std::move(r));
  }
  s.memories = n;
  s.opts.slots = 12;
  s.opts.kv_block_rows = 16;
  s.opts.kv_pool_blocks = 12 * 8;  // 12 seats x ceil((8 + 112) / 16)
  s.opts.prefill_chunk = 0;
  s.check_stride = tiny ? 1 : 3;
  return s;
}

// --- prefill_shared ---------------------------------------------------------
// Four documents (a memory plus a 64-row system prompt); each request is
// one document's prompt + a short unique tail with a few output tokens,
// arriving one per round. Most work is prompt processing in 16-row
// chunks, and most prompt rows are adopted from the prefix cache.
ServingSpec prefill_shared(uint64_t seed, bool tiny) {
  ServingSpec s;
  s.name = "prefill_shared";
  const size_t docs = 4;
  const size_t n = tiny ? 16 : 160;
  const uint32_t system_rows = 64;
  Xoshiro256 shape(kPrefillSharedShape);
  Xoshiro256 rng(derive_seed(seed, kRequests));
  std::vector<std::vector<uint32_t>> system(docs);
  for (auto& doc : system) doc = random_tokens(rng, system_rows);
  for (size_t i = 0; i < n; ++i) {
    RequestSpec r;
    r.memory = static_cast<uint32_t>(shape.bounded(docs));
    r.prompt = system[r.memory];
    const auto tail = random_tokens(rng, uniform_u32(shape, 2, 16));
    r.prompt.insert(r.prompt.end(), tail.begin(), tail.end());
    r.max_new = uniform_u32(shape, 2, 6);
    r.arrival_round = static_cast<uint32_t>(i);
    s.requests.push_back(std::move(r));
  }
  s.memories = docs;
  s.opts.slots = 8;
  s.opts.kv_block_rows = 16;
  // Room for the live seats (sharing the four documents' 16 cached
  // blocks) but not for every published tail block as well, so cold
  // cache blocks are reclaimed now and then (8 evictions and a single
  // preemption over the 160 requests).
  s.opts.kv_pool_blocks = 34;
  s.opts.prefill_chunk = 16;
  s.opts.prefix_cache = true;
  s.check_stride = tiny ? 1 : 8;
  return s;
}

// --- overload_fp4 -----------------------------------------------------------
// Bursty arrivals above the service rate with heavy-tailed lengths, three
// priority classes and deadlines on half the requests, served from an
// undersized fp4 pool with two swap slots: admission, preemption,
// swap-out/in, recompute and shedding all run.
ServingSpec overload_fp4(uint64_t seed, bool tiny) {
  ServingSpec s;
  s.name = "overload_fp4";
  pr::TraceConfig tc;
  tc.requests = tiny ? 24 : 128;
  tc.mean_interarrival_rounds = 1.5;
  tc.burst_prob = 0.2;
  tc.burst_factor = 6.0;
  tc.heavy_tail_alpha = 1.1;
  tc.min_prompt = 2;
  tc.max_prompt = 24;
  tc.min_new = 4;
  tc.max_new = 48;
  tc.sampled_fraction = 0.0;
  tc.beam_fraction = 0.0;
  tc.interactive_fraction = 1.0 / 3.0;
  tc.batch_fraction = 1.0 / 3.0;
  tc.deadline_fraction = 0.5;
  tc.deadline_slack = 2.0;
  tc.cancel_on_deadline_fraction = 0.0;
  tc.seed = kOverloadShape;
  const size_t memories = 8;
  Xoshiro256 rng(derive_seed(seed, kRequests));
  for (const pr::TraceItem& item : pr::generate_trace(tc)) {
    RequestSpec r;
    r.prompt = random_tokens(rng, item.prompt_rows);
    r.max_new = item.max_new;
    r.memory = static_cast<uint32_t>(item.policy_seed % memories);
    r.priority = item.priority;
    r.arrival_round = item.arrival_round;
    r.deadline_rounds = item.deadline_rounds;
    s.requests.push_back(std::move(r));
  }
  s.memories = memories;
  s.opts.slots = 8;
  s.opts.kv_block_rows = 16;
  s.opts.kv_pool_blocks = 12;
  s.opts.prefill_chunk = 8;
  s.opts.kv_storage = protea::numeric::KvStorage::kFp4E2M1;
  s.opts.recovery = pr::PreemptionRecovery::kAuto;
  s.opts.swap_slots = 2;
  s.opts.shed_queue_depth = 8;
  s.check_stride = 1;
  return s;
}

uint64_t digest_results(const std::vector<pr::TrafficResult>& results) {
  uint64_t h = fnv1a(nullptr, 0);
  for (const pr::TrafficResult& r : results) {
    const uint32_t head[2] = {static_cast<uint32_t>(r.outcome), r.steps};
    h = fnv1a(head, sizeof(head), h);
    h = fnv1a(r.states.flat().data(), r.states.flat().size() * sizeof(float),
              h);
  }
  return h;
}

std::string stats_key(const pr::SchedulerStats& stats) {
  std::string key;
  for (const pr::StatSample& s : pr::flatten_stats(stats)) {
    if (s.metric == "wall_ms") continue;
    key += s.metric + "=" + std::to_string(s.value) + ";";
  }
  return key;
}

protea::accel::QuantizedModel encoder_model(uint64_t seed, bool tiny) {
  protea::ref::ModelConfig cfg = protea::ref::table1_tests().at(4);
  cfg.activation = protea::ref::Activation::kGelu;
  if (tiny) {
    cfg.d_model = 256;
    cfg.num_heads = 4;
    cfg.num_layers = 2;
  }
  const auto weights =
      protea::ref::make_random_weights(cfg, derive_seed(seed, kEncoderWeights));
  const auto calib =
      protea::ref::make_random_input(cfg, derive_seed(seed, kEncoderCalib));
  return protea::accel::prepare_model(weights, calib);
}

}  // namespace

// --- decoder model ------------------------------------------------------------

DecoderModel::DecoderModel(uint64_t seed, bool tiny) {
  cfg.name = "perfbench-decoder";
  cfg.seq_len = 128;
  cfg.d_model = tiny ? 128 : 256;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.ffn_dim = cfg.d_model;  // the decode-latency shape's thin FFN
  cfg.activation = protea::ref::Activation::kRelu;
  const auto weights =
      protea::ref::make_random_decoder_weights(cfg, derive_seed(seed, kWeights));
  const auto calib =
      random_matrix(cfg.seq_len, cfg.d_model, derive_seed(seed, kCalib));
  const auto calib_memory =
      random_matrix(32, cfg.d_model, derive_seed(seed, kCalib) + 1);
  qd = protea::accel::prepare_decoder(weights, calib, calib_memory);
  head = random_matrix(kVocabSize, cfg.d_model, derive_seed(seed, kVocab));
  embed = random_matrix(kVocabSize, cfg.d_model, derive_seed(seed, kVocab) + 1);
  for (float& x : embed.flat()) x *= 0.5f;
  vocab.head = &head;
  vocab.embed = &embed;
}

pt::MatrixF DecoderModel::embed_rows(std::span<const uint32_t> tokens) const {
  pt::MatrixF m(tokens.size(), cfg.d_model);
  for (size_t r = 0; r < tokens.size(); ++r) {
    std::copy(embed.row(tokens[r]).begin(), embed.row(tokens[r]).end(),
              m.row(r).begin());
  }
  return m;
}

bool finished(pr::TrafficOutcome o) {
  return o == pr::TrafficOutcome::kCompleted ||
         o == pr::TrafficOutcome::kCompletedLate;
}

bool is_serving_workload(const std::string& name) {
  return name == "decode_steady" || name == "prefill_shared" ||
         name == "overload_fp4";
}

ServingSpec make_serving_spec(const std::string& name, uint64_t seed,
                              bool tiny, const DecoderModel& model) {
  ServingSpec s;
  if (name == "decode_steady") {
    s = decode_steady(seed, tiny);
  } else if (name == "prefill_shared") {
    s = prefill_shared(seed, tiny);
  } else if (name == "overload_fp4") {
    s = overload_fp4(seed, tiny);
  } else {
    throw std::invalid_argument("unknown serving workload " + name);
  }
  for (const RequestSpec& r : s.requests) {
    if (r.prompt.empty() ||
        r.prompt.size() + r.max_new > model.cfg.seq_len + 1) {
      throw std::logic_error(name + ": request exceeds the model");
    }
  }
  return s;
}

// --- serving workload -----------------------------------------------------------

ServingWorkload::ServingWorkload(const std::string& name, uint64_t seed,
                                 bool tiny)
    : model_(seed, tiny),
      spec_(make_serving_spec(name, seed, tiny, model_)),
      engine_(model_.acfg, model_.qd) {
  for (size_t m = 0; m < spec_.memories; ++m) {
    memories_.push_back(random_matrix(spec_.memory_rows, model_.cfg.d_model,
                                      derive_seed(seed, kMemories) + m));
  }
  const size_t n = spec_.requests.size();
  requests_.reserve(n);
  streams_.reserve(n);
  stamps_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RequestSpec& rs = spec_.requests[i];
    streams_.push_back(make_stream(i));
    stamps_[i].reserve(rs.max_new + 1);
    pr::TrafficRequest req;
    req.gen.prefix = model_.embed_rows(rs.prompt);
    req.gen.memory = &memories_[rs.memory];
    req.gen.max_new_tokens = rs.max_new;
    // The benchmark's own callback: stamp, then select greedily. Each
    // request's vector is only touched by the unit running it.
    req.gen.next_token = [select = streams_[i]->callback(),
                          stamps = &stamps_[i]](std::span<const float> state,
                                                pt::MatrixF& next) {
      stamps->push_back(protea::util::monotonic_ns());
      return select(state, next);
    };
    req.priority = rs.priority;
    req.arrival_round = rs.arrival_round;
    req.deadline_rounds = rs.deadline_rounds;
    requests_.push_back(std::move(req));
  }
}

std::unique_ptr<pr::TokenStream> ServingWorkload::make_stream(size_t i) const {
  auto stream = std::make_unique<pr::TokenStream>(
      pr::DecodePolicy{}, model_.vocab, model_.cfg.seq_len + 1);
  stream->reset(spec_.requests[i].prompt);
  return stream;
}

ServingPass ServingWorkload::run_pass(size_t threads,
                                      pr::Telemetry* telemetry) {
  for (size_t i = 0; i < requests_.size(); ++i) {
    streams_[i]->reset(spec_.requests[i].prompt);
    stamps_[i].clear();
  }
  pr::TrafficOptions opts = spec_.opts;
  opts.threads = threads;
  opts.telemetry = telemetry;

  ServingPass pass;
  const protea::util::Stopwatch watch;
  pass.results = engine_.run(requests_, opts);
  pass.wall_s = watch.seconds();
  pass.stats = engine_.last_run();
  pass.digest = digest_results(pass.results);
  pass.stats_key = stats_key(pass.stats);
  for (size_t i = 0; i < pass.results.size(); ++i) {
    const pr::TrafficResult& r = pass.results[i];
    if (!finished(r.outcome)) continue;
    pass.tokens += spec_.requests[i].prompt.size() + r.steps;
    const std::vector<uint64_t>& s = stamps_[i];
    for (size_t k = 1; k < s.size(); ++k) {
      pass.itl_ms.push_back(static_cast<double>(s[k] - s[k - 1]) * 1e-6);
    }
  }
  return pass;
}

uint64_t ServingWorkload::check_against_solo(const ServingPass& pass,
                                             uint64_t* checked) {
  std::vector<size_t> picked;
  for (size_t i = 0; i < pass.results.size(); i += spec_.check_stride) {
    if (finished(pass.results[i].outcome)) picked.push_back(i);
  }
  // Solo references: one request at a time, private dense caches, the
  // same KV storage format — the unconstrained bits.
  std::vector<std::unique_ptr<pr::TokenStream>> streams;
  std::vector<pr::GenerationRequest> gens;
  for (const size_t i : picked) {
    streams.push_back(make_stream(i));
    pr::GenerationRequest g = requests_[i].gen;
    g.next_token = streams.back()->callback();
    gens.push_back(std::move(g));
  }
  pr::GenerationScheduler solo(model_.acfg, model_.qd);
  pr::GenerationSchedulerOptions solo_opts;
  solo_opts.slots = 1;
  solo_opts.kv_block_rows = 0;
  solo_opts.kv_storage = spec_.opts.kv_storage;
  const auto reference = solo.run(gens, solo_opts);

  uint64_t mismatches = 0;
  for (size_t k = 0; k < picked.size(); ++k) {
    const pr::TrafficResult& got = pass.results[picked[k]];
    const pr::GenerationResult& want = reference[k];
    const bool same = got.steps == want.steps &&
                      got.states.rows() == want.states.rows() &&
                      got.states.cols() == want.states.cols() &&
                      std::memcmp(got.states.flat().data(),
                                  want.states.flat().data(),
                                  got.states.flat().size() * sizeof(float)) ==
                          0;
    if (!same) {
      std::printf("OUTPUT MISMATCH: request %zu differs from its solo "
                  "reference\n",
                  picked[k]);
      ++mismatches;
    }
  }
  *checked = picked.size();
  return mismatches;
}

Outcomes ServingWorkload::outcomes(const ServingPass& pass) const {
  Outcomes o;
  for (const pr::TrafficResult& r : pass.results) {
    ++o.sent;
    switch (r.outcome) {
      case pr::TrafficOutcome::kCompleted: ++o.completed; break;
      case pr::TrafficOutcome::kCompletedLate: ++o.late; break;
      case pr::TrafficOutcome::kShedOverload:
      case pr::TrafficOutcome::kShedDeadline:
      case pr::TrafficOutcome::kShedCapacity: ++o.shed; break;
      case pr::TrafficOutcome::kCancelled: ++o.cancelled; break;
      default: ++o.failed; break;
    }
  }
  return o;
}

uint64_t ServingWorkload::sim_cycles(const ServingPass& pass) const {
  protea::accel::GenerationCosting costing;
  costing.prefill_chunk = static_cast<uint32_t>(spec_.opts.prefill_chunk);
  costing.kv_storage = spec_.opts.kv_storage;
  uint64_t cycles = 0;
  for (size_t i = 0; i < pass.results.size(); ++i) {
    const pr::TrafficResult& r = pass.results[i];
    if (!finished(r.outcome)) continue;
    const auto prompt = static_cast<uint32_t>(spec_.requests[i].prompt.size());
    cycles += protea::accel::estimate_generation_performance(
                  model_.acfg, model_.cfg, prompt, prompt + r.steps,
                  spec_.memory_rows, costing)
                  .total_cycles;
  }
  return cycles;
}

// --- encoder workload -------------------------------------------------------------

EncoderWorkload::EncoderWorkload(uint64_t seed, bool tiny)
    : tiny_(tiny),
      sched_(protea::accel::AccelConfig{}, encoder_model(seed, tiny)) {
  for (uint32_t i = 0; i < kBatch; ++i) {
    inputs_.push_back(protea::ref::make_random_input(
        sched_.model().config, derive_seed(seed, kEncoderInputs) + i));
  }
}

pr::BatchOptions encoder_batch_options(size_t threads) {
  // The paper's strict two-stage overlap: one MHA and one FFN module.
  pr::BatchOptions opts;
  opts.threads = threads;
  opts.mha_slots = 1;
  opts.ffn_slots = 1;
  return opts;
}

EncoderWorkload::Pass EncoderWorkload::run_pass(size_t threads) {
  Pass pass;
  const protea::util::Stopwatch watch;
  pass.outputs = sched_.run_batched(inputs_, encoder_batch_options(threads));
  pass.wall_s = watch.seconds();
  pass.digest = fnv1a(nullptr, 0);
  for (const pt::MatrixF& out : pass.outputs) {
    pass.digest = fnv1a(out.flat().data(), out.flat().size() * sizeof(float),
                        pass.digest);
  }
  return pass;
}

}  // namespace perfbench

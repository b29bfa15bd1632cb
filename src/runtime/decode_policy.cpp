#include "runtime/decode_policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "accel/decoder_accelerator.hpp"
#include "util/cpu_features.hpp"
#include "util/math_util.hpp"

#ifdef PROTEA_LOGITS_AVX2
#include <immintrin.h>
#endif

namespace protea::runtime {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

}  // namespace

// --- DecodePolicy / VocabModel ----------------------------------------------

void DecodePolicy::validate(size_t vocab) const {
  if (vocab == 0) {
    throw std::invalid_argument("DecodePolicy: empty vocabulary");
  }
  if (!(temperature > 0.0f)) {
    throw std::invalid_argument("DecodePolicy: temperature must be > 0");
  }
  if (!(top_p > 0.0f) || top_p > 1.0f) {
    throw std::invalid_argument("DecodePolicy: top_p must be in (0, 1]");
  }
  if (!(repetition_penalty > 0.0f)) {
    throw std::invalid_argument(
        "DecodePolicy: repetition_penalty must be > 0");
  }
  if (top_k > vocab) {
    throw std::invalid_argument("DecodePolicy: top_k exceeds vocabulary");
  }
  if (eos_token >= static_cast<int64_t>(vocab)) {
    throw std::invalid_argument("DecodePolicy: eos_token out of range");
  }
}

void VocabModel::validate(size_t d_model) const {
  if (head == nullptr || embed == nullptr) {
    throw std::invalid_argument("VocabModel: head/embed missing");
  }
  if (head->rows() == 0 || head->rows() != embed->rows()) {
    throw std::invalid_argument("VocabModel: head/embed row mismatch");
  }
  if (head->cols() != d_model || embed->cols() != d_model) {
    throw std::invalid_argument("VocabModel: width != d_model");
  }
}

// --- free helpers ------------------------------------------------------------

namespace detail {

namespace {

/// Rows [v0, head.rows()) of the LM head, one double chain per row in
/// column order.
void project_rows_scalar(const tensor::MatrixF& head,
                         std::span<const float> state,
                         std::span<float> logits, size_t v0) {
  for (size_t v = v0; v < head.rows(); ++v) {
    double acc = 0.0;
    const auto row = head.row(v);
    for (size_t c = 0; c < row.size(); ++c) {
      acc += static_cast<double>(row[c]) * static_cast<double>(state[c]);
    }
    logits[v] = static_cast<float>(acc);
  }
}

}  // namespace

void project_logits_scalar(const tensor::MatrixF& head,
                           std::span<const float> state,
                           std::span<float> logits) {
  project_rows_scalar(head, state, logits, 0);
}

#ifdef PROTEA_LOGITS_AVX2
// The AVX2 functions are compiled with target("avx2") and never "fma":
// the body performs the scalar chain's own operations (widen, multiply,
// add), so it equals the chain by construction, not by an argument about
// which products happen to be exact in double.

namespace {

/// One step of four rows' chains: four rows x four columns from `r`
/// (rows `cols` apart), transposed so that lane i holds row i, each
/// column widened, multiplied by its broadcast state entry `s[k]` and
/// added, in column order. Per lane these are the scalar chain's steps.
__attribute__((target("avx2"))) inline __m256d head_step(
    __m256d acc, const float* r, size_t cols, const __m256d* s) {
  __m128 t0 = _mm_loadu_ps(r);
  __m128 t1 = _mm_loadu_ps(r + cols);
  __m128 t2 = _mm_loadu_ps(r + 2 * cols);
  __m128 t3 = _mm_loadu_ps(r + 3 * cols);
  _MM_TRANSPOSE4_PS(t0, t1, t2, t3);
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(t0), s[0]));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(t1), s[1]));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(t2), s[2]));
  return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(t3), s[3]));
}

}  // namespace

__attribute__((target("avx2"))) void project_logits_avx2(
    const tensor::MatrixF& head, std::span<const float> state,
    std::span<float> logits) {
  constexpr size_t kRows = 16;  // four groups of 4 rows: four chains
  const size_t vocab = head.rows();
  const size_t cols = head.cols();
  const size_t cols4 = cols - cols % 4;
  size_t v0 = 0;
  for (; v0 + kRows <= vocab; v0 += kRows) {
    const float* rows = head.data() + v0 * cols;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (size_t c = 0; c < cols4; c += 4) {
      const __m256d s[4] = {_mm256_set1_pd(static_cast<double>(state[c])),
                            _mm256_set1_pd(static_cast<double>(state[c + 1])),
                            _mm256_set1_pd(static_cast<double>(state[c + 2])),
                            _mm256_set1_pd(static_cast<double>(state[c + 3]))};
      acc0 = head_step(acc0, rows + c, cols, s);
      acc1 = head_step(acc1, rows + 4 * cols + c, cols, s);
      acc2 = head_step(acc2, rows + 8 * cols + c, cols, s);
      acc3 = head_step(acc3, rows + 12 * cols + c, cols, s);
    }
    alignas(32) double acc[kRows];
    _mm256_store_pd(acc, acc0);
    _mm256_store_pd(acc + 4, acc1);
    _mm256_store_pd(acc + 8, acc2);
    _mm256_store_pd(acc + 12, acc3);
    for (size_t i = 0; i < kRows; ++i) {  // the last cols % 4 columns
      const float* row = rows + i * cols;
      for (size_t c = cols4; c < cols; ++c) {
        acc[i] += static_cast<double>(row[c]) * static_cast<double>(state[c]);
      }
      logits[v0 + i] = static_cast<float>(acc[i]);
    }
  }
  project_rows_scalar(head, state, logits, v0);
}
#endif

}  // namespace detail

void project_logits(const tensor::MatrixF& head,
                    std::span<const float> state,
                    std::span<float> logits) {
  if (state.size() != head.cols() || logits.size() != head.rows()) {
    throw std::invalid_argument("project_logits: shape mismatch");
  }
#ifdef PROTEA_LOGITS_AVX2
  if (util::cpu_has_avx2()) {
    detail::project_logits_avx2(head, state, logits);
    return;
  }
#endif
  detail::project_logits_scalar(head, state, logits);
}

void log_softmax_inplace(std::span<float> logits) {
  float max_l = kNegInf;
  for (float l : logits) max_l = std::max(max_l, l);
  if (max_l == kNegInf) return;  // everything masked: leave as-is
  double sum = 0.0;
  for (float l : logits) {
    if (l != kNegInf) sum += std::exp(static_cast<double>(l - max_l));
  }
  const float log_z = max_l + static_cast<float>(std::log(sum));
  for (float& l : logits) {
    if (l != kNegInf) l -= log_z;
  }
}

uint32_t argmax_logit(std::span<const float> logits) {
  if (logits.empty()) {
    throw std::invalid_argument("argmax_logit: empty logits");
  }
  uint32_t best = 0;
  for (uint32_t v = 1; v < logits.size(); ++v) {
    if (logits[v] > logits[best]) best = v;
  }
  return best;
}

// --- LogitsProcessor ---------------------------------------------------------

LogitsProcessor::LogitsProcessor(const DecodePolicy& policy, size_t vocab)
    : policy_(policy), vocab_(vocab) {
  policy.validate(vocab);
  order_.resize(vocab);
  probs_.resize(vocab);
}

void LogitsProcessor::process(std::span<float> logits,
                              std::span<const uint32_t> history) {
  if (logits.size() != vocab_) {
    throw std::invalid_argument("LogitsProcessor: vocab size mismatch");
  }
  // CTRL-style repetition penalty, applied once per distinct history
  // token: positive logits divide, negative multiply (both demote).
  if (policy_.repetition_penalty != 1.0f && !history.empty()) {
    for (uint32_t t : history) {
      if (t >= vocab_) {
        throw std::invalid_argument(
            "LogitsProcessor: history token out of range");
      }
      order_[t] = 0;  // reuse the index scratch as a seen marker
    }
    // Two passes keep the penalty idempotent for repeated tokens.
    for (uint32_t t : history) {
      if (order_[t] != 0) continue;
      order_[t] = 1;
      float& l = logits[t];
      l = l > 0.0f ? l / policy_.repetition_penalty
                   : l * policy_.repetition_penalty;
    }
  }
  if (policy_.temperature != 1.0f) {
    for (float& l : logits) {
      if (l != kNegInf) l /= policy_.temperature;
    }
  }
  const auto by_logit_desc = [&](uint32_t a, uint32_t b) {
    if (logits[a] != logits[b]) return logits[a] > logits[b];
    return a < b;  // deterministic ties
  };
  if (policy_.top_k > 0 && policy_.top_k < vocab_) {
    for (uint32_t v = 0; v < vocab_; ++v) order_[v] = v;
    std::nth_element(order_.begin(), order_.begin() + policy_.top_k - 1,
                     order_.end(), by_logit_desc);
    for (size_t i = policy_.top_k; i < vocab_; ++i) {
      logits[order_[i]] = kNegInf;
    }
  }
  if (policy_.top_p < 1.0f) {
    // Nucleus: keep the smallest probability-sorted prefix whose mass
    // reaches top_p (always at least the argmax).
    for (uint32_t v = 0; v < vocab_; ++v) order_[v] = v;
    std::sort(order_.begin(), order_.end(), by_logit_desc);
    double sum = 0.0;
    const double max_l = logits[order_[0]];
    if (logits[order_[0]] == kNegInf) return;  // everything masked already
    for (uint32_t v = 0; v < vocab_; ++v) {
      probs_[v] = logits[v] == kNegInf
                      ? 0.0
                      : std::exp(static_cast<double>(logits[v]) - max_l);
      sum += probs_[v];
    }
    double mass = 0.0;
    size_t kept = 0;
    while (kept < vocab_) {
      const uint32_t v = order_[kept];
      if (probs_[v] == 0.0) break;
      mass += probs_[v] / sum;
      ++kept;
      if (mass >= static_cast<double>(policy_.top_p)) break;
    }
    for (size_t i = kept; i < vocab_; ++i) logits[order_[i]] = kNegInf;
  }
}

// --- TokenStream -------------------------------------------------------------

TokenStream::TokenStream(const DecodePolicy& policy,
                         const VocabModel& vocab, size_t max_tokens)
    : policy_(policy),
      vocab_(vocab),
      processor_(policy, vocab.vocab_size()),
      rng_(policy.seed) {
  if (vocab.head == nullptr || vocab.embed == nullptr ||
      vocab.head->rows() != vocab.embed->rows() ||
      vocab.head->cols() != vocab.embed->cols()) {
    throw std::invalid_argument("TokenStream: inconsistent vocab model");
  }
  logits_.resize(vocab.vocab_size());
  tokens_.reserve(max_tokens);
  history_.reserve(2 * max_tokens);
}

void TokenStream::reset(std::span<const uint32_t> prompt_tokens) {
  tokens_.clear();
  history_.clear();
  for (uint32_t t : prompt_tokens) {
    if (t >= vocab_.vocab_size()) {
      throw std::invalid_argument("TokenStream: prompt token out of range");
    }
    history_.push_back(t);
  }
  rng_ = util::Xoshiro256(policy_.seed);
}

bool TokenStream::next_token(std::span<const float> state,
                             tensor::MatrixF& next) {
  project_logits(*vocab_.head, state, logits_);
  processor_.process(logits_, history_);

  uint32_t token = 0;
  if (!policy_.sample) {
    token = argmax_logit(logits_);
  } else {
    // Seeded CDF walk over the processed distribution (double softmax).
    float max_l = kNegInf;
    for (float l : logits_) max_l = std::max(max_l, l);
    double sum = 0.0;
    for (float l : logits_) {
      if (l != kNegInf) sum += std::exp(static_cast<double>(l - max_l));
    }
    const double r = rng_.next_double() * sum;
    double acc = 0.0;
    token = 0;
    bool picked = false;
    for (uint32_t v = 0; v < logits_.size(); ++v) {
      if (logits_[v] == kNegInf) continue;
      acc += std::exp(static_cast<double>(logits_[v] - max_l));
      token = v;  // last unmasked token backstops rounding
      if (r < acc) {
        picked = true;
        break;
      }
    }
    (void)picked;
  }

  tokens_.push_back(token);
  history_.push_back(token);
  if (policy_.eos_token >= 0 &&
      token == static_cast<uint32_t>(policy_.eos_token)) {
    return false;
  }
  const size_t d = vocab_.embed->cols();
  if (next.rows() != 1 || next.cols() != d) {
    next = tensor::MatrixF(1, d);
  }
  std::copy(vocab_.embed->row(token).begin(),
            vocab_.embed->row(token).end(), next.row(0).begin());
  return true;
}

std::function<bool(std::span<const float>, tensor::MatrixF&)>
TokenStream::callback() {
  return [this](std::span<const float> state, tensor::MatrixF& next) {
    return next_token(state, next);
  };
}

// --- beam search -------------------------------------------------------------

void BeamSearchOptions::validate() const {
  if (beam_width == 0) {
    throw std::invalid_argument("BeamSearchOptions: zero beam width");
  }
  if (max_new_tokens == 0) {
    throw std::invalid_argument("BeamSearchOptions: zero max_new_tokens");
  }
  if (kv_block_rows == 0) {
    throw std::invalid_argument("BeamSearchOptions: zero kv_block_rows");
  }
  if (length_penalty < 0.0f) {
    throw std::invalid_argument(
        "BeamSearchOptions: negative length_penalty");
  }
}

size_t beam_worst_case_blocks(size_t prompt_rows, size_t max_new_tokens,
                              size_t beam_width, size_t block_rows,
                              bool cow) {
  if (prompt_rows == 0 || max_new_tokens == 0 || beam_width == 0 ||
      block_rows == 0) {
    throw std::invalid_argument("beam_worst_case_blocks: zero argument");
  }
  // The last selected token's embedding is never appended, so K beams
  // emitting max_new tokens cache prompt + max_new - 1 rows each.
  const size_t new_rows = max_new_tokens - 1;
  if (cow) {
    // COW: the prompt lineage once, plus each beam's private worst case
    // — the forked-KV memory model's own count.
    return accel::forked_kv_blocks(static_cast<uint32_t>(prompt_rows),
                                   static_cast<uint32_t>(new_rows),
                                   static_cast<uint32_t>(beam_width),
                                   static_cast<uint32_t>(block_rows))
        .cow_blocks;
  }
  // Eager forks: two generations of K private lineages are live while
  // the next generation is copied off the current one.
  return 2 * beam_width * util::ceil_div(prompt_rows + new_rows, block_rows);
}

namespace {

/// Validates the decoder's arguments before any member is built from
/// them.
const BeamSearchOptions& checked(const BeamSearchOptions& options,
                                 const accel::QuantizedDecoder& model,
                                 const VocabModel& vocab) {
  options.validate();
  vocab.validate(model.config.d_model);
  options.logits.validate(vocab.vocab_size());
  if (options.beam_width > vocab.vocab_size()) {
    throw std::invalid_argument(
        "BeamSearchDecoder: beam width exceeds the vocabulary");
  }
  return options;
}

}  // namespace

BeamSearchDecoder::BeamSearchDecoder(const accel::AccelConfig& config,
                                     const accel::QuantizedDecoder& model,
                                     const VocabModel& vocab,
                                     const BeamSearchOptions& options)
    : config_(&config),
      model_(&model),
      vocab_(&vocab),
      options_(checked(options, model, vocab)),
      processor_(options_.logits, vocab.vocab_size()) {
  const size_t vsize = vocab.vocab_size();
  const size_t k = options_.beam_width;
  const size_t d = model.config.d_model;

  // Sized at the decoder's own worst case over any prompt/max_new split
  // (a full lineage is ceil(seq_len / br)), so a run never runs short.
  const size_t full =
      util::ceil_div(size_t{model.config.seq_len}, options_.kv_block_rows);
  pool_.configure(options_.cow ? (k + 1) * full : 2 * k * full,
                  options_.kv_block_rows,
                  accel::kv_row_bytes(model.config, numeric::KvStorage::kInt8));

  GenerationOptions session_opts;
  session_opts.kv_block_rows = options_.kv_block_rows;
  session_opts.kv_pool = &pool_;
  cur_sessions_.reserve(k);
  next_sessions_.reserve(k);
  for (size_t j = 0; j < k; ++j) {
    cur_sessions_.push_back(std::make_unique<GenerationSession>(
        config, model, nullptr, session_opts));
    next_sessions_.push_back(std::make_unique<GenerationSession>(
        config, model, nullptr, session_opts));
  }

  const size_t max_len = size_t{model.config.seq_len} + 1;
  const auto reserve_beam = [&](Beam& b) {
    b.tokens.reserve(max_len);
    b.history.reserve(2 * max_len);
  };
  cur_beams_.resize(k);
  next_beams_.resize(k);
  for (size_t j = 0; j < k; ++j) {
    reserve_beam(cur_beams_[j]);
    reserve_beam(next_beams_[j]);
  }
  logits_ = tensor::MatrixF(k, vsize);
  token_embeds_.resize(k);
  states_.resize(k);
  for (size_t j = 0; j < k; ++j) {
    token_embeds_[j] = tensor::MatrixF(1, d);
    states_[j] = tensor::MatrixF(1, d);
  }
  cand_order_.reserve(k * vsize);
  cand_scores_.resize(k * vsize);
  moved_from_.resize(k);
  finished_.resize(k);
  for (BeamHypothesis& h : finished_) h.tokens.reserve(max_len);
}

BeamSearchDecoder::~BeamSearchDecoder() = default;

double BeamSearchDecoder::length_norm(size_t len) const {
  if (options_.length_penalty == 0.0f) return 1.0;
  return std::pow((5.0 + static_cast<double>(len)) / 6.0,
                  static_cast<double>(options_.length_penalty));
}

void BeamSearchDecoder::step_beam(size_t j) {
  Beam& beam = cur_beams_[j];
  std::copy(vocab_->embed->row(beam.pending).begin(),
            vocab_->embed->row(beam.pending).end(),
            token_embeds_[j].row(0).begin());
  cur_sessions_[j]->decode_step(token_embeds_[j], states_[j]);
  auto logits = logits_.row(j);
  project_logits(*vocab_->head, states_[j].row(0), logits);
  processor_.process(logits, beam.history);
  log_softmax_inplace(logits);
}

void BeamSearchDecoder::offer_finished(const Beam& beam, uint32_t token,
                                       double sum) {
  const size_t len = beam.tokens.size() + 1;
  const double score = sum / length_norm(len);
  size_t slot;
  if (finished_count_ < finished_.size()) {
    slot = finished_count_++;
  } else {
    slot = 0;  // replace the worst kept hypothesis if we beat it
    for (size_t i = 1; i < finished_count_; ++i) {
      if (finished_[i].score < finished_[slot].score) slot = i;
    }
    if (finished_[slot].score >= score) return;
  }
  BeamHypothesis& h = finished_[slot];
  h.tokens = beam.tokens;
  h.tokens.push_back(token);
  h.sum_logprob = sum;
  h.score = score;
  h.finished = true;
}

void BeamSearchDecoder::release_all() {
  for (auto& s : cur_sessions_) s->end_sequence();
  for (auto& s : next_sessions_) s->end_sequence();
}

std::vector<BeamHypothesis> BeamSearchDecoder::generate(
    std::span<const uint32_t> prompt_tokens,
    const tensor::MatrixF& memory) {
  const size_t k = options_.beam_width;
  const size_t vsize = vocab_->vocab_size();
  const size_t capacity = cur_sessions_[0]->capacity();
  if (prompt_tokens.empty()) {
    throw std::invalid_argument("BeamSearchDecoder: empty prompt");
  }
  if (prompt_tokens.size() + options_.max_new_tokens > capacity + 1) {
    throw std::invalid_argument(
        "BeamSearchDecoder: prompt + max_new_tokens exceeds seq_len + 1");
  }
  for (uint32_t t : prompt_tokens) {
    if (t >= vsize) {
      throw std::invalid_argument(
          "BeamSearchDecoder: prompt token out of range");
    }
  }
  const size_t d = model_->config.d_model;
  tensor::MatrixF prompt(prompt_tokens.size(), d);
  for (size_t r = 0; r < prompt_tokens.size(); ++r) {
    std::copy(vocab_->embed->row(prompt_tokens[r]).begin(),
              vocab_->embed->row(prompt_tokens[r]).end(),
              prompt.row(r).begin());
  }

  last_run_ = BeamSearchStats{};
  const uint64_t cow_before = pool_.cow_copies();
  uint64_t macs_before = 0;
  for (auto& s : cur_sessions_) macs_before += s->stats().macs;
  for (auto& s : next_sessions_) macs_before += s->stats().macs;

  const size_t worst = beam_worst_case_blocks(
      prompt_tokens.size(), options_.max_new_tokens, k,
      options_.kv_block_rows, options_.cow);
  last_run_.worst_case_blocks = worst;
  // The group's unique-block high-water mark, held to the worst case.
  // Blocks return to the pool only in each round's retire loop and at
  // teardown, so occupancy peaks after the seeding forks and just before
  // each retire loop: sampling there is exact.
  const auto note_peak = [&] {
    const size_t held = pool_.used_blocks();
    if (held > worst) {
      throw std::logic_error(
          "BeamSearchDecoder: group exceeds its worst-case block bound");
    }
    last_run_.kv_blocks_peak = std::max(last_run_.kv_blocks_peak, held);
  };
  // On any exit — return or unwind — every block goes back to the pool,
  // so the next run starts on an empty one.
  struct GroupScope {
    BeamSearchDecoder& d;
    ~GroupScope() { d.release_all(); }
  } group_scope{*this};

  finished_count_ = 0;
  live_ = 0;

  // One prefill; every beam forks off this prefix.
  tensor::MatrixF prefill_states;
  cur_sessions_[0]->prefill(prompt, memory, prefill_states);

  // Seed the K beams from the prefill's last state.
  {
    auto logits = logits_.row(0);
    cur_beams_[0].history.assign(prompt_tokens.begin(),
                                 prompt_tokens.end());
    project_logits(*vocab_->head, prefill_states.row(prompt.rows() - 1),
                   logits);
    processor_.process(logits, cur_beams_[0].history);
    log_softmax_inplace(logits);
    cand_order_.clear();
    for (uint32_t v = 0; v < vsize; ++v) cand_order_.push_back(v);
    // The seeding scan consumes at most K live picks + one EOS offer,
    // so ranking the top K+1 suffices.
    const auto seed_mid =
        cand_order_.begin() + std::min<size_t>(k + 1, cand_order_.size());
    std::partial_sort(cand_order_.begin(), seed_mid, cand_order_.end(),
                      [&](uint64_t a, uint64_t b) {
                        if (logits[a] != logits[b]) {
                          return logits[a] > logits[b];
                        }
                        return a < b;
                      });
    Beam seed;  // history template for finished offers at rank 0
    seed.tokens.clear();
    seed.history.assign(prompt_tokens.begin(), prompt_tokens.end());
    for (size_t rank = 0; rank < vsize && live_ < k; ++rank) {
      const uint32_t v = static_cast<uint32_t>(cand_order_[rank]);
      const double lp = logits[v];
      if (lp == -std::numeric_limits<double>::infinity()) break;
      if (options_.logits.eos_token >= 0 &&
          v == static_cast<uint32_t>(options_.logits.eos_token)) {
        offer_finished(seed, v, lp);
        continue;
      }
      const size_t j = live_++;
      if (j > 0) {
        cur_sessions_[j]->fork_from(*cur_sessions_[0], !options_.cow);
        ++last_run_.forks;
      }
      Beam& beam = cur_beams_[j];
      beam.pending = v;
      beam.sum_logprob = lp;
      beam.tokens.clear();
      beam.tokens.push_back(v);
      beam.history.assign(prompt_tokens.begin(), prompt_tokens.end());
      beam.history.push_back(v);
    }
  }
  note_peak();

  // --- fork / step / select loop (steady state: no heap allocations) -------
  uint32_t generated = 1;
  while (live_ > 0 && generated < options_.max_new_tokens) {
    for (size_t j = 0; j < live_; ++j) step_beam(j);
    last_run_.decode_steps += live_;

    // Deterministic candidate ranking over live x vocab.
    cand_order_.clear();
    for (size_t j = 0; j < live_; ++j) {
      for (uint32_t v = 0; v < vsize; ++v) {
        const uint64_t flat = j * vsize + v;
        cand_scores_[flat] =
            cur_beams_[j].sum_logprob + static_cast<double>(logits_(j, v));
        cand_order_.push_back(flat);
      }
    }
    // The selection scan consumes at most K survivors + K EOS offers
    // (EOS is one token id, so each live beam contributes at most one),
    // so only the true top 2K candidates are ever read — partial_sort
    // keeps per-token selection near-linear in live x vocab instead of
    // paying a full sort.
    const auto mid =
        cand_order_.begin() + std::min<size_t>(2 * k, cand_order_.size());
    std::partial_sort(cand_order_.begin(), mid, cand_order_.end(),
                      [&](uint64_t a, uint64_t b) {
                        if (cand_scores_[a] != cand_scores_[b]) {
                          return cand_scores_[a] > cand_scores_[b];
                        }
                        return a < b;
                      });

    size_t new_live = 0;
    std::fill(moved_from_.begin(), moved_from_.end(), SIZE_MAX);
    for (size_t rank = 0; rank < cand_order_.size() && new_live < k;
         ++rank) {
      const uint64_t flat = cand_order_[rank];
      const size_t j = flat / vsize;
      const uint32_t v = static_cast<uint32_t>(flat % vsize);
      const double sum = cand_scores_[flat];
      if (sum == -std::numeric_limits<double>::infinity()) break;
      if (options_.logits.eos_token >= 0 &&
          v == static_cast<uint32_t>(options_.logits.eos_token)) {
        offer_finished(cur_beams_[j], v, sum);
        continue;
      }
      // Survivor. The FIRST survivor of a source beam ADOPTS its
      // session outright (pointer swap — no fork, no cross-K/V copy):
      // the common top-beam-continues case costs nothing. Only
      // additional survivors of the same source fork the cache.
      if (moved_from_[j] == SIZE_MAX) {
        std::swap(next_sessions_[new_live], cur_sessions_[j]);
        moved_from_[j] = new_live;
      } else {
        next_sessions_[new_live]->fork_from(
            *next_sessions_[moved_from_[j]], !options_.cow);
        ++last_run_.forks;
      }
      Beam& dst = next_beams_[new_live];
      const Beam& src = cur_beams_[j];
      dst.pending = v;
      dst.sum_logprob = sum;
      dst.tokens = src.tokens;
      dst.tokens.push_back(v);
      dst.history = src.history;
      dst.history.push_back(v);
      ++new_live;
    }
    note_peak();
    // Unclaimed sources retire; adopted sessions' old slots now hold
    // the (empty) swapped-out sessions, for which this is a no-op.
    for (size_t j = 0; j < live_; ++j) cur_sessions_[j]->end_sequence();
    std::swap(cur_sessions_, next_sessions_);
    std::swap(cur_beams_, next_beams_);
    live_ = new_live;
    ++generated;
  }

  // --- finalize --------------------------------------------------------------
  std::vector<BeamHypothesis> out;
  out.reserve(finished_count_ + live_);
  for (size_t i = 0; i < finished_count_; ++i) {
    out.push_back(finished_[i]);
  }
  for (size_t j = 0; j < live_; ++j) {
    const Beam& beam = cur_beams_[j];
    BeamHypothesis h;
    h.tokens = beam.tokens;
    h.sum_logprob = beam.sum_logprob;
    h.score = beam.sum_logprob / length_norm(beam.tokens.size());
    h.finished = false;
    out.push_back(std::move(h));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const BeamHypothesis& a, const BeamHypothesis& b) {
                     return a.score > b.score;
                   });
  if (out.size() > k) out.resize(k);

  last_run_.cow_copies = pool_.cow_copies() - cow_before;
  uint64_t macs_after = 0;
  for (auto& s : cur_sessions_) macs_after += s->stats().macs;
  for (auto& s : next_sessions_) macs_after += s->stats().macs;
  last_run_.macs = macs_after - macs_before;
  return out;
}

}  // namespace protea::runtime

// Decode-policy subsystem: logits post-processing + token selection on
// top of the vocabulary-free generation engine.
//
// The generation layer (runtime/generation.hpp) deliberately knows
// nothing about vocabularies: requests carry a next_token callback from
// output states to input embeddings. This subsystem supplies the policy
// side of that contract:
//
//   * LogitsProcessor — the standard serving-stack logits pipeline:
//     repetition penalty (over the emitted history), temperature,
//     top-k and nucleus (top-p) masking. Pure in-place float math with
//     preallocated scratch; masked entries become -inf.
//   * TokenStream — per-request policy state (processor scratch, a
//     seeded util::Xoshiro256, the token history) that turns a (V x d)
//     vocab head + (V x d) embedding table into a
//     GenerationRequest::next_token callback: greedy argmax or seeded
//     stochastic sampling, reproducible for any scheduler interleaving
//     because the RNG is per-request.
//   * BeamSearchDecoder — width-K beam search with length-normalized
//     (GNMT) scoring, built on copy-on-write KV forking: ONE prefill of
//     the prompt, then every beam (and every per-step re-fork of the
//     survivors) adopts the prefix block table by refcount
//     (KvCache::fork_from) — K beams at near-1x prompt footprint, with
//     the first divergent append per block paying the one copy.
//     Admission reserves the group's COW-aware worst-case block count
//     as a KvPoolCredit, so beam groups apply backpressure against a
//     shared pool without ever waiting mid-decode (deadlock-free:
//     a group waits only at admission, holding nothing).
//     After admission the stepped (threads = 1) decode loop performs
//     zero heap allocations; threads > 1 steps live beams on a worker
//     pool, bit-identical to stepped because selection is a
//     deterministic reduction over per-beam logits.
//
// The vocab head and embedding table are caller-owned float stand-ins
// (as in the benches); their projections run off-accelerator and are
// not part of the engines' MAC accounting.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "runtime/generation.hpp"
#include "runtime/kv_cache.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace protea::runtime {

/// Logits shaping + selection knobs. Defaults are a no-op pipeline with
/// greedy selection.
struct DecodePolicy {
  /// Divides logits before masking; must be > 0. Values < 1 sharpen,
  /// > 1 flatten.
  float temperature = 1.0f;
  /// Keep only the k largest logits (0 = off).
  uint32_t top_k = 0;
  /// Nucleus sampling: keep the smallest prefix of the probability-sorted
  /// vocabulary whose mass reaches top_p (1 = off).
  float top_p = 1.0f;
  /// CTRL-style repetition penalty over the emitted history (> 1 demotes
  /// repeats; 1 = off).
  float repetition_penalty = 1.0f;
  /// false = greedy argmax; true = sample from the processed
  /// distribution with the stream's seeded RNG.
  bool sample = false;
  uint64_t seed = 0;
  /// Emitting this token finishes the stream / hypothesis (< 0 = none).
  int64_t eos_token = -1;

  void validate(size_t vocab) const;
};

/// Caller-owned float stand-ins for the output projection and the input
/// embedding table (both V x d_model), the same shapes the benches use.
struct VocabModel {
  const tensor::MatrixF* head = nullptr;
  const tensor::MatrixF* embed = nullptr;

  size_t vocab_size() const { return head != nullptr ? head->rows() : 0; }
  void validate(size_t d_model) const;
};

/// logits[v] = head.row(v) . state (double accumulation, float store).
void project_logits(const tensor::MatrixF& head,
                    std::span<const float> state, std::span<float> logits);

/// In-place log-softmax (double accumulation; -inf entries stay -inf).
void log_softmax_inplace(std::span<float> logits);

/// Greedy selection; the lowest index wins ties, so results are
/// reproducible across platforms.
uint32_t argmax_logit(std::span<const float> logits);

/// Applies repetition penalty -> temperature -> top-k -> top-p in place.
/// Scratch is preallocated at the vocab size, so process() never touches
/// the heap.
class LogitsProcessor {
 public:
  LogitsProcessor(const DecodePolicy& policy, size_t vocab);

  void process(std::span<float> logits,
               std::span<const uint32_t> history);

 private:
  DecodePolicy policy_;
  size_t vocab_;
  std::vector<uint32_t> order_;  // index scratch for top-k / top-p
  std::vector<double> probs_;    // nucleus mass scratch
};

/// Per-request decode-policy state, shaped to plug straight into
/// GenerationRequest::next_token — the engine and its schedulers stay
/// untouched and vocabulary-free. Greedy and sampled streams emit
/// identical tokens for any slot/thread/chunk interleaving because all
/// policy state (RNG, history) lives here, per request.
class TokenStream {
 public:
  /// `max_tokens` sizes the history/token storage so steady-state
  /// selection never allocates.
  TokenStream(const DecodePolicy& policy, const VocabModel& vocab,
              size_t max_tokens);

  /// Starts a fresh stream; `prompt_tokens` seeds the repetition-penalty
  /// history (prompt embeddings themselves are the caller's business).
  void reset(std::span<const uint32_t> prompt_tokens = {});

  /// GenerationRequest::next_token contract: selects the next token from
  /// `state`, writes its embedding into `next` (1 x d) and returns false
  /// when the policy's EOS was emitted.
  bool next_token(std::span<const float> state, tensor::MatrixF& next);

  /// Binds this stream as a GenerationRequest callback (the stream must
  /// outlive the request).
  std::function<bool(std::span<const float>, tensor::MatrixF&)> callback();

  /// Tokens emitted since the last reset (EOS included).
  const std::vector<uint32_t>& tokens() const { return tokens_; }

 private:
  DecodePolicy policy_;
  VocabModel vocab_;
  LogitsProcessor processor_;
  util::Xoshiro256 rng_;
  std::vector<float> logits_;
  std::vector<uint32_t> tokens_;
  std::vector<uint32_t> history_;  // prompt + emitted, for the penalty
};

// --- beam search on copy-on-write KV forking --------------------------------

struct BeamSearchOptions {
  uint32_t beam_width = 4;
  uint32_t max_new_tokens = 1;
  /// GNMT length normalization exponent alpha: hypotheses are ranked by
  /// sum_logprob / ((5 + len) / 6)^alpha. 0 disables normalization.
  float length_penalty = 0.6f;
  /// Logits shaping applied before scoring (temperature, top-k/p
  /// masking, repetition penalty over each beam's own history).
  /// `sample`/`seed` are ignored — beam expansion is exhaustive over the
  /// unmasked vocabulary; `eos_token` finishes a hypothesis.
  DecodePolicy logits;
  /// true: forks adopt the parent block table by refcount (COW). false:
  /// every fork eagerly copies all blocks — the bit-exact reference mode
  /// the COW path is verified against.
  bool cow = true;
  /// 1 = deterministic stepped loop (zero steady-state allocations);
  /// > 1 steps live beams on that many workers, bit-identical to stepped.
  size_t threads = 1;
  /// Self-K/V tokens per block (must be paged: forking needs the block
  /// table).
  size_t kv_block_rows = 16;
  /// Shared pool to serve the beam group from (admission reserves the
  /// COW-aware worst case against it); nullptr gives the decoder a
  /// private pool sized at its own worst case.
  KvBlockPool* kv_pool = nullptr;
  /// Cooperative group-preemption hook for traffic schedulers: called
  /// before each selection round with the number of tokens selected so
  /// far. Returning true preempts the WHOLE group as a unit — every
  /// session's blocks AND the admission credit go back to the pool —
  /// then restores it bit-exactly (one prompt re-prefill, re-fork, and
  /// per-beam replay of the committed tokens) under a fresh credit at
  /// the same worst-case bound. Hypotheses are identical to an
  /// unpreempted run.
  std::function<bool(uint32_t generated)> preempt_point;
  /// Fires between release and restore, while the group holds NOTHING
  /// (used by tests to assert the pool drained, and by schedulers to run
  /// higher-priority work).
  std::function<void()> on_preempted;

  void validate() const;
};

struct BeamHypothesis {
  std::vector<uint32_t> tokens;  // generated tokens, EOS included
  double sum_logprob = 0.0;
  double score = 0.0;  // length-normalized
  bool finished = false;  // ended on EOS (vs ran out of budget)
};

struct BeamSearchStats {
  /// COW-aware worst-case unique blocks reserved at admission.
  size_t worst_case_blocks = 0;
  /// Peak unique blocks the group actually held (credit accounting) —
  /// the executed sharing win: compare against beam_width x a dense
  /// lineage.
  size_t kv_blocks_peak = 0;
  uint64_t cow_copies = 0;   // write-triggered block copies this run
  uint64_t forks = 0;        // cache forks (initial spread + re-forks)
  uint64_t decode_steps = 0; // per-beam engine steps
  uint64_t credit_waits = 0; // admission had to wait for pool headroom
  uint64_t macs = 0;         // engine MACs summed over the group
  uint64_t group_preemptions = 0;  // preempt_point evictions this run
  uint64_t replayed_rows = 0;      // rows re-run by group restores
};

/// COW-aware worst-case unique-block bound for a width-K group decoding
/// `max_new_tokens` off a `prompt_rows`-row prefill: the shared prompt
/// lineage counts ONCE, plus each beam's worst-case divergent tail
/// (its blocks past the last fully-shared block, including the COW copy
/// of the straddling block). With cow = false the bound is the eager
/// one: two generations of K private lineages (double-buffered
/// re-forking). This is the reserve-at-admission number — a group that
/// reserves it never waits (and never throws) mid-decode.
size_t beam_worst_case_blocks(size_t prompt_rows, size_t max_new_tokens,
                              size_t beam_width, size_t block_rows,
                              bool cow);

/// Width-K beam search driver over 2K forked GenerationSessions (K live
/// + K re-fork targets). Construction warms the sessions; generate()
/// performs admission (credit reservation), one prefill, and the
/// fork/step/select loop. Reusable across calls.
class BeamSearchDecoder {
 public:
  /// `config`, `model` and `vocab` (and options.kv_pool, when given)
  /// must outlive the decoder.
  BeamSearchDecoder(const accel::AccelConfig& config,
                    const accel::QuantizedDecoder& model,
                    const VocabModel& vocab,
                    const BeamSearchOptions& options);
  ~BeamSearchDecoder();
  BeamSearchDecoder(const BeamSearchDecoder&) = delete;
  BeamSearchDecoder& operator=(const BeamSearchDecoder&) = delete;

  /// Runs beam search for `prompt_tokens` (embedded through the vocab
  /// table) against `memory`; returns at most beam_width hypotheses,
  /// best score first. Deterministic for any `threads` setting.
  std::vector<BeamHypothesis> generate(
      std::span<const uint32_t> prompt_tokens,
      const tensor::MatrixF& memory);

  const BeamSearchStats& last_run() const { return last_run_; }
  const KvBlockPool& pool() const { return *pool_; }
  const BeamSearchOptions& options() const { return options_; }

 private:
  struct Beam {
    uint32_t pending = 0;  // selected token, decoded next step
    double sum_logprob = 0.0;
    std::vector<uint32_t> tokens;
    std::vector<uint32_t> history;  // prompt + tokens (penalty window)
  };

  double length_norm(size_t len) const;
  void step_beam(size_t j);
  void offer_finished(const Beam& beam, uint32_t token, double sum);
  void release_all();
  /// options_.preempt_point fired: evict the whole group (blocks +
  /// credit), notify, re-admit and rebuild it bit-exactly.
  void preempt_restore_group(const tensor::MatrixF& prompt,
                             const tensor::MatrixF& memory,
                             KvCreditLease& lease);

  const accel::AccelConfig* config_;
  const accel::QuantizedDecoder* model_;
  const VocabModel* vocab_;
  BeamSearchOptions options_;
  KvBlockPool* pool_ = nullptr;
  std::unique_ptr<KvBlockPool> owned_pool_;
  std::vector<std::unique_ptr<GenerationSession>> cur_sessions_;
  std::vector<std::unique_ptr<GenerationSession>> next_sessions_;
  std::vector<Beam> cur_beams_, next_beams_;
  size_t live_ = 0;
  std::vector<LogitsProcessor> processors_;  // one per beam (threaded)
  tensor::MatrixF logits_;                   // (K x V) per-beam scratch
  std::vector<tensor::MatrixF> token_embeds_;  // (1 x d) per beam
  std::vector<tensor::MatrixF> states_;        // (1 x d) per beam
  std::vector<uint64_t> cand_order_;   // flat (beam, token) candidates
  std::vector<double> cand_scores_;
  std::vector<size_t> moved_from_;  // source beam -> adopting next slot
  std::vector<BeamHypothesis> finished_;  // best-K finished, preallocated
  size_t finished_count_ = 0;
  std::unique_ptr<util::ThreadPool> workers_;
  BeamSearchStats last_run_;
};

}  // namespace protea::runtime

// The benchmark's four workloads: three traffic mixes served by the
// TrafficEngine on one small decoder, and the paper's encoder batch on
// the BatchScheduler. Everything a timed pass needs is built once in the
// constructors (that is what setup_s measures); a pass only resets the
// per-request token streams and stamps and serves the request set again.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "accel/accel_config.hpp"
#include "accel/decoder_model.hpp"
#include "accel/quantized_model.hpp"
#include "ref/model_config.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/decode_policy.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/traffic.hpp"
#include "tensor/matrix.hpp"

namespace perfbench {

namespace pr = protea::runtime;
namespace pt = protea::tensor;

/// Table I Test 5's published latency (the paper's reference point).
inline constexpr double kPaperTest5Ms = 93.0;

/// d=256, h=4, L=2, max target 128, 32-row encoder memories, plus a
/// float vocabulary (head + embedding table) for greedy token selection.
struct DecoderModel {
  protea::ref::ModelConfig cfg;
  protea::accel::AccelConfig acfg;
  protea::accel::QuantizedDecoder qd;
  pt::MatrixF head, embed;
  pr::VocabModel vocab;

  DecoderModel(uint64_t seed, bool tiny);
  pt::MatrixF embed_rows(std::span<const uint32_t> tokens) const;
};

/// One request of a serving workload, as pure shape: token ids, which
/// memory it attends to, its SLO envelope and its virtual arrival round.
struct RequestSpec {
  std::vector<uint32_t> prompt;
  uint32_t max_new = 1;
  uint32_t memory = 0;
  pr::TrafficPriority priority = pr::TrafficPriority::kStandard;
  uint32_t arrival_round = 0;
  uint32_t deadline_rounds = 0;
};

struct ServingSpec {
  std::string name;
  pr::TrafficOptions opts;  // threads is set per pass
  std::vector<RequestSpec> requests;
  size_t memories = 1;
  uint32_t memory_rows = 32;
  /// Every check_stride-th request is checked against its solo reference.
  size_t check_stride = 1;

  uint64_t prompt_rows() const {
    uint64_t rows = 0;
    for (const RequestSpec& r : requests) rows += r.prompt.size();
    return rows;
  }
};

bool is_serving_workload(const std::string& name);
ServingSpec make_serving_spec(const std::string& name, uint64_t seed,
                              bool tiny, const DecoderModel& model);

/// Completed, on time or late (the requests whose work finished).
bool finished(pr::TrafficOutcome o);

/// Request counts by terminal outcome.
struct Outcomes {
  uint64_t sent = 0, completed = 0, late = 0, shed = 0, cancelled = 0,
           failed = 0;
};

struct ServingPass {
  std::vector<pr::TrafficResult> results;
  pr::SchedulerStats stats;
  double wall_s = 0.0;
  uint64_t digest = 0;       // outcomes, step counts and output bits
  std::string stats_key;     // every SchedulerStats field but wall_ms
  uint64_t tokens = 0;       // prompt + output rows of finished requests
  std::vector<double> itl_ms;  // gaps between next_token callbacks
};

class ServingWorkload {
 public:
  ServingWorkload(const std::string& name, uint64_t seed, bool tiny);
  // Requests hold pointers into the memories, streams and stamps.
  ServingWorkload(const ServingWorkload&) = delete;
  ServingWorkload& operator=(const ServingWorkload&) = delete;

  /// Serves the whole request set once. `telemetry` (optional) is set on
  /// the engine's options, the only hook the traffic engine offers.
  ServingPass run_pass(size_t threads, pr::Telemetry* telemetry = nullptr);

  /// Compares every completed, check_stride-selected request of `pass`
  /// bit for bit with a solo run on a dense-layout cache with the same KV
  /// storage; returns the number of mismatches and counts the checks.
  uint64_t check_against_solo(const ServingPass& pass, uint64_t* checked);

  Outcomes outcomes(const ServingPass& pass) const;

  /// ProTEA cycle-model cycles of the pass's completed work.
  uint64_t sim_cycles(const ServingPass& pass) const;

  const DecoderModel& model() const { return model_; }
  const ServingSpec& spec() const { return spec_; }
  const std::vector<pt::MatrixF>& memories() const { return memories_; }
  const std::vector<pr::TrafficRequest>& requests() const { return requests_; }

  /// A fresh greedy token stream for request `i` (replays in the traced
  /// run use the same selection as the engine's callbacks).
  std::unique_ptr<pr::TokenStream> make_stream(size_t i) const;

 private:
  DecoderModel model_;
  ServingSpec spec_;
  std::vector<pt::MatrixF> memories_;
  std::vector<pr::TrafficRequest> requests_;
  std::vector<std::unique_ptr<pr::TokenStream>> streams_;
  std::vector<std::vector<uint64_t>> stamps_;
  pr::TrafficEngine engine_;
};

/// Table I Test 5 (SL=64, d=768, h=8, N=4, GELU) in closed-loop batches
/// of four on the BatchScheduler's strict two-stage overlap.
class EncoderWorkload {
 public:
  static constexpr uint32_t kBatch = 4;

  EncoderWorkload(uint64_t seed, bool tiny);

  struct Pass {
    std::vector<pt::MatrixF> outputs;
    double wall_s = 0.0;
    uint64_t digest = 0;
  };
  Pass run_pass(size_t threads);

  const protea::ref::ModelConfig& cfg() const { return sched_.model().config; }
  pr::BatchScheduler& scheduler() { return sched_; }
  const std::vector<pt::MatrixF>& inputs() const { return inputs_; }
  bool paper_shape() const { return !tiny_; }

 private:
  bool tiny_;
  pr::BatchScheduler sched_;
  std::vector<pt::MatrixF> inputs_;
};

pr::BatchOptions encoder_batch_options(size_t threads);

}  // namespace perfbench

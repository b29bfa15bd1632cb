// Tests for the analytic performance model — including the reproduction
// targets: Table I latencies, Fig. 7's tile-size optimum, and the
// scaling laws the paper's runtime-programmability experiments exhibit.
#include <gtest/gtest.h>

#include <cmath>

#include "accel/perf_model.hpp"
#include "hw/frequency_model.hpp"
#include "hw/resource_model.hpp"
#include "ref/model_zoo.hpp"

namespace protea::accel {
namespace {

AccelConfig paper_config() { return AccelConfig{}; }

PerfReport run(const ref::ModelConfig& model,
               AccelConfig cfg = paper_config()) {
  return estimate_performance(cfg, model);
}

// --- Table I reproduction ----------------------------------------------------
// Paper values: Tests 1..9 latency in ms. Test 9 (SL=32) is the one row
// the structural model underestimates (paper 165, structural ~139 — the
// paper's own SL-scaling is anomalous there; see README.md, "Calibration
// notes"), so its tolerance is wider.

struct Table1Row {
  size_t index;
  double paper_latency_ms;
  double tolerance;  // relative
};

class Table1 : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1, LatencyMatchesPaper) {
  const Table1Row row = GetParam();
  const auto tests = ref::table1_tests();
  ASSERT_LT(row.index, tests.size());
  const PerfReport report = run(tests[row.index]);
  EXPECT_NEAR(report.latency_ms, row.paper_latency_ms,
              row.paper_latency_ms * row.tolerance)
      << tests[row.index].name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1,
    ::testing::Values(Table1Row{0, 279.0, 0.02},   // 8 heads
                      Table1Row{1, 285.0, 0.02},   // 4 heads
                      Table1Row{2, 295.0, 0.02},   // 2 heads
                      Table1Row{3, 186.0, 0.02},   // 8 layers
                      Table1Row{4, 93.0, 0.02},    // 4 layers
                      Table1Row{5, 186.0, 0.02},   // d=512
                      Table1Row{6, 95.0, 0.03},    // d=256
                      Table1Row{7, 560.0, 0.02},   // SL=128
                      Table1Row{8, 165.0, 0.16})); // SL=32 (paper anomaly)

TEST(Table1Shape, FrequencyIs200MHzThroughout) {
  for (const auto& t : ref::table1_tests()) {
    EXPECT_DOUBLE_EQ(run(t).fmax_mhz, 200.0);
  }
}

TEST(Table1Shape, FewerHeadsSlightlySlower) {
  const auto tests = ref::table1_tests();
  const double l8 = run(tests[0]).latency_ms;
  const double l4 = run(tests[1]).latency_ms;
  const double l2 = run(tests[2]).latency_ms;
  EXPECT_LT(l8, l4);
  EXPECT_LT(l4, l2);
  // The effect is mild because the FFN dominates (paper: 279->285->295).
  EXPECT_LT(l2 / l8, 1.10);
}

TEST(Table1Shape, LatencyLinearInLayers) {
  ref::ModelConfig m = ref::bert_variant();
  const double l12 = run(m).latency_ms;
  m.num_layers = 6;
  const double l6 = run(m).latency_ms;
  EXPECT_NEAR(l12 / l6, 2.0, 1e-9);
}

TEST(Table1Shape, LatencyLinearInSeqLenForDominantStages) {
  ref::ModelConfig m = ref::bert_variant();
  const double l64 = run(m).latency_ms;
  m.seq_len = 128;
  const double l128 = run(m).latency_ms;
  // Paper: 560/279 = 2.007 (slightly superlinear via the SL^2 softmax).
  EXPECT_GT(l128 / l64, 1.98);
  EXPECT_LT(l128 / l64, 2.1);
}

TEST(Table1Shape, GopsDropsWithSmallerDModel) {
  // Paper: GOPS 53 -> 36 -> 18 as d_model shrinks 768 -> 512 -> 256:
  // compute shrinks ~quadratically but the frozen row-tile loops keep
  // latency from shrinking as fast.
  const auto tests = ref::table1_tests();
  const double g768 = run(tests[0]).gops;
  const double g512 = run(tests[5]).gops;
  const double g256 = run(tests[6]).gops;
  EXPECT_GT(g768, g512);
  EXPECT_GT(g512, g256);
  EXPECT_NEAR(g512 / g768, 36.0 / 53.0, 0.08);
  EXPECT_NEAR(g256 / g768, 18.0 / 53.0, 0.08);
}

TEST(Table1Shape, ResourceUsageIndependentOfRuntimeProgram) {
  // Table I: one synthesis, nine programs, identical resources. The perf
  // model touches only timing; resources come from SynthParams alone.
  const AccelConfig cfg = paper_config();
  const auto r1 = hw::estimate_resources(cfg.synth);
  for (const auto& t : ref::table1_tests()) {
    run(t, cfg);  // must not throw
    const auto r2 = hw::estimate_resources(cfg.synth);
    EXPECT_EQ(r1.used.dsp, r2.used.dsp);
    EXPECT_EQ(r1.used.lut, r2.used.lut);
  }
}

// --- Fig. 7: tile-size design space ----------------------------------------------

TEST(Fig7, OptimumAtTwelveMhaTilesSixFfnTiles) {
  const ref::ModelConfig bert = ref::bert_variant();
  double best_latency = 1e18;
  uint32_t best_mha_tiles = 0, best_ffn_tiles = 0;
  double best_freq = 0.0;
  for (uint32_t mha_tiles : {6u, 12u, 48u}) {
    for (uint32_t ffn_tiles = 2; ffn_tiles <= 6; ++ffn_tiles) {
      AccelConfig cfg = paper_config();
      cfg.synth.ts_mha = 768 / mha_tiles;
      cfg.synth.ts_ffn =
          static_cast<uint32_t>(std::ceil(768.0 / ffn_tiles));
      const PerfReport r = run(bert, cfg);
      if (r.latency_ms < best_latency) {
        best_latency = r.latency_ms;
        best_mha_tiles = mha_tiles;
        best_ffn_tiles = ffn_tiles;
        best_freq = r.fmax_mhz;
      }
    }
  }
  EXPECT_EQ(best_mha_tiles, 12u);
  EXPECT_EQ(best_ffn_tiles, 6u);
  EXPECT_DOUBLE_EQ(best_freq, 200.0);
}

TEST(Fig7, FrequencyHighestAtPaperPoint) {
  double best_freq = 0.0;
  uint32_t best_mha = 0;
  for (uint32_t mha_tiles : {6u, 12u, 48u}) {
    AccelConfig cfg = paper_config();
    cfg.synth.ts_mha = 768 / mha_tiles;
    const double f = hw::fmax_mhz(cfg.synth);
    if (f > best_freq) {
      best_freq = f;
      best_mha = mha_tiles;
    }
  }
  EXPECT_EQ(best_mha, 12u);
  EXPECT_DOUBLE_EQ(best_freq, 200.0);
}

// --- stage decomposition -----------------------------------------------------------

TEST(Stages, SumToLayerCycles) {
  const PerfReport r = run(ref::bert_variant());
  hw::Cycles sum = 0;
  for (const auto& s : r.stages) sum += s.total;
  EXPECT_EQ(sum, r.layer_cycles);
  EXPECT_EQ(r.total_cycles, r.layer_cycles * 12);
}

TEST(Stages, FfnDominatesBertWorkload) {
  // §III/§IV: "The FFNs ... are the most time- and resource-intensive
  // components."
  const PerfReport r = run(ref::bert_variant());
  const auto ffn = r.stage("ffn1").total + r.stage("ffn2").total +
                   r.stage("ffn3").total;
  const auto mha = r.stage("qkv").total + r.stage("qk").total +
                   r.stage("softmax").total + r.stage("sv").total;
  EXPECT_GT(ffn, 5 * mha);
}

TEST(Stages, InvocationCountsMatchTilingFormulas) {
  const PerfReport r = run(ref::bert_variant());
  EXPECT_EQ(r.stage("qkv").invocations, 12u);    // d/TS_MHA
  EXPECT_EQ(r.stage("ffn1").invocations, 36u);   // 6 x 6
  EXPECT_EQ(r.stage("ffn2").invocations, 144u);  // 6 x 24
  EXPECT_EQ(r.stage("ffn3").invocations, 144u);  // 24 x 6
}

TEST(Stages, UnknownStageNameThrows) {
  const PerfReport r = run(ref::bert_variant());
  EXPECT_THROW(r.stage("nonexistent"), std::out_of_range);
}

// --- padding-policy ablation ----------------------------------------------------------

TEST(PaddingPolicy, AdaptiveFasterForSmallDModel) {
  ref::ModelConfig m = ref::bert_variant();
  m.d_model = 256;
  AccelConfig fixed = paper_config();
  AccelConfig adaptive = paper_config();
  adaptive.padding = PaddingPolicy::kRuntimeAdaptive;
  EXPECT_LT(run(m, adaptive).latency_ms, run(m, fixed).latency_ms);
}

TEST(PaddingPolicy, PoliciesAgreeAtSynthesizedMaximum) {
  const ref::ModelConfig m = ref::bert_variant();  // d = max_d_model
  AccelConfig fixed = paper_config();
  AccelConfig adaptive = paper_config();
  adaptive.padding = PaddingPolicy::kRuntimeAdaptive;
  EXPECT_DOUBLE_EQ(run(m, fixed).latency_ms, run(m, adaptive).latency_ms);
}

// --- load/compute overlap ablation ------------------------------------------------------

TEST(Overlap, DisablingOverlapNeverFaster) {
  for (const auto& name : ref::model_names()) {
    const auto m = ref::find_model(name);
    AccelConfig on = paper_config();
    AccelConfig off = paper_config();
    off.overlap_loads = false;
    EXPECT_GE(run(m, off).total_cycles, run(m, on).total_cycles) << name;
  }
}

TEST(Overlap, ComputeBoundWorkloadBarelyAffected) {
  // With 8 HBM channels the BERT workload is compute-bound; overlap
  // removal costs well under 10%.
  const auto m = ref::bert_variant();
  AccelConfig on = paper_config();
  AccelConfig off = paper_config();
  off.overlap_loads = false;
  const double ratio =
      static_cast<double>(run(m, off).total_cycles) /
      static_cast<double>(run(m, on).total_cycles);
  EXPECT_LT(ratio, 1.10);
}

// --- throughput and utilization metrics ---------------------------------------------------

TEST(Metrics, GopsConsistentWithOpsAndLatency) {
  const PerfReport r = run(ref::bert_variant());
  EXPECT_NEAR(r.gops,
              static_cast<double>(r.ops) / (r.latency_ms * 1e-3) / 1e9,
              1e-9);
}

TEST(Metrics, DspUtilizationInUnitRange) {
  for (const auto& t : ref::table1_tests()) {
    const PerfReport r = run(t);
    EXPECT_GT(r.dsp_utilization, 0.0);
    EXPECT_LT(r.dsp_utilization, 1.0);
  }
}

TEST(Metrics, BytesLoadedScaleWithModel) {
  ref::ModelConfig m = ref::bert_variant();
  const auto big = run(m).bytes_loaded;
  m.num_layers = 6;
  EXPECT_NEAR(static_cast<double>(run(m).bytes_loaded),
              static_cast<double>(big) / 2.0, 1.0);
}

// --- model zoo latencies (Table II ProTEA side) ---------------------------------------------

struct ZooTarget {
  const char* name;
  double paper_ms;
  double tolerance;
};

class ZooLatency : public ::testing::TestWithParam<ZooTarget> {};

TEST_P(ZooLatency, NearPaperReportedProteaLatency) {
  const auto t = GetParam();
  const PerfReport r = run(ref::find_model(t.name));
  EXPECT_NEAR(r.latency_ms, t.paper_ms, t.paper_ms * t.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, ZooLatency,
    ::testing::Values(ZooTarget{"peng21", 4.48, 0.05},
                      ZooTarget{"wojcicki23", 0.425, 0.05},
                      ZooTarget{"efa_trans25", 5.18, 0.05},
                      ZooTarget{"qi28", 9.12, 0.05}));

// --- runtime validation -------------------------------------------------------------------

TEST(Validation, RejectsOversizedPrograms) {
  AccelConfig cfg = paper_config();
  ref::ModelConfig m = ref::bert_variant();
  m.d_model = 1536;
  EXPECT_THROW(run(m, cfg), std::invalid_argument);
  m = ref::bert_variant();
  m.seq_len = 512;
  EXPECT_THROW(run(m, cfg), std::invalid_argument);
  m = ref::bert_variant();
  m.num_heads = 16;
  EXPECT_THROW(run(m, cfg), std::invalid_argument);
}

TEST(Validation, AcceptsAnythingWithinSynthesis) {
  for (const auto& t : ref::table1_tests()) {
    EXPECT_NO_THROW(run(t));
  }
}

}  // namespace
}  // namespace protea::accel

// Tests for the baseline subsystem: the measured CPU encoder, the
// published-results database (Tables II/III data) and the sparsity model.
#include <gtest/gtest.h>

#include "baseline/cpu_encoder.hpp"
#include "baseline/published.hpp"
#include "baseline/sparsity.hpp"
#include "ref/encoder.hpp"
#include "ref/model_zoo.hpp"
#include "tensor/ops.hpp"

namespace protea::baseline {
namespace {

ref::ModelConfig small_config() {
  ref::ModelConfig c;
  c.seq_len = 16;
  c.d_model = 64;
  c.num_heads = 4;
  c.num_layers = 2;
  return c;
}

// --- CPU encoder ----------------------------------------------------------------

TEST(CpuEncoder, MatchesReferenceEncoder) {
  const auto cfg = small_config();
  const auto w = ref::make_random_weights(cfg, 81);
  const auto x = ref::make_random_input(cfg, 82);
  ref::Encoder reference(w);
  CpuEncoder cpu(w, 2);
  EXPECT_LE(tensor::max_abs_diff(cpu.forward(x), reference.forward(x)),
            2e-4f);
}

TEST(CpuEncoder, MatchesReferenceWithRelu) {
  auto cfg = small_config();
  cfg.activation = ref::Activation::kRelu;
  const auto w = ref::make_random_weights(cfg, 83);
  const auto x = ref::make_random_input(cfg, 84);
  ref::Encoder reference(w);
  CpuEncoder cpu(w, 3);
  EXPECT_LE(tensor::max_abs_diff(cpu.forward(x), reference.forward(x)),
            2e-4f);
}

TEST(CpuEncoder, DeterministicAcrossThreadCounts) {
  const auto cfg = small_config();
  const auto w = ref::make_random_weights(cfg, 85);
  const auto x = ref::make_random_input(cfg, 86);
  CpuEncoder one(w, 1);
  CpuEncoder four(w, 4);
  EXPECT_EQ(one.forward(x), four.forward(x));
}

TEST(CpuEncoder, MeasureReturnsPlausibleStats) {
  const auto cfg = small_config();
  const auto w = ref::make_random_weights(cfg, 87);
  const auto x = ref::make_random_input(cfg, 88);
  CpuEncoder cpu(w, 2);
  const CpuMeasurement m = cpu.measure(x, 3, 1);
  EXPECT_EQ(m.repetitions, 3);
  EXPECT_GT(m.mean_ms, 0.0);
  EXPECT_LE(m.min_ms, m.mean_ms);
  EXPECT_GE(m.max_ms, m.mean_ms);
}

// --- published results -------------------------------------------------------------

TEST(Published, Table2HasFiveComparisons) {
  const auto& rows = table2_results();
  ASSERT_EQ(rows.size(), 5u);
  // Row order follows the paper: [21], [23], [25], [28], [29].
  EXPECT_NE(rows[0].citation.find("[21]"), std::string::npos);
  EXPECT_NE(rows[1].citation.find("[23]"), std::string::npos);
  EXPECT_NE(rows[2].citation.find("[25]"), std::string::npos);
  EXPECT_NE(rows[3].citation.find("[28]"), std::string::npos);
  EXPECT_NE(rows[4].citation.find("[29]"), std::string::npos);
}

TEST(Published, Table2ValuesTranscribedFromPaper) {
  const auto& rows = table2_results();
  EXPECT_DOUBLE_EQ(rows[0].latency_ms, 0.32);   // Peng et al.
  EXPECT_DOUBLE_EQ(rows[0].sparsity, 0.90);
  EXPECT_EQ(rows[2].fpga, "ZCU102");            // EFA-Trans
  EXPECT_EQ(rows[2].method, "HDL");
  EXPECT_DOUBLE_EQ(rows[3].latency_ms, 15.8);   // Qi et al.
  EXPECT_DOUBLE_EQ(rows[4].sparsity, 0.93);     // FTRANS
  EXPECT_EQ(rows[4].dsp, 5647u);
}

TEST(Published, Table2ZooNamesResolve) {
  for (const auto& row : table2_results()) {
    EXPECT_NO_THROW(ref::find_model(row.model_zoo_name)) << row.citation;
  }
}

TEST(Published, Table3HasSixPlatformRows) {
  const auto& rows = table3_results();
  ASSERT_EQ(rows.size(), 6u);
  int bases = 0;
  for (const auto& r : rows) bases += r.is_base ? 1 : 0;
  EXPECT_EQ(bases, 4);  // one base platform per model #1..#4
}

TEST(Published, Table3SpeedupsMatchPaperNarrative) {
  // Model #2: ProTEA 2.5x faster than Titan XP; model #4: 16x.
  for (const auto& r : table3_results()) {
    if (r.model_id == "#2") {
      EXPECT_DOUBLE_EQ(r.paper_speedup, 2.5);
      EXPECT_NEAR(r.latency_ms / r.paper_protea_latency_ms, 2.5, 0.01);
    }
    if (r.model_id == "#4") {
      EXPECT_DOUBLE_EQ(r.paper_speedup, 16.0);
      EXPECT_NEAR(r.latency_ms / r.paper_protea_latency_ms, 16.1, 0.05);
    }
  }
}

TEST(Published, Table3ZooNamesResolve) {
  for (const auto& row : table3_results()) {
    EXPECT_NO_THROW(ref::find_model(row.model_zoo_name)) << row.platform;
  }
}

TEST(Published, ProteaHeadline) {
  const auto p = protea_published();
  EXPECT_EQ(p.dsp, 3612u);
  EXPECT_EQ(p.fpga, "Alveo U55C");
}

// --- sparsity model ----------------------------------------------------------------

TEST(Sparsity, PaperExampleNinetyPercent) {
  // "latency would mathematically be reduced to 0.448 ms (4.48 - 4.48*0.9)"
  EXPECT_NEAR(sparsity_adjusted_latency_ms(4.48, 0.90), 0.448, 1e-12);
}

TEST(Sparsity, PaperExampleNinetyThreePercent) {
  // FTRANS compression: 4.48 ms -> 0.31 ms at 93%.
  EXPECT_NEAR(sparsity_adjusted_latency_ms(4.48, 0.93), 0.3136, 1e-9);
}

TEST(Sparsity, ZeroSparsityIsIdentity) {
  EXPECT_DOUBLE_EQ(sparsity_adjusted_latency_ms(7.0, 0.0), 7.0);
}

TEST(Sparsity, RejectsBadInputs) {
  EXPECT_THROW(sparsity_adjusted_latency_ms(1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(sparsity_adjusted_latency_ms(1.0, -0.1),
               std::invalid_argument);
  EXPECT_THROW(sparsity_adjusted_latency_ms(-1.0, 0.5),
               std::invalid_argument);
}

TEST(Sparsity, SpeedupDirection) {
  // "A is X times faster than B": speedup(A, B) = lat_B / lat_A.
  EXPECT_DOUBLE_EQ(speedup(0.425, 1.062), 1.062 / 0.425);
  EXPECT_NEAR(speedup(0.425, 1.062), 2.5, 0.01);  // Table III model #2
  EXPECT_THROW(speedup(0.0, 1.0), std::invalid_argument);
}

TEST(Sparsity, PaperPengComparison) {
  // With 90% sparsity applied, ProTEA at 0.448 ms would be 1.4x slower
  // than Peng et al.'s 0.32 ms.
  const double protea_sparse = sparsity_adjusted_latency_ms(4.48, 0.90);
  EXPECT_NEAR(protea_sparse / 0.32, 1.4, 0.01);
}

TEST(Sparsity, DenseEquivalentGops) {
  EXPECT_DOUBLE_EQ(dense_equivalent_gops(50.0, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(dense_equivalent_gops(50.0, 0.9), 500.0);
  EXPECT_THROW(dense_equivalent_gops(1.0, 1.0), std::invalid_argument);
}

TEST(Sparsity, GopsPerDspMetric) {
  // Table II normalizes GOPS by DSP count, scaled by 1000.
  EXPECT_NEAR(gops_per_dsp_x1000(555.0, 3368), 164.8, 0.1);
  EXPECT_NEAR(gops_per_dsp_x1000(279.0, 1024), 272.5, 0.1);
  EXPECT_THROW(gops_per_dsp_x1000(1.0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace protea::baseline

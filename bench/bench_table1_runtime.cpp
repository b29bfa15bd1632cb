// Regenerates Table I: runtime programmability, resource utilization and
// performance of ProTEA on the Alveo U55C.
//
// One synthesis (TS_MHA=64, TS_FFN=128, 8 head engines, 8-bit fixed),
// nine runtime programs swept over heads / layers / embedding dimension /
// sequence length. Resources are constant by construction; latency and
// GOPS come from the cycle model. The paper's reported values are printed
// alongside for comparison.
#include <cstdio>

#include "bench_common.hpp"
#include "hw/device.hpp"
#include "hw/resource_model.hpp"
#include "ref/model_zoo.hpp"

namespace {

// Table I's published latency / GOPS per test row.
constexpr double kPaperLatencyMs[9] = {279, 285, 295, 186, 93,
                                       186, 95,  560, 165};
constexpr double kPaperGops[9] = {53, 51, 49, 80, 159, 36, 18, 54, 44};

}  // namespace

int main() {
  using namespace protea;

  const accel::AccelConfig cfg;  // the paper's synthesis point
  const auto resources = hw::estimate_resources(cfg.synth);
  const auto& budget = hw::alveo_u55c().budget;

  auto pct = [](uint64_t used, uint64_t total) {
    return bench::fmt(100.0 * hw::utilization(used, total), 0) + "%";
  };
  const std::string dsp_cell =
      std::to_string(resources.used.dsp) + " (" +
      pct(resources.used.dsp, budget.dsp) + ")";
  const std::string lut_cell =
      std::to_string(resources.used.lut) + " (" +
      pct(resources.used.lut, budget.lut) + ")";
  const std::string ff_cell = std::to_string(resources.used.ff) + " (" +
                              pct(resources.used.ff, budget.ff) + ")";

  util::Table table({"Test", "SL", "Emb", "Heads", "Layers", "Format",
                     "DSPs", "LUTs", "FFs", "Latency(ms)", "paper",
                     "GOPS*", "paper"});
  table.set_title(
      "TABLE I — overall results for ProTEA (simulated; one synthesis, "
      "nine runtime programs)\n"
      "GOPS* uses the paper's throughput convention (see README.md, "
      "Calibration notes).");

  util::CsvWriter csv(
      bench::results_dir() + "/table1_runtime.csv",
      {"test", "seq_len", "d_model", "heads", "layers", "dsp", "lut", "ff",
       "latency_ms", "paper_latency_ms", "gops_paper_convention",
       "paper_gops", "gops_ours", "fmax_mhz", "dsp_utilization"});

  const auto tests = ref::table1_tests();
  for (size_t i = 0; i < tests.size(); ++i) {
    const auto& model = tests[i];
    const auto report = accel::estimate_performance(cfg, model);
    const double paper_gops =
        bench::paper_convention_gops(model, report.latency_ms);

    table.row({"#" + std::to_string(i + 1), std::to_string(model.seq_len),
               std::to_string(model.d_model),
               std::to_string(model.num_heads),
               std::to_string(model.num_layers), "8bit fixed", dsp_cell,
               lut_cell, ff_cell, bench::fmt(report.latency_ms, 1),
               bench::fmt(kPaperLatencyMs[i], 0),
               bench::fmt(paper_gops, 0), bench::fmt(kPaperGops[i], 0)});

    csv.row({std::to_string(i + 1), std::to_string(model.seq_len),
             std::to_string(model.d_model), std::to_string(model.num_heads),
             std::to_string(model.num_layers),
             std::to_string(resources.used.dsp),
             std::to_string(resources.used.lut),
             std::to_string(resources.used.ff),
             bench::fmt(report.latency_ms, 3),
             bench::fmt(kPaperLatencyMs[i], 0), bench::fmt(paper_gops, 1),
             bench::fmt(kPaperGops[i], 0), bench::fmt(report.gops, 1),
             bench::fmt(report.fmax_mhz, 0),
             bench::fmt(report.dsp_utilization, 4)});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("CSV written to %s\n", csv.path().c_str());
  std::printf(
      "\nResources are identical across all nine tests — the accelerator "
      "is synthesized once\nand reprogrammed in software, the paper's "
      "central claim.\n");
  return 0;
}

#include "hw/resource_model.hpp"

#include <algorithm>

#include "util/math_util.hpp"

namespace protea::hw {
namespace {

// --- Calibrated linear-model coefficients ---------------------------------
// LUT/FF per DSP-mapped PE (MAC control, operand registers, accumulator
// feedback mux) and per memory bank (address decode, write mux). The fixed
// terms cover the softmax LUT cores, the LN units, AXI masters and the
// control FSMs. Calibrated once so the paper's synthesis point
// (TS_MHA=64, TS_FFN=128, h=8) reproduces Table I's 993107 LUTs /
// 704115 FFs; see README.md "Calibration notes".
constexpr uint64_t kLutPerPe = 177;
constexpr uint64_t kLutPerBank = 80;
constexpr uint64_t kLutSoftmaxPerHead = 8192;
constexpr uint64_t kLutLayerNormUnit = 24576;
constexpr uint64_t kLutAxiAndControl = 25571;

constexpr uint64_t kFfPerPe = 143;
constexpr uint64_t kFfPerBank = 40;
constexpr uint64_t kFfSoftmaxPerHead = 4096;
constexpr uint64_t kFfLayerNormUnit = 12288;
constexpr uint64_t kFfAxiAndControl = 25019;

// Auxiliary DSPs: 2 per head for the softmax scale multiply, 4 per LN
// unit (mean/variance/normalize pipeline), 4 for output requantization.
constexpr uint64_t kDspSoftmaxPerHead = 2;
constexpr uint64_t kDspPerLayerNorm = 4;
constexpr uint64_t kDspRequant = 4;

EngineResources make_engine(std::string name, uint64_t instances,
                            uint64_t pes,
                            const std::vector<BankingPlan>& plans) {
  EngineResources e;
  e.name = std::move(name);
  e.instances = instances;
  e.pes = pes;
  for (const auto& p : plans) {
    e.banks += p.banks;
    e.bram36 += p.bram36_count;
    e.lutram_bytes += p.lutram_bytes;
  }
  return e;
}

}  // namespace

bool ResourceReport::fits(const ResourceBudget& budget) const {
  return used.dsp <= budget.dsp && used.lut <= budget.lut &&
         used.ff <= budget.ff && used.bram36 <= budget.bram36;
}

bool ResourceReport::fits_routable(const ResourceBudget& budget,
                                   double margin) const {
  return used.dsp <= budget.dsp && used.bram36 <= budget.bram36 &&
         static_cast<double>(used.lut) <=
             margin * static_cast<double>(budget.lut) &&
         static_cast<double>(used.ff) <=
             margin * static_cast<double>(budget.ff);
}

ResourceReport estimate_resources(const SynthParams& p) {
  p.validate();
  ResourceReport report;

  const uint64_t word = p.bits / 8;
  const uint64_t dk = p.head_dim_max();
  const uint64_t sl = p.max_seq_len;

  // --- QKV_CE (one per head) ----------------------------------------------
  // PEs: the innermost tile loop is fully unrolled for the three parallel
  // projection streams -> 3*TS_MHA MACs. Buffers: Wq/Wk/Wv tiles
  // (dk x TS_MHA each, TS_MHA parallel reads), X tile (SL x TS_MHA).
  {
    std::vector<BankingPlan> plans;
    for (int i = 0; i < 3; ++i) {
      plans.push_back(plan_banking(dk * p.ts_mha * word, p.ts_mha));
    }
    plans.push_back(plan_banking(sl * p.ts_mha * word, p.ts_mha));
    // Q/K/V output buffers (SL x dk), written once per cycle.
    for (int i = 0; i < 3; ++i) {
      plans.push_back(plan_banking(sl * dk * word, 2));
    }
    report.engines.push_back(
        make_engine("QKV_CE", p.max_heads, 3ull * p.ts_mha, plans));
  }

  // --- QK_CE (one per head) -------------------------------------------------
  // PEs: inner loop over dk fully unrolled. Buffers: Q and K read with dk
  // parallelism; S output (SL x SL).
  {
    std::vector<BankingPlan> plans;
    plans.push_back(plan_banking(sl * dk * word, static_cast<uint32_t>(dk)));
    plans.push_back(plan_banking(sl * dk * word, static_cast<uint32_t>(dk)));
    plans.push_back(plan_banking(sl * sl * word, 2));
    report.engines.push_back(make_engine("QK_CE", p.max_heads, dk, plans));
  }

  // --- SV_CE (one per head) -------------------------------------------------
  // PEs: inner loop over the sequence unrolled by sl_unroll. Buffers: S and
  // V read with sl_unroll parallelism; SV output (SL x dk).
  {
    std::vector<BankingPlan> plans;
    plans.push_back(plan_banking(sl * sl * word, p.sl_unroll));
    plans.push_back(plan_banking(sl * dk * word, p.sl_unroll));
    plans.push_back(plan_banking(sl * dk * word, 2));
    report.engines.push_back(
        make_engine("SV_CE", p.max_heads, p.sl_unroll, plans));
  }

  // --- FFN engines (one each) ------------------------------------------------
  // FFN1/FFN2: TS_FFN PEs; FFN3: 4*TS_FFN PEs (paper §IV-B). Buffers:
  // weight tile (TS_FFN^2), input tile (SL x TS_FFN), accumulators.
  auto ffn_plans = [&](uint64_t parallel) {
    std::vector<BankingPlan> plans;
    plans.push_back(plan_banking(
        static_cast<uint64_t>(p.ts_ffn) * p.ts_ffn * word,
        static_cast<uint32_t>(parallel)));
    plans.push_back(plan_banking(sl * p.ts_ffn * word,
                                 static_cast<uint32_t>(parallel)));
    plans.push_back(plan_banking(sl * p.max_d_model * word, 2));
    return plans;
  };
  report.engines.push_back(
      make_engine("FFN1_CE", 1, p.ts_ffn, ffn_plans(p.ts_ffn)));
  report.engines.push_back(
      make_engine("FFN2_CE", 1, p.ts_ffn, ffn_plans(p.ts_ffn)));
  report.engines.push_back(
      make_engine("FFN3_CE", 1, 4ull * p.ts_ffn, ffn_plans(p.ts_ffn)));

  // --- Totals -----------------------------------------------------------------
  for (const auto& e : report.engines) {
    report.total_pes += e.instances * e.pes;
    report.total_banks += e.instances * e.banks;
    report.used.bram36 += e.instances * e.bram36;
  }
  report.aux_dsp = kDspSoftmaxPerHead * p.max_heads +
                   2 * kDspPerLayerNorm + kDspRequant;

  report.used.dsp = report.total_pes + report.aux_dsp;
  report.used.lut = kLutPerPe * report.total_pes +
                    kLutPerBank * report.total_banks +
                    kLutSoftmaxPerHead * p.max_heads +
                    2 * kLutLayerNormUnit + kLutAxiAndControl;
  report.used.ff = kFfPerPe * report.total_pes +
                   kFfPerBank * report.total_banks +
                   kFfSoftmaxPerHead * p.max_heads +
                   2 * kFfLayerNormUnit + kFfAxiAndControl;
  return report;
}

uint32_t max_heads_fitting(SynthParams params, const Device& device) {
  uint32_t best = 0;
  for (uint32_t h = 1; h <= 64; ++h) {
    if (params.max_d_model % h != 0) continue;
    SynthParams candidate = params;
    candidate.max_heads = h;
    const ResourceReport report = estimate_resources(candidate);
    // Routability margin: the paper stops at 8 heads "to avoid
    // overutilization" even though more heads nominally fit.
    if (report.fits_routable(device.budget)) best = h;
  }
  return best;
}

}  // namespace protea::hw

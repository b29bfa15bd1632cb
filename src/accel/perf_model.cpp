#include "accel/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hw/frequency_model.hpp"
#include "hw/hbm.hpp"
#include "hw/resource_model.hpp"
#include "util/math_util.hpp"

namespace protea::accel {
namespace {

using hw::Cycles;
using util::ceil_div;

}  // namespace

FfnTiling ffn_tiling(const AccelConfig& config,
                     const ref::ModelConfig& model) {
  const hw::SynthParams& sp = config.synth;
  const bool fixed_rows = config.padding == PaddingPolicy::kSynthFixedRows;
  const uint64_t ts_ffn = sp.ts_ffn;
  const uint64_t d = model.d_model;
  const uint64_t f = model.ffn_hidden();
  FfnTiling t;
  t.rows_d = fixed_rows ? sp.tiles_ffn_max() : ceil_div(d, ts_ffn);
  t.rows_f = fixed_rows ? 4ull * sp.tiles_ffn_max() : ceil_div(f, ts_ffn);
  t.cols_d = ceil_div(d, ts_ffn);
  t.cols_f = ceil_div(f, ts_ffn);
  t.row_cycles = hw::pipelined_loop(ts_ffn, hw::achieved_ii(2 * sp.ts_ffn),
                                    config.timing.pipeline_depth);
  return t;
}

const StageTiming& PerfReport::stage(const std::string& name) const {
  for (const auto& s : stages) {
    if (s.name == name) return s;
  }
  throw std::out_of_range("PerfReport: no stage named " + name);
}

PerfReport estimate_performance(const AccelConfig& config,
                                const ref::ModelConfig& model) {
  config.validate();
  validate_runtime(config.synth, model);

  const hw::SynthParams& sp = config.synth;
  const TimingConstants& tc = config.timing;
  const uint64_t sl = model.seq_len;
  const uint64_t d = model.d_model;
  const uint64_t h = model.num_heads;
  const uint64_t dk = d / h;
  const uint64_t word = sp.bits / 8;
  const Cycles depth = tc.pipeline_depth;

  const hw::HbmModel hbm;
  const auto load_cycles = [&](uint64_t bytes) {
    return hbm.load_cycles(bytes, sp.hbm_channels_used);
  };
  const auto tile_latency = [&](uint64_t tiles, Cycles load,
                                Cycles compute) {
    return config.overlap_loads
               ? hw::overlapped_tiles(tiles, load, compute)
               : hw::sequential_tiles(tiles, load, compute);
  };

  PerfReport report;

  // --- QKV_CE (Algorithm 1, Fig. 5 column tiling) ---------------------------
  // All head engines run in parallel; the slowest head bounds the stage.
  // Middle loop over the runtime head dimension, inner unroll ts_mha.
  {
    StageTiming s{.name = "qkv"};
    s.invocations = ceil_div(d, static_cast<uint64_t>(sp.ts_mha));
    const uint32_t ii = hw::achieved_ii(4 * sp.ts_mha);
    const Cycles per_tile =
        sl * hw::pipelined_loop(dk, ii, depth) + tc.tile_control;
    s.compute = s.invocations * per_tile;
    // Per tile, each head streams three (dk x ts) weight tiles plus the
    // shared (SL x ts) input tile; heads load concurrently over the
    // striped HBM channels, so total bytes cross the same interface.
    const uint64_t tile_bytes = h * (3 * dk + sl) * sp.ts_mha * word;
    s.bytes_loaded = s.invocations * tile_bytes;
    s.total = tile_latency(s.invocations, load_cycles(tile_bytes), per_tile);
    report.stages.push_back(s);
  }

  // --- QK_CE (Algorithm 2; operands already on-chip) -------------------------
  {
    StageTiming s{.name = "qk"};
    s.invocations = 1;
    // The inner reduction is unrolled for the synthesized head width; a
    // wider runtime head (fewer active heads) needs multiple passes.
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(dk, static_cast<uint64_t>(sp.head_dim_max())));
    s.compute = sl * hw::pipelined_loop(sl, ii, depth);
    s.total = s.compute;
    report.stages.push_back(s);
  }

  // --- Softmax unit -----------------------------------------------------------
  {
    StageTiming s{.name = "softmax"};
    s.invocations = 1;
    s.compute = sl * (2 * sl + tc.softmax_row_overhead);
    s.total = s.compute;
    report.stages.push_back(s);
  }

  // --- SV_CE (Algorithm 3) ----------------------------------------------------
  {
    StageTiming s{.name = "sv"};
    s.invocations = 1;
    const uint32_t ii = static_cast<uint32_t>(
        ceil_div(sl, static_cast<uint64_t>(sp.sl_unroll)));
    s.compute = sl * hw::pipelined_loop(dk, ii, depth);
    s.total = s.compute;
    report.stages.push_back(s);
  }

  // --- FFN engines (Algorithm 4, Fig. 6 two-dimensional tiling) --------------
  const FfnTiling ft = ffn_tiling(config, model);
  const Cycles per_access = sl * ft.row_cycles + tc.tile_control;
  const uint64_t ffn_tile_bytes = uint64_t{sp.ts_ffn} * sp.ts_ffn * word;

  const auto ffn_stage = [&](const char* name, uint64_t accesses) {
    StageTiming s{.name = name};
    s.invocations = accesses;
    s.compute = accesses * per_access;
    s.bytes_loaded = accesses * ffn_tile_bytes;
    s.total =
        tile_latency(accesses, load_cycles(ffn_tile_bytes), per_access);
    report.stages.push_back(s);
  };
  ffn_stage("ffn1", ft.rows_d * ft.cols_d);  // projection d -> d
  ffn_stage("ffn2", ft.rows_d * ft.cols_f);  // expansion d -> 4d
  ffn_stage("ffn3", ft.rows_f * ft.cols_d);  // contraction 4d -> d

  // --- LayerNorm units (two per layer, fused residual) -----------------------
  {
    StageTiming s{.name = "layernorm"};
    s.invocations = 2;
    const Cycles per_row =
        3 * ceil_div(d, static_cast<uint64_t>(tc.ln_lanes)) +
        tc.ln_row_overhead;
    s.compute = 2 * sl * per_row;
    s.total = s.compute;
    report.stages.push_back(s);
  }

  // --- Roll-up -----------------------------------------------------------------
  for (const auto& s : report.stages) {
    report.layer_cycles += s.total;
    report.bytes_loaded += s.bytes_loaded;
  }
  report.total_cycles = report.layer_cycles * model.num_layers;
  report.bytes_loaded *= model.num_layers;

  report.fmax_mhz = hw::fmax_mhz(sp);
  report.latency_ms = hw::cycles_to_ms(report.total_cycles, report.fmax_mhz);
  report.macs = model.macs_total();
  report.ops = model.ops_total();
  report.gops =
      static_cast<double>(report.ops) / (report.latency_ms * 1e-3) / 1e9;

  const hw::ResourceReport resources = hw::estimate_resources(sp);
  report.dsp_utilization =
      static_cast<double>(report.macs) /
      (static_cast<double>(resources.total_pes) *
       static_cast<double>(report.total_cycles));
  return report;
}

PerfReport estimate_sparse_performance(const AccelConfig& config,
                                       const ref::ModelConfig& model,
                                       const FfnStageOccupancy& occupancy) {
  for (double occ : {occupancy.ffn1, occupancy.ffn2, occupancy.ffn3}) {
    if (!(occ >= 0.0) || occ > 1.0) {
      throw std::invalid_argument(
          "estimate_sparse_performance: occupancy must be in [0, 1]");
    }
  }
  PerfReport dense = estimate_performance(config, model);

  // Scale each FFN stage to its occupied-tile count; MHA, softmax and LN
  // are unaffected (the paper's comparisons prune only weight matrices).
  hw::Cycles layer = 0;
  for (auto& stage : dense.stages) {
    double occ = 1.0;
    if (stage.name == "ffn1") occ = occupancy.ffn1;
    if (stage.name == "ffn2") occ = occupancy.ffn2;
    if (stage.name == "ffn3") occ = occupancy.ffn3;
    if (occ != 1.0) {
      const auto live = static_cast<uint64_t>(
          std::ceil(occ * static_cast<double>(stage.invocations)));
      const hw::Cycles per_access =
          stage.invocations > 0 ? stage.compute / stage.invocations : 0;
      stage.invocations = live;
      stage.compute = live * per_access;
      stage.total = stage.compute;
      stage.bytes_loaded = static_cast<uint64_t>(
          occ * static_cast<double>(stage.bytes_loaded));
    }
    layer += stage.total;
  }
  dense.layer_cycles = layer;
  dense.total_cycles = layer * model.num_layers;
  dense.bytes_loaded = 0;
  for (const auto& stage : dense.stages) {
    dense.bytes_loaded += stage.bytes_loaded;
  }
  dense.bytes_loaded *= model.num_layers;
  dense.latency_ms = hw::cycles_to_ms(dense.total_cycles, dense.fmax_mhz);
  dense.gops =
      static_cast<double>(dense.ops) / (dense.latency_ms * 1e-3) / 1e9;
  return dense;
}

}  // namespace protea::accel

// Google-benchmark microbenchmarks of the functional engine kernels —
// the simulator's own hot paths (useful when scaling the simulator to
// bigger sweeps, and a regression guard on the int8 datapath).
//
// main() additionally emits bench_results/BENCH_engines.json (engine,
// shape, GMAC/s) so engine throughput is tracked across PRs alongside
// BENCH_gemm.json. Every engine runs on one thread; record names keep
// their `_t1` suffix so the series stays continuous.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "accel/engines.hpp"
#include "accel/quantized_model.hpp"
#include "accel/softmax_unit.hpp"
#include "bench_common.hpp"
#include "numeric/quantizer.hpp"
#include "ref/encoder.hpp"
#include "ref/weights.hpp"
#include "runtime/layer_ops.hpp"
#include "runtime/workspace_arena.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace protea;

struct Env {
  ref::ModelConfig config;
  accel::QuantizedModel qmodel;
  tensor::MatrixI8 x;

  explicit Env(uint32_t sl, uint32_t d, uint32_t h) {
    config.seq_len = sl;
    config.d_model = d;
    config.num_heads = h;
    config.num_layers = 1;
    const auto weights = ref::make_random_weights(config, 777);
    const auto input = ref::make_random_input(config, 778);
    qmodel = accel::prepare_model(weights, input);
    numeric::Quantizer q(8, true);
    q.set_scale(qmodel.layers[0].scales.x);
    x = tensor::MatrixI8(sl, d);
    q.quantize(input.flat(), x.flat());
  }
};

Env& env() {
  static Env e(32, 128, 4);
  return e;
}

void BM_QkvEngine(benchmark::State& state) {
  const auto& layer = env().qmodel.layers[0];
  tensor::MatrixI8 q, k, v;
  for (auto _ : state) {
    accel::run_qkv_engine(env().x, layer.heads[0], 64, layer.rq_q,
                          layer.rq_k, layer.rq_v, q, k, v);
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 3 *
                          32 * 128 * 32);
}
BENCHMARK(BM_QkvEngine);

void BM_QkEngine(benchmark::State& state) {
  const auto& layer = env().qmodel.layers[0];
  tensor::MatrixI8 q, k, v, logits;
  accel::run_qkv_engine(env().x, layer.heads[0], 64, layer.rq_q,
                        layer.rq_k, layer.rq_v, q, k, v);
  for (auto _ : state) {
    accel::run_qk_engine(q, k, layer.rq_logit, logits);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32 *
                          32 * 32);
}
BENCHMARK(BM_QkEngine);

void BM_SoftmaxUnit(benchmark::State& state) {
  const auto& layer = env().qmodel.layers[0];
  const accel::SoftmaxUnit unit(layer.scales.logit);
  tensor::MatrixI8 logits(32, 32, 3);
  for (auto _ : state) {
    auto w = unit.run(logits);
    benchmark::DoNotOptimize(w.data());
  }
}
BENCHMARK(BM_SoftmaxUnit);

void BM_FfnEngine(benchmark::State& state) {
  const auto& layer = env().qmodel.layers[0];
  tensor::MatrixI8 out;
  for (auto _ : state) {
    accel::run_ffn_engine(env().x, layer.wo, layer.bo, 128, layer.rq_proj,
                          accel::FfnActivation::kNone, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32 *
                          128 * 128);
}
BENCHMARK(BM_FfnEngine);

// The paper's MHA and FFN modules are the runtime's two encoder stages.
// The context is built outside every timed loop, over one reused
// workspace.
runtime::LayerOpContext stage_context(runtime::WorkspaceArena& ws) {
  return {.ws = ws,
          .ts_mha = 64,
          .ts_ffn = 128,
          .activation = ref::Activation::kGelu};
}

void BM_AttentionModule(benchmark::State& state) {
  const auto& layer = env().qmodel.layers[0];
  runtime::WorkspaceArena ws;
  const runtime::LayerOpContext ctx = stage_context(ws);
  tensor::MatrixI8 concat(env().x.rows(), env().x.cols());
  for (auto _ : state) {
    runtime::run_encoder_mha_stage(ctx, layer, env().x, concat);
    benchmark::DoNotOptimize(concat.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_AttentionModule);

void BM_FfnModule(benchmark::State& state) {
  const auto& layer = env().qmodel.layers[0];
  runtime::WorkspaceArena ws;
  const runtime::LayerOpContext ctx = stage_context(ws);
  tensor::MatrixI8 concat(env().x.rows(), env().x.cols());
  tensor::MatrixI8 out(env().x.rows(), env().x.cols());
  runtime::run_encoder_mha_stage(ctx, layer, env().x, concat);
  for (auto _ : state) {
    runtime::run_encoder_ffn_stage(ctx, layer, concat, env().x, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FfnModule);

// --- BENCH_engines.json ------------------------------------------------------

struct EngineResult {
  std::string engine;
  uint32_t sl, d;
  double ms, gmacs;
};

template <typename Fn>
EngineResult time_engine(const std::string& name, uint32_t sl, uint32_t d,
                         int reps, const Fn& fn) {
  accel::EngineStats warm;
  fn(&warm);  // warm-up; also captures the engine's own MAC count
  util::Stopwatch watch;
  for (int i = 0; i < reps; ++i) {
    accel::EngineStats stats;
    fn(&stats);
  }
  const double ms = watch.milliseconds() / reps;
  const double gmacs =
      static_cast<double>(warm.macs) / (ms * 1e-3) / 1e9;
  return {name, sl, d, ms, gmacs};
}

void emit_bench_engines_json() {
  std::vector<EngineResult> results;
  const auto& layer = env().qmodel.layers[0];

  results.push_back(time_engine(
      "qkv", 32, 128, 50, [&](accel::EngineStats* stats) {
        tensor::MatrixI8 q, k, v;
        accel::run_qkv_engine(env().x, layer.heads[0], 64, layer.rq_q,
                              layer.rq_k, layer.rq_v, q, k, v, stats);
      }));
  results.push_back(time_engine(
      "ffn", 32, 128, 50, [&](accel::EngineStats* stats) {
        tensor::MatrixI8 out;
        accel::run_ffn_engine(env().x, layer.wo, layer.bo, 128, layer.rq_proj,
                              accel::FfnActivation::kNone, 0.0, out, stats);
      }));
  runtime::WorkspaceArena ws;
  const runtime::LayerOpContext ctx = stage_context(ws);
  tensor::MatrixI8 concat(env().x.rows(), env().x.cols());
  results.push_back(time_engine(
      "attention_module", 32, 128, 20, [&](accel::EngineStats* stats) {
        runtime::LayerOpContext counted = ctx;
        counted.stats = stats;
        runtime::run_encoder_mha_stage(counted, layer, env().x, concat);
        benchmark::DoNotOptimize(concat.data());
      }));

  char buf[128];
  std::vector<protea::bench::BenchRecord> records;
  for (const auto& r : results) {
    std::snprintf(buf, sizeof(buf), "%s_sl%u_d%u_t1", r.engine.c_str(), r.sl,
                  r.d);
    records.push_back({buf, "latency", r.ms, "ms"});
    records.push_back({buf, "throughput", r.gmacs, "GMAC/s"});
  }
  protea::bench::write_bench_records("BENCH_engines.json",
                                     "bench_engines_micro", records);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_bench_engines_json();
  return 0;
}

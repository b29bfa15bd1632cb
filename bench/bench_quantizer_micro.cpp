// Google-benchmark microbenchmarks of the quantization substrate and the
// decode step's float LM head.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "numeric/quantizer.hpp"
#include "numeric/requantize.hpp"
#include "runtime/decode_policy.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace protea;

std::vector<float> random_data(size_t n) {
  std::vector<float> data(n);
  util::Xoshiro256 rng(99);
  for (auto& x : data) x = static_cast<float>(rng.normal());
  return data;
}

void BM_Calibrate(benchmark::State& state) {
  const auto data = random_data(static_cast<size_t>(state.range(0)));
  numeric::Quantizer q(8, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.calibrate(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Calibrate)->Arg(4096)->Arg(589824);  // 768x768

void BM_QuantizeInt8(benchmark::State& state) {
  const auto data = random_data(static_cast<size_t>(state.range(0)));
  std::vector<int8_t> out(data.size());
  numeric::Quantizer q(8, true);
  q.calibrate(data);
  for (auto _ : state) {
    q.quantize(data, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeInt8)->Arg(4096)->Arg(589824);

void BM_Requantize(benchmark::State& state) {
  const auto params = numeric::make_requant_params(0.0173);
  int64_t acc = -123456;
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::requantize(acc, params, -128, 127));
    acc += 7919;
    if (acc > 1000000) acc = -1000000;
  }
}
BENCHMARK(BM_Requantize);

void BM_RequantizePow2(benchmark::State& state) {
  int64_t acc = -123456;
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::requantize_pow2(acc, 7, -128, 127));
    acc += 7919;
    if (acc > 1000000) acc = -1000000;
  }
}
BENCHMARK(BM_RequantizePow2);

// BM_Requantize steps one accumulator evenly, so its sign changes twice
// in about 250 calls and a branch on it always predicts. The row
// benchmarks below walk 4096 distinct 64-element rows of accumulators
// with bias (a decode step's QKV write-back shape), pre-generated, whose
// signs a predictor cannot learn.
struct RequantRows {
  static constexpr size_t kRows = 4096;
  static constexpr size_t kCols = 64;
  std::vector<int32_t> acc;
  std::vector<int32_t> bias;
  std::vector<int8_t> out;
  numeric::RequantParams params = numeric::make_requant_params(1.0 / 64);

  RequantRows() : acc(kRows * kCols), bias(kCols), out(kRows * kCols) {
    util::Xoshiro256 rng(7);
    for (int32_t& a : acc) a = static_cast<int32_t>(rng.normal() * 4000.0);
    for (int32_t& b : bias) b = static_cast<int32_t>(rng.normal() * 500.0);
  }
};

/// The per-element write-back: one scalar requantize call per element.
void BM_RequantizeRowsScalar(benchmark::State& state) {
  RequantRows rows;
  for (auto _ : state) {
    for (size_t r = 0; r < RequantRows::kRows; ++r) {
      const int32_t* acc = rows.acc.data() + r * RequantRows::kCols;
      int8_t* out = rows.out.data() + r * RequantRows::kCols;
      for (size_t j = 0; j < RequantRows::kCols; ++j) {
        out[j] = static_cast<int8_t>(numeric::requantize(
            int64_t{acc[j]} + rows.bias[j], rows.params, -128, 127));
      }
    }
    benchmark::DoNotOptimize(rows.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * RequantRows::kRows *
                          RequantRows::kCols);
}
BENCHMARK(BM_RequantizeRowsScalar);

/// The same rows through requantize_row, one call per row.
void BM_RequantizeRow(benchmark::State& state) {
  RequantRows rows;
  for (auto _ : state) {
    for (size_t r = 0; r < RequantRows::kRows; ++r) {
      const size_t at = r * RequantRows::kCols;
      numeric::requantize_row(
          std::span(rows.acc).subspan(at, RequantRows::kCols),
          rows.bias.data(), rows.params,
          std::span(rows.out).subspan(at, RequantRows::kCols));
    }
    benchmark::DoNotOptimize(rows.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * RequantRows::kRows *
                          RequantRows::kCols);
}
BENCHMARK(BM_RequantizeRow);

/// The LM head at the serving decoder's shape: vocab 128, d_model 256.
template <void (*Body)(const tensor::MatrixF&, std::span<const float>,
                       std::span<float>)>
void BM_LogitsHead(benchmark::State& state) {
  const size_t vocab = 128;
  const size_t cols = 256;
  tensor::MatrixF head(vocab, cols);
  util::Xoshiro256 rng(11);
  for (float& x : head.flat()) x = static_cast<float>(rng.normal());
  std::vector<float> hidden(cols);
  for (float& x : hidden) x = static_cast<float>(rng.normal());
  std::vector<float> logits(vocab);
  for (auto _ : state) {
    Body(head, hidden, logits);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * vocab * cols);
}
/// project_logits as the decode step calls it (the body the CPU picks).
void BM_ProjectLogits(benchmark::State& state) {
  BM_LogitsHead<runtime::project_logits>(state);
}
BENCHMARK(BM_ProjectLogits);
/// The scalar body, one row's chain at a time.
void BM_ProjectLogitsScalar(benchmark::State& state) {
  BM_LogitsHead<runtime::detail::project_logits_scalar>(state);
}
BENCHMARK(BM_ProjectLogitsScalar);

}  // namespace

BENCHMARK_MAIN();

#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "tensor/gemm_detail.hpp"

namespace protea::tensor {
namespace {

void check_same_shape(const MatrixF& a, const MatrixF& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch");
  }
}

}  // namespace

// The float GEMMs instantiate the packed-kernel machinery in
// tensor/gemm_detail.hpp. Per-element accumulation runs in a single
// ascending-k chain, so rounding is independent of row partitioning —
// threaded results match serial ones.

MatrixF matmul(const MatrixF& a, const MatrixF& b, util::ThreadPool* pool) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("matmul: inner dimension mismatch");
  }
  MatrixF c;
  detail::gemm_driver<float, float, float>(
      a, b.cols(), c, pool, [&](size_t k0, size_t kc, float* dst) {
        detail::pack_b_block(b, k0, kc, b.cols(), dst);
      });
  return c;
}

MatrixF matmul_bt(const MatrixF& a, const MatrixF& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_bt: inner dimension mismatch");
  }
  MatrixF c;
  detail::gemm_driver<float, float, float>(
      a, b.rows(), c, nullptr, [&](size_t k0, size_t kc, float* dst) {
        detail::pack_bt_block(b, k0, kc, b.rows(), dst);
      });
  return c;
}

MatrixF matmul_bias(const MatrixF& a, const MatrixF& b,
                    std::span<const float> bias, util::ThreadPool* pool) {
  MatrixF c = matmul(a, b, pool);
  add_bias_inplace(c, bias);
  return c;
}

MatrixF transpose(const MatrixF& a) {
  constexpr size_t kBlock = 32;
  MatrixF t(a.cols(), a.rows());
  for (size_t r0 = 0; r0 < a.rows(); r0 += kBlock) {
    const size_t r1 = std::min(a.rows(), r0 + kBlock);
    for (size_t c0 = 0; c0 < a.cols(); c0 += kBlock) {
      const size_t c1 = std::min(a.cols(), c0 + kBlock);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) t(c, r) = a(r, c);
      }
    }
  }
  return t;
}

MatrixF add(const MatrixF& a, const MatrixF& b) {
  check_same_shape(a, b, "add");
  MatrixF c(a.rows(), a.cols());
  for (size_t i = 0; i < a.size(); ++i) c.flat()[i] = a.flat()[i] + b.flat()[i];
  return c;
}

void add_bias_inplace(MatrixF& a, std::span<const float> bias) {
  if (bias.size() != a.cols()) {
    throw std::invalid_argument("add_bias_inplace: bias length mismatch");
  }
  for (size_t r = 0; r < a.rows(); ++r) {
    auto row = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) row[c] += bias[c];
  }
}

void scale_inplace(MatrixF& a, float s) {
  for (float& x : a.flat()) x *= s;
}

void softmax_rows_inplace(MatrixF& a) {
  for (size_t r = 0; r < a.rows(); ++r) {
    auto row = a.row(r);
    const float max_x = *std::max_element(row.begin(), row.end());
    float sum = 0.0f;
    for (float& x : row) {
      x = std::exp(x - max_x);
      sum += x;
    }
    const float inv = 1.0f / sum;
    for (float& x : row) x *= inv;
  }
}

void layer_norm_rows_inplace(MatrixF& a, std::span<const float> gamma,
                             std::span<const float> beta, float eps) {
  if (gamma.size() != a.cols() || beta.size() != a.cols()) {
    throw std::invalid_argument("layer_norm: gamma/beta length mismatch");
  }
  for (size_t r = 0; r < a.rows(); ++r) {
    auto row = a.row(r);
    double mean = 0.0;
    for (float x : row) mean += x;
    mean /= static_cast<double>(row.size());
    double var = 0.0;
    for (float x : row) {
      const double d = static_cast<double>(x) - mean;
      var += d * d;
    }
    var /= static_cast<double>(row.size());
    const double inv_std = 1.0 / std::sqrt(var + static_cast<double>(eps));
    for (size_t c = 0; c < row.size(); ++c) {
      const double norm = (static_cast<double>(row[c]) - mean) * inv_std;
      row[c] = static_cast<float>(norm) * gamma[c] + beta[c];
    }
  }
}

void relu_inplace(MatrixF& a) {
  for (float& x : a.flat()) x = std::max(0.0f, x);
}

void gelu_inplace(MatrixF& a) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  for (float& x : a.flat()) {
    const float inner = kSqrt2OverPi * (x + 0.044715f * x * x * x);
    x = 0.5f * x * (1.0f + std::tanh(inner));
  }
}

float max_abs_diff(const MatrixF& a, const MatrixF& b) {
  check_same_shape(a, b, "max_abs_diff");
  float max_d = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    max_d = std::max(max_d, std::abs(a.flat()[i] - b.flat()[i]));
  }
  return max_d;
}

float rms_diff(const MatrixF& a, const MatrixF& b) {
  check_same_shape(a, b, "rms_diff");
  if (a.size() == 0) return 0.0f;
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a.flat()[i]) -
                     static_cast<double>(b.flat()[i]);
    sum += d * d;
  }
  return static_cast<float>(std::sqrt(sum / static_cast<double>(a.size())));
}

}  // namespace protea::tensor

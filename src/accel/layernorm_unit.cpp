#include "accel/layernorm_unit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numeric/quantizer.hpp"

namespace protea::accel {

void run_layernorm(std::span<const float> gamma, std::span<const float> beta,
                   float eps, tensor::ConstMatrixViewI8 x, double s_x,
                   tensor::ConstMatrixViewI8 r, double s_r, double s_out,
                   tensor::MatrixViewI8 out, std::span<int32_t> scratch) {
  if (gamma.size() != beta.size() || gamma.empty()) {
    throw std::invalid_argument("run_layernorm: bad gamma/beta");
  }
  if (x.rows() != r.rows() || x.cols() != r.cols()) {
    throw std::invalid_argument("run_layernorm: operand shape mismatch");
  }
  if (x.cols() != gamma.size()) {
    throw std::invalid_argument("run_layernorm: width mismatch");
  }
  if (out.rows() != x.rows() || out.cols() != x.cols()) {
    throw std::invalid_argument("run_layernorm: output shape mismatch");
  }
  if (scratch.size() < x.cols()) {
    throw std::invalid_argument("run_layernorm: scratch too small");
  }

  // Align both operands to the finer of the two power-of-two scales with
  // exact integer shifts: z = x << sh_x + r << sh_r at scale s_c.
  const double s_c = std::min(s_x, s_r);
  const auto sh_x = static_cast<int>(std::lround(std::log2(s_x / s_c)));
  const auto sh_r = static_cast<int>(std::lround(std::log2(s_r / s_c)));
  if (std::exp2(sh_x) * s_c != s_x || std::exp2(sh_r) * s_c != s_r) {
    throw std::invalid_argument(
        "run_layernorm: scales must be power-of-two multiples");
  }

  const size_t cols = x.cols();
  int32_t* z = scratch.data();
  for (size_t row = 0; row < x.rows(); ++row) {
    // Pass 1: aligned residual sum and integer mean (rounded).
    int64_t total = 0;
    for (size_t c = 0; c < cols; ++c) {
      z[c] = (int32_t{x(row, c)} << sh_x) + (int32_t{r(row, c)} << sh_r);
      total += z[c];
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(cols);
    // Pass 2: variance in the integer domain.
    double var = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      const double d = static_cast<double>(z[c]) - mean;
      var += d * d;
    }
    var /= static_cast<double>(cols);
    // Scale to real units: z_real = z * s_c.
    const double inv_std =
        1.0 / std::sqrt(var * s_c * s_c + static_cast<double>(eps));
    // Pass 3: normalize, affine, quantize.
    for (size_t c = 0; c < cols; ++c) {
      const double norm =
          (static_cast<double>(z[c]) - mean) * s_c * inv_std;
      const double y = norm * gamma[c] + beta[c];
      out(row, c) =
          static_cast<int8_t>(numeric::round_saturated(y / s_out, -128, 127));
    }
  }
}

LayerNormUnit::LayerNormUnit(std::span<const float> gamma,
                             std::span<const float> beta, float eps)
    : gamma_(gamma.begin(), gamma.end()),
      beta_(beta.begin(), beta.end()),
      eps_(eps) {
  if (gamma_.size() != beta_.size() || gamma_.empty()) {
    throw std::invalid_argument("LayerNormUnit: bad gamma/beta");
  }
}

tensor::MatrixI8 LayerNormUnit::run(const tensor::MatrixI8& x, double s_x,
                                    const tensor::MatrixI8& r, double s_r,
                                    double s_out) const {
  if (x.rows() != r.rows() || x.cols() != r.cols()) {
    throw std::invalid_argument("LayerNormUnit: operand shape mismatch");
  }
  if (x.cols() != gamma_.size()) {
    throw std::invalid_argument("LayerNormUnit: width mismatch");
  }
  tensor::MatrixI8 out(x.rows(), x.cols());
  std::vector<int32_t> z(x.cols());
  run_layernorm(gamma_, beta_, eps_, x, s_x, r, s_r, s_out, out, z);
  return out;
}

}  // namespace protea::accel

#include "accel/softmax_unit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace protea::accel {

SoftmaxUnit::SoftmaxUnit(double logit_scale) : logit_scale_(logit_scale) {
  if (!(logit_scale > 0.0)) {
    throw std::invalid_argument("SoftmaxUnit: scale must be positive");
  }
  for (size_t delta = 0; delta < exp_table_.size(); ++delta) {
    const double value =
        std::exp(-static_cast<double>(delta) * logit_scale) * 65536.0;
    exp_table_[delta] = static_cast<uint32_t>(std::llround(value));
  }
}

void SoftmaxUnit::run_into(tensor::ConstMatrixViewI8 logits,
                           tensor::MatrixViewI8 out) const {
  if (out.rows() != logits.rows() || out.cols() != logits.cols()) {
    throw std::invalid_argument("SoftmaxUnit: output shape mismatch");
  }
  for (size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    // Pass 1: row maximum.
    int32_t q_max = -128;
    for (int8_t q : row) q_max = std::max<int32_t>(q_max, q);
    // Pass 2: table lookups + integer sum. The sum of SL entries of up to
    // 2^16 fits uint64 for any supported sequence length.
    uint64_t sum = 0;
    for (int8_t q : row) {
      sum += exp_table_[static_cast<size_t>(q_max - int32_t{q})];
    }
    // Pass 3: normalize. sum >= 65536 because the max element contributes
    // exp(0) = 2^16, so the division is well defined.
    auto out_row = out.row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      const uint64_t e =
          exp_table_[static_cast<size_t>(q_max - int32_t{row[c]})];
      const uint64_t w = (e * 127u + sum / 2) / sum;  // round-to-nearest
      out_row[c] = static_cast<int8_t>(std::min<uint64_t>(w, 127));
    }
  }
}

void SoftmaxUnit::run_causal_into(tensor::ConstMatrixViewI8 logits,
                                  tensor::MatrixViewI8 out,
                                  size_t row_offset) const {
  if (out.rows() != logits.rows() || out.cols() != logits.cols()) {
    throw std::invalid_argument("SoftmaxUnit: output shape mismatch");
  }
  out.fill(0);
  for (size_t r = 0; r < logits.rows(); ++r) {
    const auto row = logits.row(r);
    const size_t valid = std::min(row_offset + r + 1, row.size());
    int32_t q_max = -128;
    for (size_t c = 0; c < valid; ++c) {
      q_max = std::max<int32_t>(q_max, row[c]);
    }
    uint64_t sum = 0;
    for (size_t c = 0; c < valid; ++c) {
      sum += exp_table_[static_cast<size_t>(q_max - int32_t{row[c]})];
    }
    auto out_row = out.row(r);
    for (size_t c = 0; c < valid; ++c) {
      const uint64_t e =
          exp_table_[static_cast<size_t>(q_max - int32_t{row[c]})];
      const uint64_t w = (e * 127u + sum / 2) / sum;
      out_row[c] = static_cast<int8_t>(std::min<uint64_t>(w, 127));
    }
  }
}

void SoftmaxUnit::run_causal_fused_into(tensor::ConstMatrixViewI32 acc,
                                        const numeric::RequantParams& rq,
                                        tensor::MatrixViewI8 out,
                                        size_t row_offset) const {
  if (out.rows() != acc.rows() || out.cols() != acc.cols()) {
    throw std::invalid_argument("SoftmaxUnit: output shape mismatch");
  }
  out.fill(0);
  for (size_t r = 0; r < acc.rows(); ++r) {
    const auto row = acc.row(r);
    const size_t valid = std::min(row_offset + r + 1, row.size());
    auto out_row = out.row(r);
    // Requantize each live lane exactly once, staged in the output row —
    // the emit pass below overwrites the staged logits with the weights
    // (lane c's weight only reads lane c's logit, so in place is safe).
    numeric::requantize_row(row.first(valid), nullptr, rq,
                            out_row.first(valid));
    int32_t q_max = -128;
    for (size_t c = 0; c < valid; ++c) {
      q_max = std::max<int32_t>(q_max, out_row[c]);
    }
    uint64_t sum = 0;
    for (size_t c = 0; c < valid; ++c) {
      sum += exp_table_[static_cast<size_t>(q_max - int32_t{out_row[c]})];
    }
    for (size_t c = 0; c < valid; ++c) {
      const uint64_t e =
          exp_table_[static_cast<size_t>(q_max - int32_t{out_row[c]})];
      const uint64_t w = (e * 127u + sum / 2) / sum;
      out_row[c] = static_cast<int8_t>(std::min<uint64_t>(w, 127));
    }
  }
}

tensor::MatrixI8 SoftmaxUnit::run(const tensor::MatrixI8& logits) const {
  tensor::MatrixI8 out(logits.rows(), logits.cols());
  run_into(logits, out);
  return out;
}

tensor::MatrixI8 SoftmaxUnit::run_causal(
    const tensor::MatrixI8& logits) const {
  tensor::MatrixI8 out(logits.rows(), logits.cols());
  run_causal_into(logits, out);
  return out;
}

}  // namespace protea::accel

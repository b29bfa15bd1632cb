// Float numeric kernels: GEMM, transpose, softmax, layer norm, activations.
//
// These are the golden-model building blocks the accelerator simulator is
// verified against, and the compute kernels of the CPU baseline platform.
#pragma once

#include <span>

#include "tensor/matrix.hpp"

namespace protea::util {
class ThreadPool;
}

namespace protea::tensor {

/// C = A * B. A is (m x k), B is (k x n), C is (m x n).
/// Panel packing, a register-blocked micro-kernel and K cache blocking
/// (tensor/gemm_detail.hpp), with optional row-partitioned parallelism
/// over `pool` (results are identical for any thread count — each output
/// row is produced by exactly one task).
MatrixF matmul(const MatrixF& a, const MatrixF& b,
               util::ThreadPool* pool = nullptr);

/// C = A * B^T. A is (m x k), B is (n x k), C is (m x n). B is transposed
/// during panel packing, so the inner product runs the same packed
/// micro-kernel as matmul.
MatrixF matmul_bt(const MatrixF& a, const MatrixF& b);

/// C = A * B + broadcast(bias). bias has length n.
MatrixF matmul_bias(const MatrixF& a, const MatrixF& b,
                    std::span<const float> bias,
                    util::ThreadPool* pool = nullptr);

/// Cache-blocked transpose (32x32 blocks keep both the read and the
/// strided write side resident).
MatrixF transpose(const MatrixF& a);

/// Elementwise sum; shapes must match.
MatrixF add(const MatrixF& a, const MatrixF& b);

/// Adds bias (length cols) to every row, in place.
void add_bias_inplace(MatrixF& a, std::span<const float> bias);

/// Scales every element by s, in place.
void scale_inplace(MatrixF& a, float s);

/// Numerically-stable softmax applied to each row, in place.
void softmax_rows_inplace(MatrixF& a);

/// Layer norm per row: (x - mean) / sqrt(var + eps) * gamma + beta.
void layer_norm_rows_inplace(MatrixF& a, std::span<const float> gamma,
                             std::span<const float> beta, float eps = 1e-5f);

void relu_inplace(MatrixF& a);

/// tanh-approximation GELU (the BERT formulation).
void gelu_inplace(MatrixF& a);

/// Max |a - b| over all elements; throws on shape mismatch.
float max_abs_diff(const MatrixF& a, const MatrixF& b);

/// sqrt(mean((a-b)^2)); throws on shape mismatch.
float rms_diff(const MatrixF& a, const MatrixF& b);

}  // namespace protea::tensor

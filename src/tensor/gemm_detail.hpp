// Packing / register-blocking / K-blocking machinery behind the float
// GEMMs (ops.cpp): matmul, matmul_bt and the CPU baseline's threaded
// matmul. The int8 layer has its own K-pair kernel (qgemm_detail.hpp).
//
// Accumulation discipline: each output element is produced by exactly one
// row-panel task and accumulated through a single ascending-k chain (K
// blocks in order, one scalar accumulator per element inside the micro
// kernel), so per-element rounding is independent of row partitioning and
// results match the serial kernel at any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/math_util.hpp"
#include "util/thread_pool.hpp"

namespace protea::tensor::detail {

inline constexpr size_t kGemmMr = 4;    // micro-kernel rows (A panel width)
inline constexpr size_t kGemmNr = 8;    // micro-kernel cols (B panel width)
inline constexpr size_t kGemmKc = 256;  // K cache block

/// Elements a packed-B scratch buffer must hold for an (n)-column operand:
/// one K block's worth of column panels, zero-padded to kGemmNr.
inline size_t pack_b_elems(size_t n) {
  return util::ceil_div(n, kGemmNr) * kGemmNr * kGemmKc;
}

/// A panel: kGemmMr rows interleaved column-major, zero-padded to kGemmMr
/// so the micro-kernel never branches on the ragged edge. `a`/`lda` address
/// the full operand; works for owning matrices and arena views alike.
template <typename T>
void pack_a_panel(const T* a, size_t lda, size_t i0, size_t h, size_t k0,
                  size_t kc, T* dst) {
  const T* base = a + i0 * lda + k0;
  for (size_t p = 0; p < kc; ++p) {
    for (size_t i = 0; i < kGemmMr; ++i) {
      dst[p * kGemmMr + i] = i < h ? base[i * lda + p] : T{};
    }
  }
}

/// B panels for a K block, normal (k x n) layout: panel cp holds columns
/// [cp*kGemmNr, ...) interleaved as [p][j], zero-padded to kGemmNr.
/// `M` is any row-major matrix-like type (Matrix or MatrixView).
template <typename M, typename T>
void pack_b_block(const M& b, size_t k0, size_t kc, size_t n, T* dst) {
  const size_t ldb = b.cols();
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    const size_t j0 = cp * kGemmNr;
    const size_t w = std::min(kGemmNr, n - j0);
    T* panel = dst + cp * kc * kGemmNr;
    const T* src = b.data() + k0 * ldb + j0;
    for (size_t p = 0; p < kc; ++p) {
      for (size_t j = 0; j < w; ++j) panel[p * kGemmNr + j] = src[j];
      for (size_t j = w; j < kGemmNr; ++j) panel[p * kGemmNr + j] = T{};
      src += ldb;
    }
  }
}

/// Same packed layout from a transposed (n x k) operand — the transpose
/// happens here, during packing, so the micro-kernel is shared.
template <typename M, typename T>
void pack_bt_block(const M& bt, size_t k0, size_t kc, size_t n, T* dst) {
  const size_t ldb = bt.cols();
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    const size_t j0 = cp * kGemmNr;
    const size_t w = std::min(kGemmNr, n - j0);
    T* panel = dst + cp * kc * kGemmNr;
    for (size_t j = 0; j < w; ++j) {
      const T* src = bt.data() + (j0 + j) * ldb + k0;
      for (size_t p = 0; p < kc; ++p) panel[p * kGemmNr + j] = src[p];
    }
    for (size_t j = w; j < kGemmNr; ++j) {
      for (size_t p = 0; p < kc; ++p) panel[p * kGemmNr + j] = T{};
    }
  }
}

/// kGemmMr x kGemmNr register block; operands are widened to Mul before
/// multiplying.
template <typename T, typename Mul, typename Acc>
void micro_kernel(size_t kc, const T* __restrict ap, const T* __restrict bp,
                  Acc* __restrict acc) {
  for (size_t p = 0; p < kc; ++p) {
    const T* arow = ap + p * kGemmMr;
    const T* brow = bp + p * kGemmNr;
    for (size_t i = 0; i < kGemmMr; ++i) {
      const Mul ai = static_cast<Mul>(arow[i]);
      Acc* accrow = acc + i * kGemmNr;
      for (size_t j = 0; j < kGemmNr; ++j) {
        accrow[j] += static_cast<Acc>(ai * static_cast<Mul>(brow[j]));
      }
    }
  }
}

/// Driver core: `c` is the caller's (m x n) output and `bbuf` the
/// caller's packed-B scratch (>= pack_b_elems(n) elements). Row panels
/// spread over `pool` when one is given (the CPU baseline's matmul).
template <typename T, typename Mul, typename Acc, typename PackB>
void gemm_driver_into(const T* a, size_t m, size_t k, size_t n, Acc* c,
                      T* bbuf, util::ThreadPool* pool, const PackB& pack_b) {
  std::fill(c, c + m * n, Acc{});
  if (m == 0 || n == 0 || k == 0) return;

  const size_t row_panels = util::ceil_div(m, kGemmMr);
  const size_t col_panels = util::ceil_div(n, kGemmNr);

  for (size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const size_t kc = std::min(kGemmKc, k - k0);
    pack_b(k0, kc, bbuf);

    auto row_panel_task = [&](size_t rp) {
      alignas(64) T apanel[kGemmMr * kGemmKc];
      alignas(64) Acc acc[kGemmMr * kGemmNr];
      const size_t i0 = rp * kGemmMr;
      const size_t h = std::min(kGemmMr, m - i0);
      pack_a_panel(a, k, i0, h, k0, kc, apanel);
      for (size_t cp = 0; cp < col_panels; ++cp) {
        std::fill(acc, acc + kGemmMr * kGemmNr, Acc{});
        micro_kernel<T, Mul, Acc>(kc, apanel, bbuf + cp * kc * kGemmNr,
                                  acc);
        const size_t j0 = cp * kGemmNr;
        const size_t w = std::min(kGemmNr, n - j0);
        for (size_t i = 0; i < h; ++i) {
          Acc* crow = c + (i0 + i) * n + j0;
          const Acc* accrow = acc + i * kGemmNr;
          for (size_t j = 0; j < w; ++j) crow[j] += accrow[j];
        }
      }
    };

    if (pool != nullptr && pool->size() > 1 && row_panels > 1) {
      pool->parallel_for(0, row_panels, row_panel_task);
    } else {
      for (size_t rp = 0; rp < row_panels; ++rp) row_panel_task(rp);
    }
  }
}

/// Owning-output convenience for the float kernels: resizes `c` and
/// allocates the packing scratch per call.
template <typename T, typename Mul, typename Acc, typename PackB>
void gemm_driver(const Matrix<T>& a, size_t n, Matrix<Acc>& c,
                 util::ThreadPool* pool, const PackB& pack_b) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  c = Matrix<Acc>(m, n, Acc{});
  std::vector<T> bbuf(pack_b_elems(n));
  gemm_driver_into<T, Mul, Acc>(a.data(), m, k, n, c.data(), bbuf.data(),
                                pool, pack_b);
}

}  // namespace protea::tensor::detail

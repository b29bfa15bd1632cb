#include "tensor/qgemm.hpp"

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/qgemm_detail.hpp"
#include "util/cpu_features.hpp"

namespace protea::tensor {
namespace {

using detail::kKBlock;
using detail::kMaxKernelRows;
using detail::kPairBytes;
using detail::kPanelCols;
using detail::pairs_of;

/// A dense row-major int8 operand as a one-run row list, so the packers
/// read dense and spanned operands alike. `run` must outlive the list.
RowSpanListI8 one_run(const RowSpanI8& run, size_t cols) {
  return {.runs = {&run, 1},
          .rows = run.rows,
          .cols = cols,
          .row_stride = cols};
}

/// Widens R rows of A (`lda` apart), K block [k0, k0 + kc), to int16
/// rows kKBlock apart, zero-padding an odd block's last pair.
template <size_t R>
void widen_rows(const int8_t* a, size_t lda, size_t k0, size_t kc,
                int16_t* awide) {
  for (size_t r = 0; r < R; ++r) {
    int16_t* dst = awide + r * kKBlock;
    std::copy_n(a + r * lda + k0, kc, dst);
    if (kc % 2 != 0) dst[kc] = 0;
  }
}

/// Moves the first `w` of each of R accumulator rows (`Cols` wide) into
/// c's rows (`n` apart): the first K block writes c, later ones add.
template <size_t R, size_t Cols>
void store_tile(const int32_t* acc, size_t w, size_t k0, int32_t* c,
                size_t n) {
  for (size_t r = 0; r < R; ++r) {
    int32_t* crow = c + r * n;
    const int32_t* arow = acc + r * Cols;
    if (k0 != 0) {
      for (size_t j = 0; j < w; ++j) crow[j] += arow[j];
    } else if (w == Cols) {
      std::copy_n(arow, Cols, crow);
    } else {
      std::copy_n(arow, w, crow);
    }
  }
}

/// R rows of A (`lda` apart) against every column panel of one K block
/// [k0, k0 + kc): A is widened to int16 pairs once, then each panel meets
/// it in one micro-kernel call.
template <size_t R>
void row_block(const int8_t* a, size_t lda, size_t k0, size_t kc,
               const int8_t* panels, size_t panel_stride, size_t n,
               int32_t* c) {
  alignas(16) int16_t awide[R * kKBlock];
  widen_rows<R>(a, lda, k0, kc, awide);
  const size_t pairs = pairs_of(kc);
  alignas(16) int32_t acc[R * kPanelCols];
  for (size_t j0 = 0; j0 < n; j0 += kPanelCols, panels += panel_stride) {
    detail::kpair_kernel<R>(awide, kKBlock, panels, pairs, acc);
    store_tile<R, kPanelCols>(acc, std::min(kPanelCols, n - j0), k0, c + j0,
                              n);
  }
}

#ifdef PROTEA_KPAIR_AVX2
/// row_block on the AVX2 body: two column panels per kernel call, and
/// the one-panel form for an odd last panel.
template <size_t R>
__attribute__((target("avx2"))) void row_block_avx2(
    const int8_t* a, size_t lda, size_t k0, size_t kc, const int8_t* panels,
    size_t panel_stride, size_t n, int32_t* c) {
  alignas(32) int16_t awide[R * kKBlock];
  widen_rows<R>(a, lda, k0, kc, awide);
  const size_t pairs = pairs_of(kc);
  constexpr size_t kTileCols = 2 * kPanelCols;
  alignas(32) int32_t acc[R * kTileCols];
  size_t j0 = 0;
  for (; j0 + kPanelCols < n; j0 += kTileCols, panels += 2 * panel_stride) {
    detail::kpair_kernel_avx2<R, 2>(awide, kKBlock, panels, panel_stride,
                                    pairs, acc);
    store_tile<R, kTileCols>(acc, std::min(kTileCols, n - j0), k0, c + j0,
                             n);
  }
  if (j0 < n) {
    detail::kpair_kernel_avx2<R, 1>(awide, kKBlock, panels, panel_stride,
                                    pairs, acc);
    store_tile<R, kPanelCols>(acc, n - j0, k0, c + j0, n);
  }
}
#endif

using RowBlock = void (*)(const int8_t* a, size_t lda, size_t k0, size_t kc,
                          const int8_t* panels, size_t panel_stride,
                          size_t n, int32_t* c);

/// The row_block bodies this process runs, by row count, and their name.
struct RowBlocks {
  const char* name;
  std::array<RowBlock, kMaxKernelRows> by_rows;  // [R - 1]
};

/// Chosen on first use from the CPU's features alone
/// (util::cpu_has_avx2). A function-local static is initialized once and
/// thread-safely whenever it is first reached.
const RowBlocks& row_blocks() {
  static const RowBlocks blocks = [] {
#ifdef PROTEA_KPAIR_AVX2
    if (util::cpu_has_avx2()) {
      return RowBlocks{"avx2",
                       {row_block_avx2<1>, row_block_avx2<2>,
                        row_block_avx2<3>, row_block_avx2<4>}};
    }
#endif
#ifdef __SSE2__
    const char* name = "sse2";
#else
    const char* name = "portable";
#endif
    return RowBlocks{
        name, {row_block<1>, row_block<2>, row_block<3>, row_block<4>}};
  }();
  return blocks;
}

/// c (m x n) = a (m x k) * B. `block(k0, kc)` yields K block
/// [k0, k0 + kc) of B as K-pair panels: the first panel's address and
/// the byte distance between consecutive column panels.
template <typename Block>
void kpair_product(ConstMatrixViewI8 a, size_t n, MatrixViewI32 c,
                   const Block& block) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  if (m == 0 || n == 0) return;
  if (k == 0) {
    c.fill(0);
    return;
  }
  const RowBlocks& blocks = row_blocks();
  for (size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const size_t kc = std::min(kKBlock, k - k0);
    const auto [panels, stride] = block(k0, kc);
    for (size_t i0 = 0; i0 < m; i0 += kMaxKernelRows) {
      const size_t rows = std::min(kMaxKernelRows, m - i0);
      blocks.by_rows[rows - 1](a.data() + i0 * k, k, k0, kc, panels, stride,
                               n, c.data() + i0 * n);
    }
  }
}

/// An activation operand, B (k x n) or B^T (n x k) when `bt`, listed row
/// by row in `b`. Fewer A rows than one micro-kernel call (decode steps)
/// read B in place; otherwise each K block is packed into `pack_buf`
/// just before the kernel reads it.
void activation_product(ConstMatrixViewI8 a, const RowSpanListI8& b, bool bt,
                        MatrixViewI32 c, int8_t* pack_buf) {
  const size_t n = c.cols();
  detail::with_elems(b, [&](auto elems) {
    if (a.rows() < kMaxKernelRows) {
      if (bt) {
        detail::direct_bt(a.data(), a.rows(), a.cols(), b, elems, c.data());
      } else {
        detail::direct_b(a.data(), a.rows(), a.cols(), b, elems, c.data());
      }
      return;
    }
    kpair_product(a, n, c, [&](size_t k0, size_t kc) {
      if (bt) {
        detail::pack_kpair_bt(b, elems, k0, kc, n, pack_buf);
      } else {
        detail::pack_kpair_b(b, elems, k0, kc, n, pack_buf);
      }
      const int8_t* panels = pack_buf;
      return std::pair{panels, pairs_of(kc) * kPairBytes};
    });
  });
}

void dense_product(ConstMatrixViewI8 a, ConstMatrixViewI8 b, bool bt,
                   MatrixViewI32 c, int8_t* pack_buf) {
  const RowSpanI8 run{b.data(), b.rows()};
  activation_product(a, one_run(run, b.cols()), bt, c, pack_buf);
}

/// Owning-output entry points: resize `c` and allocate packing scratch.
void owning_product(const MatrixI8& a, const MatrixI8& b, bool bt,
                    MatrixI32& c) {
  const size_t n = bt ? b.rows() : b.cols();
  c = MatrixI32(a.rows(), n, 0);
  std::vector<int8_t> pack(qgemm_pack_elems(n));
  dense_product(a, b, bt, c, pack.data());
}

void check_into_args(ConstMatrixViewI8 a, size_t b_k, size_t b_n,
                     MatrixViewI32 c, std::span<int8_t> pack_buf,
                     const char* name) {
  if (a.cols() != b_k) {
    throw std::invalid_argument(std::string(name) +
                                ": inner dimension mismatch");
  }
  if (c.rows() != a.rows() || c.cols() != b_n) {
    throw std::invalid_argument(std::string(name) +
                                ": output view shape mismatch");
  }
  if (pack_buf.size() < qgemm_pack_elems(b_n)) {
    throw std::invalid_argument(std::string(name) +
                                ": packing scratch too small");
  }
}

void check_span_list(const RowSpanListI8& list, const char* name) {
  size_t total = 0;
  for (const RowSpanI8& run : list.runs) {
    // A cursor stepping onto an empty run would read its base as a row.
    if (run.rows == 0) {
      throw std::invalid_argument(std::string(name) +
                                  ": span list has an empty run");
    }
    total += run.rows;
  }
  if (total != list.rows) {
    throw std::invalid_argument(std::string(name) +
                                ": span run rows do not sum to rows");
  }
  if (list.nibbles && list.decode == nullptr) {
    throw std::invalid_argument(std::string(name) +
                                ": nibble rows need a dequant table");
  }
  if (list.rows > 0 && list.row_stride < list.row_bytes()) {
    throw std::invalid_argument(std::string(name) +
                                ": span row stride below row width");
  }
}

}  // namespace

PackedWeightI8 PackedWeightI8::from_b(ConstMatrixViewI8 b) {
  return pack(b, false);
}

PackedWeightI8 PackedWeightI8::from_bt(ConstMatrixViewI8 bt) {
  return pack(bt, true);
}

PackedWeightI8 PackedWeightI8::pack(ConstMatrixViewI8 m, bool transposed) {
  PackedWeightI8 w;
  w.k_ = transposed ? m.cols() : m.rows();
  w.n_ = transposed ? m.rows() : m.cols();
  w.transposed_ = transposed;
  w.panels_.resize(detail::kpair_bytes(w.k_, w.n_));
  if (w.size() > 0) {
    const RowSpanI8 run{m.data(), m.rows()};
    const RowSpanListI8 rows = one_run(run, m.cols());
    if (transposed) {
      detail::pack_kpair_bt(rows, detail::RawElems{}, 0, w.k_, w.n_,
                            w.panels_.data());
    } else {
      detail::pack_kpair_b(rows, detail::RawElems{}, 0, w.k_, w.n_,
                           w.panels_.data());
    }
  }
  return w;
}

int8_t PackedWeightI8::operator()(size_t r, size_t c) const {
  assert(r < rows() && c < cols());
  const size_t kk = transposed_ ? c : r;
  const size_t j = transposed_ ? r : c;
  const size_t panel = j / kPanelCols;
  return panels_[(panel * pairs_of(k_) + kk / 2) * kPairBytes +
                 (j % kPanelCols) * 2 + kk % 2];
}

MatrixI8 PackedWeightI8::to_matrix() const {
  MatrixI8 out(rows(), cols());
  for (size_t r = 0; r < rows(); ++r) {
    for (size_t c = 0; c < cols(); ++c) out(r, c) = (*this)(r, c);
  }
  return out;
}

void qgemm_packed_into(ConstMatrixViewI8 a, const PackedWeightI8& w,
                       MatrixViewI32 c) {
  if (a.cols() != w.k()) {
    throw std::invalid_argument("qgemm_packed_into: inner dimension mismatch");
  }
  if (c.rows() != a.rows() || c.cols() != w.n()) {
    throw std::invalid_argument(
        "qgemm_packed_into: output view shape mismatch");
  }
  // K blocks start at even k, so block k0 begins k0 / 2 pairs into each
  // column panel of the stored full-K panels.
  const size_t panel_stride = pairs_of(w.k()) * kPairBytes;
  kpair_product(a, w.n(), c, [&](size_t k0, size_t) {
    return std::pair{w.panels() + k0 / 2 * kPairBytes, panel_stride};
  });
}

void qgemm(const MatrixI8& a, const MatrixI8& b, MatrixI32& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("qgemm: inner dimension mismatch");
  }
  owning_product(a, b, false, c);
}

void qgemm_bt(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c) {
  if (a.cols() != bt.cols()) {
    throw std::invalid_argument("qgemm_bt: inner dimension mismatch");
  }
  owning_product(a, bt, true, c);
}

size_t qgemm_pack_elems(size_t n) { return detail::kpair_bytes(kKBlock, n); }

const char* qgemm_kernel_body() { return row_blocks().name; }

void qgemm_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b, MatrixViewI32 c,
                std::span<int8_t> pack_buf) {
  check_into_args(a, b.rows(), b.cols(), c, pack_buf, "qgemm_into");
  dense_product(a, b, false, c, pack_buf.data());
}

void qgemm_bt_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt, MatrixViewI32 c,
                   std::span<int8_t> pack_buf) {
  check_into_args(a, bt.cols(), bt.rows(), c, pack_buf, "qgemm_bt_into");
  dense_product(a, bt, true, c, pack_buf.data());
}

void qgemm_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& b,
                      MatrixViewI32 c, std::span<int8_t> pack_buf) {
  check_into_args(a, b.rows, b.cols, c, pack_buf, "qgemm_spans_into");
  check_span_list(b, "qgemm_spans_into");
  activation_product(a, b, false, c, pack_buf.data());
}

void qgemm_bt_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& bt,
                         MatrixViewI32 c, std::span<int8_t> pack_buf) {
  check_into_args(a, bt.cols, bt.rows, c, pack_buf, "qgemm_bt_spans_into");
  check_span_list(bt, "qgemm_bt_spans_into");
  activation_product(a, bt, true, c, pack_buf.data());
}

void qgemm_naive(const MatrixI8& a, const MatrixI8& b, MatrixI32& c) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("qgemm_naive: inner dimension mismatch");
  }
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  c = MatrixI32(m, n, 0);
  for (size_t i = 0; i < m; ++i) {
    const auto arow = a.row(i);
    for (size_t j = 0; j < n; ++j) {
      int32_t sum = 0;
      for (size_t kk = 0; kk < k; ++kk) {
        sum += int32_t{arow[kk]} * b(kk, j);
      }
      c(i, j) = sum;
    }
  }
}

void qgemm_bt_naive(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c) {
  if (a.cols() != bt.cols()) {
    throw std::invalid_argument("qgemm_bt_naive: inner dimension mismatch");
  }
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = bt.rows();
  c = MatrixI32(m, n, 0);
  for (size_t i = 0; i < m; ++i) {
    const auto arow = a.row(i);
    for (size_t j = 0; j < n; ++j) {
      const auto brow = bt.row(j);
      int32_t sum = 0;
      for (size_t kk = 0; kk < k; ++kk) {
        sum += int32_t{arow[kk]} * brow[kk];
      }
      c(i, j) = sum;
    }
  }
}

}  // namespace protea::tensor

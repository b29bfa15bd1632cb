#include "tensor/qgemm.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/gemm_detail.hpp"

namespace protea::tensor {
namespace {

/// The one loop-order choice of the int8 kernel layer, made by shape
/// alone: fewer A rows than one register block (decode steps) read B in
/// place; anything larger packs B for the register-blocked micro-kernel.
bool reads_b_in_place(size_t m) { return m < detail::kGemmMr; }

/// A dense row-major int8 operand as a one-run row list, so the direct
/// loops read dense and spanned operands alike. `run` must outlive the
/// list.
RowSpanListI8 one_run(const RowSpanI8& run, size_t cols) {
  return {.runs = {&run, 1},
          .rows = run.rows,
          .cols = cols,
          .row_stride = cols};
}

/// Every int8 entry point lands here. `b` lists B's logical rows — B's k
/// rows of n, or B^T's n rows of k when `bt` — read through `elems`;
/// `pack_b` packs one K block of the same operand for the packed path.
template <typename Elems, typename PackB>
void product(ConstMatrixViewI8 a, const RowSpanListI8& b, Elems elems,
             bool bt, MatrixViewI32 c, int8_t* pack_buf, const PackB& pack_b) {
  if (reads_b_in_place(a.rows())) {
    if (bt) {
      detail::direct_bt(a.data(), a.rows(), a.cols(), b, elems, c.data());
    } else {
      detail::direct_b(a.data(), a.rows(), a.cols(), b, elems, c.data());
    }
    return;
  }
  detail::gemm_driver_into<int8_t, int16_t, int32_t>(
      a.data(), a.rows(), a.cols(), c.cols(), c.data(), pack_buf,
      /*pool=*/nullptr, pack_b);
}

/// Dense int8 B (k x n) or B^T (n x k).
void dense_product(ConstMatrixViewI8 a, ConstMatrixViewI8 b, bool bt,
                   MatrixViewI32 c, int8_t* pack_buf) {
  const RowSpanI8 run{b.data(), b.rows()};
  product(a, one_run(run, b.cols()), detail::RawElems{}, bt, c, pack_buf,
          [&](size_t k0, size_t kc, int8_t* dst) {
            if (bt) {
              detail::pack_bt_block(b, k0, kc, b.rows(), dst);
            } else {
              detail::pack_b_block(b, k0, kc, b.cols(), dst);
            }
          });
}

/// Row-list B or B^T in any of its three storage forms.
void rows_product(ConstMatrixViewI8 a, const RowSpanListI8& b, bool bt,
                  MatrixViewI32 c, int8_t* pack_buf) {
  detail::with_elems(b, [&](auto elems) {
    product(a, b, elems, bt, c, pack_buf,
            [&](size_t k0, size_t kc, int8_t* dst) {
              if (bt) {
                detail::pack_bt_block_spans(b, elems, k0, kc, b.rows, dst);
              } else {
                detail::pack_b_block_spans(b, elems, k0, kc, b.cols, dst);
              }
            });
  });
}

/// Owning-output entry points: resize `c`, and allocate packing scratch
/// only when the packed path will run.
void owning_product(const MatrixI8& a, const MatrixI8& b, bool bt,
                    MatrixI32& c) {
  const size_t n = bt ? b.rows() : b.cols();
  c = MatrixI32(a.rows(), n, 0);
  std::vector<int8_t> pack(
      reads_b_in_place(a.rows()) ? 0 : detail::pack_b_elems(n));
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

size_t qgemm_pack_elems(size_t n) { return detail::pack_b_elems(n); }

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
  rows_product(a, b, false, c, pack_buf.data());
}

void qgemm_bt_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& bt,
                         MatrixViewI32 c, std::span<int8_t> pack_buf) {
  check_into_args(a, bt.cols, bt.rows, c, pack_buf, "qgemm_bt_spans_into");
  check_span_list(bt, "qgemm_bt_spans_into");
  rows_product(a, bt, true, c, pack_buf.data());
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

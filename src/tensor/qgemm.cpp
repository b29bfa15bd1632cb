#include "tensor/qgemm.hpp"

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/gemm_detail.hpp"
#include "util/thread_pool.hpp"

namespace protea::tensor {
namespace {

std::unique_ptr<util::ThreadPool>& default_pool_storage() {
  static std::unique_ptr<util::ThreadPool> pool;
  return pool;
}

/// The one loop-order choice of the int8 kernel layer, made by shape
/// alone: fewer A rows than one register block (decode steps) read B in
/// place; anything larger packs B for the register-blocked micro-kernel.
bool reads_b_in_place(size_t m) { return m < detail::kGemmMr; }

/// A dense row-major operand as a one-run row list, so the direct loops
/// read dense and spanned operands alike. `run` must outlive the list.
RowSpanListI8 one_run(const RowSpanI8& run, size_t cols,
                      const int8_t* decode) {
  return {.runs = {&run, 1},
          .rows = run.rows,
          .cols = cols,
          .row_stride = cols,
          .decode = decode};
}

/// Every int8 entry point lands here. `b` lists B's logical rows — B's k
/// rows of n, or B^T's n rows of k when `bt` — with the optional decode
/// table; `pack_b` packs one K block of the same operand for the packed
/// path. The direct path is serial whatever `pool` is, as the packed path
/// already is for a single row panel.
template <typename PackB>
void product(ConstMatrixViewI8 a, const RowSpanListI8& b, bool bt,
             MatrixViewI32 c, int8_t* pack_buf, util::ThreadPool* pool,
             const PackB& pack_b) {
  if (reads_b_in_place(a.rows())) {
    if (bt) {
      detail::direct_bt(a.data(), a.rows(), a.cols(), b, c.data());
    } else {
      detail::direct_b(a.data(), a.rows(), a.cols(), b, c.data());
    }
    return;
  }
  detail::gemm_driver_into<int8_t, int16_t, int32_t>(
      a.data(), a.rows(), a.cols(), c.cols(), c.data(), pack_buf, pool,
      pack_b);
}

/// Dense int8 B (k x n) or B^T (n x k).
void dense_product(ConstMatrixViewI8 a, ConstMatrixViewI8 b, bool bt,
                   MatrixViewI32 c, int8_t* pack_buf,
                   util::ThreadPool* pool) {
  const RowSpanI8 run{b.data(), b.rows()};
  product(a, one_run(run, b.cols(), nullptr), bt, c, pack_buf, pool,
          [&](size_t k0, size_t kc, int8_t* dst) {
            if (bt) {
              detail::pack_bt_block(b, k0, kc, b.rows(), dst);
            } else {
              detail::pack_b_block(b, k0, kc, b.cols(), dst);
            }
          });
}

/// Row-list B or B^T: span runs, and dense code matrices with a decode
/// table (a one-run list).
void rows_product(ConstMatrixViewI8 a, const RowSpanListI8& b, bool bt,
                  MatrixViewI32 c, int8_t* pack_buf,
                  util::ThreadPool* pool) {
  product(a, b, bt, c, pack_buf, pool,
          [&](size_t k0, size_t kc, int8_t* dst) {
            if (bt && b.decode != nullptr) {
              detail::pack_bt_block_spans_lut(b, k0, kc, b.rows, b.decode,
                                              dst);
            } else if (bt) {
              detail::pack_bt_block_spans(b, k0, kc, b.rows, dst);
            } else if (b.decode != nullptr) {
              detail::pack_b_block_spans_lut(b, k0, kc, b.cols, b.decode,
                                             dst);
            } else {
              detail::pack_b_block_spans(b, k0, kc, b.cols, dst);
            }
          });
}

/// Owning-output entry points: resize `c`, and allocate packing scratch
/// only when the packed path will run.
void owning_product(const MatrixI8& a, const MatrixI8& b, bool bt,
                    MatrixI32& c, util::ThreadPool* pool) {
  const size_t n = bt ? b.rows() : b.cols();
  c = MatrixI32(a.rows(), n, 0);
  std::vector<int8_t> pack(
      reads_b_in_place(a.rows()) ? 0 : detail::pack_b_elems(n));
  dense_product(a, b, bt, c, pack.data(), pool);
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
  if (list.rows > 0 && list.row_stride < list.cols) {
    throw std::invalid_argument(std::string(name) +
                                ": span row stride below row width");
  }
}

void check_lut(const int8_t* lut, const char* name) {
  if (lut == nullptr) {
    throw std::invalid_argument(std::string(name) + ": null dequant table");
  }
}

}  // namespace

void qgemm(const MatrixI8& a, const MatrixI8& b, MatrixI32& c,
           util::ThreadPool* pool) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("qgemm: inner dimension mismatch");
  }
  owning_product(a, b, false, c, pool);
}

void qgemm_bt(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c,
              util::ThreadPool* pool) {
  if (a.cols() != bt.cols()) {
    throw std::invalid_argument("qgemm_bt: inner dimension mismatch");
  }
  owning_product(a, bt, true, c, pool);
}

size_t qgemm_pack_elems(size_t n) { return detail::pack_b_elems(n); }

void qgemm_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b, MatrixViewI32 c,
                std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, b.rows(), b.cols(), c, pack_buf, "qgemm_into");
  dense_product(a, b, false, c, pack_buf.data(), pool);
}

void qgemm_bt_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt, MatrixViewI32 c,
                   std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, bt.cols(), bt.rows(), c, pack_buf, "qgemm_bt_into");
  dense_product(a, bt, true, c, pack_buf.data(), pool);
}

void qgemm_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& b,
                      MatrixViewI32 c, std::span<int8_t> pack_buf,
                      util::ThreadPool* pool) {
  check_into_args(a, b.rows, b.cols, c, pack_buf, "qgemm_spans_into");
  check_span_list(b, "qgemm_spans_into");
  rows_product(a, b, false, c, pack_buf.data(), pool);
}

void qgemm_bt_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& bt,
                         MatrixViewI32 c, std::span<int8_t> pack_buf,
                         util::ThreadPool* pool) {
  check_into_args(a, bt.cols, bt.rows, c, pack_buf, "qgemm_bt_spans_into");
  check_span_list(bt, "qgemm_bt_spans_into");
  rows_product(a, bt, true, c, pack_buf.data(), pool);
}

void qgemm_lut_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b,
                    const int8_t* lut, MatrixViewI32 c,
                    std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, b.rows(), b.cols(), c, pack_buf, "qgemm_lut_into");
  check_lut(lut, "qgemm_lut_into");
  const RowSpanI8 run{b.data(), b.rows()};
  rows_product(a, one_run(run, b.cols(), lut), false, c, pack_buf.data(),
               pool);
}

void qgemm_bt_lut_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt,
                       const int8_t* lut, MatrixViewI32 c,
                       std::span<int8_t> pack_buf, util::ThreadPool* pool) {
  check_into_args(a, bt.cols(), bt.rows(), c, pack_buf, "qgemm_bt_lut_into");
  check_lut(lut, "qgemm_bt_lut_into");
  const RowSpanI8 run{bt.data(), bt.rows()};
  rows_product(a, one_run(run, bt.cols(), lut), true, c, pack_buf.data(),
               pool);
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

util::ThreadPool* qgemm_default_pool() { return default_pool_storage().get(); }

void qgemm_set_threads(size_t n) {
  auto& pool = default_pool_storage();
  if (n <= 1) {
    pool.reset();
  } else {
    pool = std::make_unique<util::ThreadPool>(n);
  }
}

}  // namespace protea::tensor

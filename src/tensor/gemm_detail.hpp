// Shared packing / register-blocking / K-blocking machinery behind the
// int8 GEMM kernels (qgemm.cpp) and their float twin (ops.cpp), plus the
// int8-only small-M direct loops at the end of the file.
//
// One template on (element, widened-multiply, accumulator) types keeps the
// packing layout and blocking parameters in a single place: int8 kernels
// instantiate <int8_t, int16_t, int32_t> (widening so the inner loop
// auto-vectorizes to widening multiply-adds), float kernels
// <float, float, float>.
//
// Accumulation discipline: each output element is produced by exactly one
// row-panel task and accumulated through a single ascending-k chain (K
// blocks in order, one scalar accumulator per element inside the micro
// kernel). For integer types that makes any blocking bit-identical to the
// naive loop; for float it makes per-element rounding independent of row
// partitioning, so results match the serial kernel at any thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
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

/// Cursor over a RowSpanListI8's rows in ascending order: row() addresses
/// the current row, advance() steps to the next, crossing run boundaries
/// without a per-row search. Advancing past the final row is allowed (the
/// cursor is then never dereferenced).
struct SpanRowCursor {
  const RowSpanI8* run = nullptr;
  size_t offset = 0;  // row within *run

  const int8_t* row(size_t row_stride) const {
    return run->base + offset * row_stride;
  }
  void advance() {
    if (++offset == run->rows) {
      offset = 0;
      ++run;
    }
  }
};

/// Cursor positioned at logical row `row` (< list.rows) of `list`.
inline SpanRowCursor span_row_cursor(const RowSpanListI8& list, size_t row) {
  SpanRowCursor cur{list.runs.data(), row};
  while (cur.offset >= cur.run->rows) {
    cur.offset -= cur.run->rows;
    ++cur.run;
  }
  return cur;
}

// --- span-list operands ------------------------------------------------------
//
// A RowSpanListI8 row is stored in one of three forms. An element reader
// turns a stored row and an element index into the int8 value; the span
// pack loops and the direct path's SpanRowReader are templates on the
// reader, so each form is one inlined expression inside the same loop.
// Zero padding stays a literal 0: padded lanes are synthesized in the
// decoded domain, exactly like the int8 pack.

/// int8 rows: the element is the byte.
struct RawElems {
  int8_t operator()(const int8_t* row, size_t j) const { return row[j]; }
};

/// One stored code per byte (fp8), decoded through a 256-entry table.
struct ByteLutElems {
  const int8_t* lut;
  int8_t operator()(const int8_t* row, size_t j) const {
    return lut[static_cast<uint8_t>(row[j])];
  }
};

/// Two 4-bit codes per byte (packed fp4), low nibble first: element j is
/// nibble j % 2 of byte j / 2, decoded through the table's first 16
/// entries.
struct NibbleLutElems {
  const int8_t* lut;
  int8_t operator()(const int8_t* row, size_t j) const {
    const auto byte = static_cast<uint8_t>(row[j / 2]);
    return lut[(byte >> (4 * (j % 2))) & 0x0f];
  }
};

/// Calls `f` with the element reader for `list`'s storage form.
template <typename F>
void with_elems(const RowSpanListI8& list, const F& f) {
  if (list.decode == nullptr) {
    f(RawElems{});
  } else if (list.nibbles) {
    f(NibbleLutElems{list.decode});
  } else {
    f(ByteLutElems{list.decode});
  }
}

/// pack_b_block over a span-list operand (list.rows x list.cols = k x n):
/// B's rows stream straight out of the runs' storage — packing is the
/// only stage that touches B element-by-element, so reading the runs here
/// makes the whole GEMM gather-free while the micro-kernel stays put.
/// `elems` decodes stored codes in the same pass.
template <typename Elems>
inline void pack_b_block_spans(const RowSpanListI8& b, Elems elems,
                               size_t k0, size_t kc, size_t n, int8_t* dst) {
  // Row-major walk: each block-strided source row (potentially a whole
  // pooled token row away from its neighbor) is touched exactly once and
  // scattered across every column panel — the panel writes land in the
  // small dense pack buffer, so the expensive strided traffic stays
  // single-pass.
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  SpanRowCursor cur = span_row_cursor(b, k0);
  for (size_t p = 0; p < kc; ++p) {
    const int8_t* src = cur.row(b.row_stride);
    for (size_t cp = 0; cp < col_panels; ++cp) {
      const size_t j0 = cp * kGemmNr;
      const size_t w = std::min(kGemmNr, n - j0);
      int8_t* panel_row = dst + cp * kc * kGemmNr + p * kGemmNr;
      for (size_t j = 0; j < w; ++j) panel_row[j] = elems(src, j0 + j);
      for (size_t j = w; j < kGemmNr; ++j) panel_row[j] = 0;
    }
    cur.advance();
  }
}

/// pack_bt_block over a span-list operand (list.rows x list.cols = n x k):
/// packed column j is list row j (K in Q.K^T), transposed during packing
/// exactly like pack_bt_block. Rows ascend monotonically across the
/// column panels, so one cursor walk per K block covers the whole pack.
template <typename Elems>
inline void pack_bt_block_spans(const RowSpanListI8& bt, Elems elems,
                                size_t k0, size_t kc, size_t n, int8_t* dst) {
  const size_t col_panels = util::ceil_div(n, kGemmNr);
  SpanRowCursor cur = span_row_cursor(bt, 0);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    const size_t j0 = cp * kGemmNr;
    const size_t w = std::min(kGemmNr, n - j0);
    int8_t* panel = dst + cp * kc * kGemmNr;
    for (size_t j = 0; j < w; ++j) {
      const int8_t* src = cur.row(bt.row_stride);
      for (size_t p = 0; p < kc; ++p) {
        panel[p * kGemmNr + j] = elems(src, k0 + p);
      }
      cur.advance();
    }
    for (size_t j = w; j < kGemmNr; ++j) {
      for (size_t p = 0; p < kc; ++p) panel[p * kGemmNr + j] = 0;
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

/// Allocation-free driver core: `c` is the caller's (m x n) output and
/// `bbuf` the caller's packed-B scratch (>= pack_b_elems(n) elements —
/// the workspace arena provides both on the runtime's steady-state path).
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

// --- small-M direct path (int8 only) ----------------------------------------
//
// A product with fewer A rows than one register block (a decode step's
// single row) would pay for packing all of B and run the micro-kernel
// with most of its A rows zero-padded. These loops instead read each B
// row once, in place, and stream it against the few A rows. int32 sums
// are exact, so the loop order changes no bit; the float twin keeps the
// packed path, whose per-element rounding chain this would reorder.

/// Reads a RowSpanListI8's rows in ascending order. Dense operands arrive
/// as a one-run list and span operands walk their runs; int8 rows are
/// read in place and stored codes are decoded by `elems` as the row is
/// read, so both direct loops share one row source. The list must have
/// at least one row.
template <typename Elems>
class SpanRowReader {
 public:
  SpanRowReader(const RowSpanListI8& list, Elems elems)
      : cur_(span_row_cursor(list, 0)),
        row_stride_(list.row_stride),
        elems_(elems) {}

  /// Elements [c0, c0 + len) of the current row as int8 values: in place
  /// for int8 rows, else decoded into `scratch` (>= len elements).
  const int8_t* read(size_t c0, size_t len, int8_t* scratch) const {
    const int8_t* row = cur_.row(row_stride_);
    if constexpr (std::is_same_v<Elems, RawElems>) {
      return row + c0;
    } else {
      for (size_t j = 0; j < len; ++j) scratch[j] = elems_(row, c0 + j);
      return scratch;
    }
  }

  void advance() { cur_.advance(); }

 private:
  SpanRowCursor cur_;
  size_t row_stride_;
  Elems elems_;
};

/// sum_p a[p] * b[p]. `a` arrives widened to int16, so the loop
/// vectorizes to 16-bit multiply-adds.
inline int32_t dot_i8(const int16_t* __restrict a, const int8_t* __restrict b,
                      size_t len) {
  int32_t sum = 0;
  for (size_t p = 0; p < len; ++p) sum += a[p] * static_cast<int16_t>(b[p]);
  return sum;
}

inline void axpy_i8(int32_t s, const int8_t* __restrict b, size_t len,
                    int32_t* __restrict c) {
  for (size_t j = 0; j < len; ++j) c[j] += s * b[j];
}

/// c (m x n) = a (m x k) * bt^T, m < kGemmMr; `bt` lists B^T's n rows of
/// k elements, read through `elems`. Per K block, A's rows are widened
/// once and each B^T row is read once, meeting every A row in one int32
/// dot product.
template <typename Elems>
inline void direct_bt(const int8_t* a, size_t m, size_t k,
                      const RowSpanListI8& bt, Elems elems, int32_t* c) {
  assert(m < kGemmMr);  // bounds `awide`
  const size_t n = bt.rows;
  std::fill(c, c + m * n, 0);
  if (m == 0 || n == 0 || k == 0) return;
  alignas(64) int16_t awide[kGemmMr * kGemmKc];
  alignas(64) int8_t decoded[kGemmKc];
  for (size_t k0 = 0; k0 < k; k0 += kGemmKc) {
    const size_t kc = std::min(kGemmKc, k - k0);
    for (size_t i = 0; i < m; ++i) {
      std::copy_n(a + i * k + k0, kc, awide + i * kGemmKc);
    }
    SpanRowReader rows(bt, elems);
    for (size_t j = 0; j < n; ++j, rows.advance()) {
      const int8_t* brow = rows.read(k0, kc, decoded);
      for (size_t i = 0; i < m; ++i) {
        c[i * n + j] += dot_i8(awide + i * kGemmKc, brow, kc);
      }
    }
  }
}

/// c (m x n) = a (m x k) * b, m < kGemmMr; `b` lists B's k rows of n
/// elements, read through `elems`. Each B row is read once and added into
/// every output row, scaled by that row's A element, one kGemmKc-wide
/// column block at a time.
template <typename Elems>
inline void direct_b(const int8_t* a, size_t m, size_t k,
                     const RowSpanListI8& b, Elems elems, int32_t* c) {
  const size_t n = b.cols;
  std::fill(c, c + m * n, 0);
  if (m == 0 || n == 0 || k == 0) return;
  alignas(64) int8_t decoded[kGemmKc];
  SpanRowReader rows(b, elems);
  for (size_t p = 0; p < k; ++p, rows.advance()) {
    for (size_t j0 = 0; j0 < n; j0 += kGemmKc) {
      const size_t w = std::min(kGemmKc, n - j0);
      const int8_t* brow = rows.read(j0, w, decoded);
      for (size_t i = 0; i < m; ++i) {
        axpy_i8(a[i * k + p], brow, w, c + i * n + j0);
      }
    }
  }
}

}  // namespace protea::tensor::detail

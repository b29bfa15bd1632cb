// Internals of the int8 GEMM kernel layer (qgemm.cpp): the K-pair panel
// layout, the one multiply-add micro-kernel family that consumes it, and
// the packers that put an operand into it.
//
// Layout. B (k x n) is stored as ceil(n/8) column panels of ceil(k/2) K
// pairs; one pair is 8 columns x 2 consecutive k values, 16 bytes:
//
//   panel[cp][p][j][e] = B(2p + e, 8cp + j),  zero past k and past n.
//
// One 16-byte load is one K pair of a panel. Sign-extended to int16, its
// halves meet a broadcast A pair (a(i, 2p), a(i, 2p + 1)), widened to
// int16, in _mm_madd_epi16 (the AVX2 body widens the whole pair into one
// register for _mm256_madd_epi16): each int32 lane gets both products of
// one column, two MACs per lane. Weights are packed into this layout once,
// when the model is built or loaded (PackedWeightI8); activation operands
// (QK^T's K, SV's V) are packed per call, one K block at a time.
//
// Integer accumulation is exact and a padded zero contributes nothing, so
// the pair grouping, the K blocking and the padding change no bit: every
// entry point equals the naive loop.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

// GCC and Clang compile a function for AVX2 by attribute alone, so the
// AVX2 body below needs no -mavx2 and the binary still runs on an
// SSE2-only host: qgemm.cpp asks the CPU once which body to run.
#if defined(__SSE2__) && defined(__GNUC__)
#include <immintrin.h>
#define PROTEA_KPAIR_AVX2 1
#endif

#include "tensor/matrix.hpp"
#include "util/math_util.hpp"

namespace protea::tensor::detail {

inline constexpr size_t kPanelCols = 8;                  // columns per panel
inline constexpr size_t kPairBytes = 2 * kPanelCols;     // one K pair
inline constexpr size_t kMaxKernelRows = 4;              // A rows per call
inline constexpr size_t kKBlock = 256;                   // K per block, even

/// K pairs covering `k` elements (the last one zero-padded when k is odd).
inline size_t pairs_of(size_t k) { return (k + 1) / 2; }

/// Bytes of the K-pair panels holding a (k x n) operand.
inline size_t kpair_bytes(size_t k, size_t n) {
  return util::ceil_div(n, kPanelCols) * pairs_of(k) * kPairBytes;
}

// --- the micro-kernel family -------------------------------------------------
//
// acc[r * 8 + j] = sum over `pairs` K pairs p of
//     a[r * lda + 2p] * panel(p, j, 0) + a[r * lda + 2p + 1] * panel(p, j, 1)
// for R = 1..4 A rows, given as int16 pairs `lda` elements apart. The
// plain C++ body is always compiled, so a test can hold the others to it.
// The SSE2 body is the baseline wherever __SSE2__ is defined (every x86-64
// target); the AVX2 body, which reads two panels per call, replaces it on
// a CPU that has AVX2.

template <size_t R>
inline void kpair_kernel_portable(const int16_t* a, size_t lda,
                                  const int8_t* panel, size_t pairs,
                                  int32_t* acc) {
  std::fill(acc, acc + R * kPanelCols, 0);
  for (size_t p = 0; p < pairs; ++p) {
    const int8_t* b = panel + p * kPairBytes;
    for (size_t r = 0; r < R; ++r) {
      const int32_t a0 = a[r * lda + 2 * p];
      const int32_t a1 = a[r * lda + 2 * p + 1];
      for (size_t j = 0; j < kPanelCols; ++j) {
        acc[r * kPanelCols + j] += a0 * b[2 * j] + a1 * b[2 * j + 1];
      }
    }
  }
}

#ifdef __SSE2__
/// One K pair of a panel against R broadcast A pairs.
template <size_t R>
inline void kpair_madd(const int8_t* b_pair, const __m128i* a_pair,
                       __m128i* lo, __m128i* hi) {
  const __m128i b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(b_pair));
  const __m128i sign = _mm_cmpgt_epi8(_mm_setzero_si128(), b);
  const __m128i b_lo = _mm_unpacklo_epi8(b, sign);  // columns 0-3
  const __m128i b_hi = _mm_unpackhi_epi8(b, sign);  // columns 4-7
  for (size_t r = 0; r < R; ++r) {
    lo[r] = _mm_add_epi32(lo[r], _mm_madd_epi16(b_lo, a_pair[r]));
    hi[r] = _mm_add_epi32(hi[r], _mm_madd_epi16(b_hi, a_pair[r]));
  }
}

/// Broadcasts pair `kSel` of each row's four loaded pairs.
template <int kSel, size_t R>
inline void kpair_select(const __m128i* a4, __m128i* a_pair) {
  for (size_t r = 0; r < R; ++r) {
    a_pair[r] = _mm_shuffle_epi32(a4[r], kSel * 0x55);
  }
}

template <size_t R>
inline void kpair_kernel_sse2(const int16_t* a, size_t lda,
                              const int8_t* panel, size_t pairs,
                              int32_t* acc) {
  __m128i lo[R], hi[R], a4[R], a_pair[R];
  for (size_t r = 0; r < R; ++r) lo[r] = hi[r] = _mm_setzero_si128();
  size_t p = 0;
  // Four pairs per A load: one 16-byte load per row, one shuffle per pair.
  for (; p + 4 <= pairs; p += 4) {
    for (size_t r = 0; r < R; ++r) {
      a4[r] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(a + r * lda + 2 * p));
    }
    const int8_t* b = panel + p * kPairBytes;
    kpair_select<0, R>(a4, a_pair);
    kpair_madd<R>(b, a_pair, lo, hi);
    kpair_select<1, R>(a4, a_pair);
    kpair_madd<R>(b + kPairBytes, a_pair, lo, hi);
    kpair_select<2, R>(a4, a_pair);
    kpair_madd<R>(b + 2 * kPairBytes, a_pair, lo, hi);
    kpair_select<3, R>(a4, a_pair);
    kpair_madd<R>(b + 3 * kPairBytes, a_pair, lo, hi);
  }
  for (; p < pairs; ++p) {
    for (size_t r = 0; r < R; ++r) {
      int32_t two = 0;
      std::memcpy(&two, a + r * lda + 2 * p, sizeof(two));
      a_pair[r] = _mm_set1_epi32(two);
    }
    kpair_madd<R>(panel + p * kPairBytes, a_pair, lo, hi);
  }
  for (size_t r = 0; r < R; ++r) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + r * kPanelCols),
                     lo[r]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + r * kPanelCols + 4),
                     hi[r]);
  }
}
#endif  // __SSE2__

#ifdef PROTEA_KPAIR_AVX2
/// The AVX2 body over P = 1 or 2 adjacent column panels, `panel_stride`
/// bytes apart: acc[(r * P + q) * 8 + j] is column j of panel q. Per K
/// pair, one vpmovsxbw widens each panel's 16 bytes to 16 int16 lanes and
/// each row's broadcast A pair meets them in vpmaddwd, so two panels keep
/// an R x 16 block in 2R independent accumulators. Call it only on a CPU
/// with AVX2.
template <size_t R, size_t P>
__attribute__((target("avx2"))) inline void kpair_kernel_avx2(
    const int16_t* a, size_t lda, const int8_t* panel, size_t panel_stride,
    size_t pairs, int32_t* acc) {
  static_assert(R >= 1 && R <= kMaxKernelRows && (P == 1 || P == 2));
  __m256i sum[R][P];
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < P; ++q) sum[r][q] = _mm256_setzero_si256();
  }
  for (size_t p = 0; p < pairs; ++p) {
    __m256i b[P];
    for (size_t q = 0; q < P; ++q) {
      const auto* b_pair = reinterpret_cast<const __m128i*>(
          panel + q * panel_stride + p * kPairBytes);
      b[q] = _mm256_cvtepi8_epi16(_mm_loadu_si128(b_pair));
    }
    for (size_t r = 0; r < R; ++r) {
      int32_t two = 0;
      std::memcpy(&two, a + r * lda + 2 * p, sizeof(two));
      const __m256i a_pair = _mm256_set1_epi32(two);
      for (size_t q = 0; q < P; ++q) {
        sum[r][q] =
            _mm256_add_epi32(sum[r][q], _mm256_madd_epi16(b[q], a_pair));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < P; ++q) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(acc + (r * P + q) * kPanelCols),
          sum[r][q]);
    }
  }
}
#endif  // PROTEA_KPAIR_AVX2

template <size_t R>
inline void kpair_kernel(const int16_t* a, size_t lda, const int8_t* panel,
                         size_t pairs, int32_t* acc) {
  static_assert(R >= 1 && R <= kMaxKernelRows);
#ifdef __SSE2__
  kpair_kernel_sse2<R>(a, lda, panel, pairs, acc);
#else
  kpair_kernel_portable<R>(a, lda, panel, pairs, acc);
#endif
}

// --- operand readers ---------------------------------------------------------

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

// A RowSpanListI8 row is stored in one of three forms. An element reader
// turns a stored row and an element index into the int8 value; the
// packers are templates on the reader, so each form is one inlined
// expression inside the same loop. Zero padding stays a literal 0: padded
// lanes are synthesized in the decoded domain.

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

// --- packers -----------------------------------------------------------------
//
// Both write K range [k0, k0 + kc) of an n-column operand as K-pair panels
// of ceil(kc / 2) pairs at `dst` (kpair_bytes(kc, n) bytes), reading the
// operand's rows through `elems` in ascending order. kc >= 1, n >= 1.

/// From B (k x n), listed as its k rows of n elements: each source row is
/// read once and scattered across every panel, so block-strided rows (a
/// whole pooled token row apart) see one pass.
template <typename Elems>
inline void pack_kpair_b(const RowSpanListI8& b, Elems elems, size_t k0,
                         size_t kc, size_t n, int8_t* dst) {
  const size_t panel_bytes = pairs_of(kc) * kPairBytes;
  const size_t col_panels = util::ceil_div(n, kPanelCols);
  SpanRowCursor cur = span_row_cursor(b, k0);
  for (size_t p = 0; p < kc; ++p, cur.advance()) {
    const int8_t* src = cur.row(b.row_stride);
    int8_t* out = dst + (p / 2) * kPairBytes + p % 2;
    for (size_t cp = 0; cp < col_panels; ++cp, out += panel_bytes) {
      const size_t j0 = cp * kPanelCols;
      const size_t w = std::min(kPanelCols, n - j0);
      for (size_t j = 0; j < w; ++j) out[2 * j] = elems(src, j0 + j);
      for (size_t j = w; j < kPanelCols; ++j) out[2 * j] = 0;
    }
  }
  if (kc % 2 != 0) {  // the last pair's second K slot
    int8_t* out = dst + (kc / 2) * kPairBytes + 1;
    for (size_t cp = 0; cp < col_panels; ++cp, out += panel_bytes) {
      for (size_t j = 0; j < kPanelCols; ++j) out[2 * j] = 0;
    }
  }
}

/// From B^T (n x k), listed as its n rows of k elements (row j is B's
/// column j): the transpose happens here, so B and B^T operands feed the
/// same kernel.
template <typename Elems>
inline void pack_kpair_bt(const RowSpanListI8& bt, Elems elems, size_t k0,
                          size_t kc, size_t n, int8_t* dst) {
  const size_t pairs = pairs_of(kc);
  const size_t col_panels = util::ceil_div(n, kPanelCols);
  SpanRowCursor cur = span_row_cursor(bt, 0);
  for (size_t cp = 0; cp < col_panels; ++cp) {
    int8_t* panel = dst + cp * pairs * kPairBytes;
    const size_t w = std::min(kPanelCols, n - cp * kPanelCols);
    for (size_t j = 0; j < w; ++j, cur.advance()) {
      const int8_t* src = cur.row(bt.row_stride);
      int8_t* out = panel + 2 * j;
      size_t p = 0;
      for (; p + 1 < kc; p += 2, out += kPairBytes) {
        out[0] = elems(src, k0 + p);
        out[1] = elems(src, k0 + p + 1);
      }
      if (p < kc) {
        out[0] = elems(src, k0 + p);
        out[1] = 0;
      }
    }
    for (size_t j = w; j < kPanelCols; ++j) {
      for (size_t p = 0; p < pairs; ++p) {
        panel[p * kPairBytes + 2 * j] = 0;
        panel[p * kPairBytes + 2 * j + 1] = 0;
      }
    }
  }
}

// --- small-M direct path (activation operands only) -------------------------
//
// A decode step's QK^T over K spans and SV over V spans have fewer A rows
// than one register block, and their B is an activation, so packing it
// would be a second pass over B for one product: measured slower than
// reading each B row once, in place, against the few A rows. Weights
// never come here: they are packed once at load. int32 sums are exact,
// so the loop order changes no bit.

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

/// c (m x n) = a (m x k) * bt^T, m < kMaxKernelRows; `bt` lists B^T's n rows of
/// k elements, read through `elems`. Per K block, A's rows are widened
/// once and each B^T row is read once, meeting every A row in one int32
/// dot product.
template <typename Elems>
inline void direct_bt(const int8_t* a, size_t m, size_t k,
                      const RowSpanListI8& bt, Elems elems, int32_t* c) {
  assert(m < kMaxKernelRows);  // bounds `awide`
  const size_t n = bt.rows;
  std::fill(c, c + m * n, 0);
  if (m == 0 || n == 0 || k == 0) return;
  alignas(64) int16_t awide[kMaxKernelRows * kKBlock];
  alignas(64) int8_t decoded[kKBlock];
  for (size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const size_t kc = std::min(kKBlock, k - k0);
    for (size_t i = 0; i < m; ++i) {
      std::copy_n(a + i * k + k0, kc, awide + i * kKBlock);
    }
    SpanRowReader rows(bt, elems);
    for (size_t j = 0; j < n; ++j, rows.advance()) {
      const int8_t* brow = rows.read(k0, kc, decoded);
      for (size_t i = 0; i < m; ++i) {
        c[i * n + j] += dot_i8(awide + i * kKBlock, brow, kc);
      }
    }
  }
}

/// c (m x n) = a (m x k) * b, m < kMaxKernelRows; `b` lists B's k rows of n
/// elements, read through `elems`. Each B row is read once and added into
/// every output row, scaled by that row's A element, one kKBlock-wide
/// column block at a time.
template <typename Elems>
inline void direct_b(const int8_t* a, size_t m, size_t k,
                     const RowSpanListI8& b, Elems elems, int32_t* c) {
  const size_t n = b.cols;
  std::fill(c, c + m * n, 0);
  if (m == 0 || n == 0 || k == 0) return;
  alignas(64) int8_t decoded[kKBlock];
  SpanRowReader rows(b, elems);
  for (size_t p = 0; p < k; ++p, rows.advance()) {
    for (size_t j0 = 0; j0 < n; j0 += kKBlock) {
      const size_t w = std::min(kKBlock, n - j0);
      const int8_t* brow = rows.read(j0, w, decoded);
      for (size_t i = 0; i < m; ++i) {
        axpy_i8(a[i * k + p], brow, w, c + i * n + j0);
      }
    }
  }
}

}  // namespace protea::tensor::detail

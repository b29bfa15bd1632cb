// int8 GEMM — the kernel layer every compute engine in the simulator
// bottoms out in.
//
// The paper's datapath (§IV, Figs. 5-6) is tiled int8 x int8 -> int32
// accumulation; this layer practices the same idiom on the host CPU. Every
// entry point below picks one of two loop orders from the shape of A
// alone — no option or tuning knob:
//
//   * Packed (A has >= kGemmMr = 4 rows: prefill chunks, cross-K/V fill,
//     the encoder). Operand panels are packed into contiguous tile
//     buffers so the micro-kernel streams both inputs with unit stride
//     (the B^T variant transposes during packing, which is what makes the
//     engines' transposed-weight layout free); a kMr x kNr block of int32
//     accumulators stays in registers while the packed panels stream
//     through, with operands widened to int16 so the inner loop
//     auto-vectorizes to widening multiply-adds; K is blocked at kKc so
//     one A panel + one B panel stay cache-resident. Row panels spread
//     over `pool` when one is given.
//   * Direct (A has fewer than kGemmMr rows: decode steps). Packing all of
//     B for one A row would cost as much as the product, and the 4-row
//     micro-kernel would multiply zero padding. B's rows — dense, span
//     runs, byte codes or nibble codes alike — are read once, in place
//     (codes decoded as they are read): a B^T row becomes one int32 dot
//     product per A row, a B row one axpy into each int32 output row.
//     This path is serial whatever `pool` is.
//
// Integer accumulation is exact, so either loop order and any
// packing/blocking/threading produces bit-identical int32 sums — the naive
// references below are retained to verify exactly that (and as the bench
// speedup baseline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace protea::util {
class ThreadPool;
}

namespace protea::tensor {

// Block sizes (register block kGemmMr x kGemmNr, K block kGemmKc) live in
// tensor/gemm_detail.hpp, shared with the float twin in ops.cpp.

/// c(i,j) = sum_k a(i,k) * b(k,j). a is (m x k) int8, b is (k x n) int8,
/// c is resized to (m x n) int32. Row panels are distributed over `pool`
/// when given; the result is identical for any thread count.
void qgemm(const MatrixI8& a, const MatrixI8& b, MatrixI32& c,
           util::ThreadPool* pool = nullptr);

/// c = a * bt^T where bt is (n x k) — the transposed-weight layout the
/// engines store (QHeadWeights::wqt, projection weights, K in Q.K^T).
void qgemm_bt(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c,
              util::ThreadPool* pool = nullptr);

/// Packed-B scratch elements qgemm_into/qgemm_bt_into need for an
/// `n`-column product (one K block of zero-padded column panels).
size_t qgemm_pack_elems(size_t n);

/// Allocation-free twins for the runtime's steady-state forward path:
/// `c` is a preallocated (a.rows x n) view and `pack_buf` holds at least
/// qgemm_pack_elems(n) elements — both normally arena-backed. Results are
/// bit-identical to the owning variants for any pool.
void qgemm_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b, MatrixViewI32 c,
                std::span<int8_t> pack_buf, util::ThreadPool* pool = nullptr);
void qgemm_bt_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt, MatrixViewI32 c,
                   std::span<int8_t> pack_buf,
                   util::ThreadPool* pool = nullptr);

/// Block-strided twins: the B operand is a RowSpanListI8 — a logical
/// matrix stored as row runs resident in (possibly non-contiguous) block
/// storage, e.g. a paged KV cache's block table. The packed path's panels
/// and the direct path's row reads come straight from the runs, making
/// the result bit-identical to gathering the runs into a contiguous
/// matrix first. Every run must hold at least one row.
/// qgemm_spans_into treats the list as the (k x n) B (c = a * b);
/// qgemm_bt_spans_into as the (n x k) B^T (c = a * bt^T).
///
/// Quantized rows: when the list carries a decode table the spanned
/// bytes are stored codes — one per byte (fp8), or two per byte when
/// RowSpanListI8::nibbles is set (packed fp4, low nibble first) — and
/// each element is decoded as B is packed or read. Accumulation stays
/// int16/int32 widening, so the result is bit-identical to decoding B
/// into an int8 matrix first; the decoded matrix is never materialized.
/// A dense code matrix is passed as a one-run list.
void qgemm_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& b,
                      MatrixViewI32 c, std::span<int8_t> pack_buf,
                      util::ThreadPool* pool = nullptr);
void qgemm_bt_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& bt,
                         MatrixViewI32 c, std::span<int8_t> pack_buf,
                         util::ThreadPool* pool = nullptr);

/// Naive triple-loop references (the seed's original loop nests), retained
/// as the test oracle and the bench speedup baseline.
void qgemm_naive(const MatrixI8& a, const MatrixI8& b, MatrixI32& c);
void qgemm_bt_naive(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c);

/// Shared kernel pool the engines route their GEMMs through. Returns
/// nullptr (serial execution) until qgemm_set_threads(n >= 2) is called.
util::ThreadPool* qgemm_default_pool();

/// Configures the shared kernel pool: 0 or 1 disables threading. Not
/// thread-safe against concurrent qgemm calls; intended for bench/example
/// setup code.
void qgemm_set_threads(size_t n);

}  // namespace protea::tensor

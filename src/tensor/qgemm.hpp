// int8 GEMM — the kernel layer every compute engine in the simulator
// bottoms out in.
//
// The paper's datapath (§IV, Figs. 5-6) is tiled int8 x int8 -> int32
// accumulation over weight tiles read in the layout the PE arrays
// consume; this layer practices the same idiom on the host CPU. B is held
// in one layout, K-pair panels (tensor/qgemm_detail.hpp): column panels of
// 8, each K pair of a column stored as two adjacent bytes. One
// multiply-add micro-kernel family serves those panels for 1-4 A rows at
// a time, at every m, with A widened to int16 pairs per call. Its body is
// chosen once per process from the CPU's features (qgemm_kernel_body()):
// AVX2, two panels per call, where the CPU has it, else SSE2, one panel
// per call; every body gives the same sums.
//
//   * Weights are packed once, when the model is built or loaded
//     (PackedWeightI8), and are read-only after that: qgemm_packed_into
//     does no packing and no lookup per call.
//   * Activation operands (QK^T's K, SV's V; dense or span runs, int8
//     rows or fp8/fp4 codes) are packed per call into the same layout,
//     one K block at a time, through the caller's scratch.
//
// Every entry point runs on the calling thread. Serving parallelism comes
// from above this layer: the traffic engine's seats and the batch
// scheduler's workers each run their own products.
//
// Integer accumulation is exact, so any packing/blocking produces
// bit-identical int32 sums — the naive references below are retained to
// verify exactly that (and as the bench speedup baseline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace protea::tensor {

/// An int8 weight matrix stored once in the kernel's K-pair panel layout
/// (no logical copy is kept). It remembers the orientation it was packed
/// from: `from_b` takes a (k x n) [in][out] matrix, `from_bt` an (n x k)
/// [out][in] one (the per-head projection layout). rows(), cols(),
/// operator() and to_matrix() address that stored orientation; k() and
/// n() are the product's inner and output widths either way. Packing is
/// explicit: nothing converts a MatrixI8 implicitly.
class PackedWeightI8 {
 public:
  PackedWeightI8() = default;

  static PackedWeightI8 from_b(ConstMatrixViewI8 b);
  static PackedWeightI8 from_bt(ConstMatrixViewI8 bt);

  size_t k() const { return k_; }
  size_t n() const { return n_; }
  size_t rows() const { return transposed_ ? n_ : k_; }
  size_t cols() const { return transposed_ ? k_ : n_; }
  /// Logical elements (= stored bytes when k is even and n % 8 == 0).
  size_t size() const { return k_ * n_; }

  /// Element (r, c) of the stored orientation.
  int8_t operator()(size_t r, size_t c) const;
  /// The logical matrix in its stored orientation (serialization, tests).
  MatrixI8 to_matrix() const;

  /// The K-pair panels: ceil(n/8) panels of ceil(k/2) 16-byte pairs.
  const int8_t* panels() const { return panels_.data(); }

  bool operator==(const PackedWeightI8&) const = default;

 private:
  static PackedWeightI8 pack(ConstMatrixViewI8 m, bool transposed);

  size_t k_ = 0;
  size_t n_ = 0;
  bool transposed_ = false;
  std::vector<int8_t> panels_;
};

/// c (m x w.n()) = a (m x w.k()) * W, into a preallocated view. The
/// weight path: no scratch, no packing.
void qgemm_packed_into(ConstMatrixViewI8 a, const PackedWeightI8& w,
                       MatrixViewI32 c);

/// c(i,j) = sum_k a(i,k) * b(k,j). a is (m x k) int8, b is (k x n) int8,
/// c is resized to (m x n) int32.
void qgemm(const MatrixI8& a, const MatrixI8& b, MatrixI32& c);

/// c = a * bt^T where bt is (n x k).
void qgemm_bt(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c);

/// Packing scratch elements the per-call entry points below need for an
/// `n`-column product (one K block of zero-padded K-pair panels).
size_t qgemm_pack_elems(size_t n);

/// Allocation-free twins for activation operands on the runtime's
/// steady-state path: `c` is a preallocated (a.rows x n) view and
/// `pack_buf` holds at least qgemm_pack_elems(n) elements — both normally
/// arena-backed. Results are bit-identical to the owning variants.
void qgemm_into(ConstMatrixViewI8 a, ConstMatrixViewI8 b, MatrixViewI32 c,
                std::span<int8_t> pack_buf);
void qgemm_bt_into(ConstMatrixViewI8 a, ConstMatrixViewI8 bt, MatrixViewI32 c,
                   std::span<int8_t> pack_buf);

/// Block-strided twins: the B operand is a RowSpanListI8 — a logical
/// matrix stored as row runs resident in (possibly non-contiguous) block
/// storage, e.g. a paged KV cache's block table. The panels are packed
/// straight from the runs, making the result bit-identical to gathering
/// the runs into a contiguous matrix first. Every run must hold at least
/// one row. qgemm_spans_into treats the list as the (k x n) B
/// (c = a * b); qgemm_bt_spans_into as the (n x k) B^T (c = a * bt^T).
///
/// Quantized rows: when the list carries a decode table the spanned
/// bytes are stored codes — one per byte (fp8), or two per byte when
/// RowSpanListI8::nibbles is set (packed fp4, low nibble first) — and
/// each element is decoded as B is packed. Accumulation stays int16/int32
/// widening, so the result is bit-identical to decoding B into an int8
/// matrix first; the decoded matrix is never materialized. A dense code
/// matrix is passed as a one-run list.
void qgemm_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& b,
                      MatrixViewI32 c, std::span<int8_t> pack_buf);
void qgemm_bt_spans_into(ConstMatrixViewI8 a, const RowSpanListI8& bt,
                         MatrixViewI32 c, std::span<int8_t> pack_buf);

/// The micro-kernel body this process runs: "avx2", "sse2" or "portable"
/// (no x86 SIMD). Read-only; the CPU's features alone decide it.
const char* qgemm_kernel_body();

/// Naive triple-loop references (the seed's original loop nests), retained
/// as the test oracle and the bench speedup baseline.
void qgemm_naive(const MatrixI8& a, const MatrixI8& b, MatrixI32& c);
void qgemm_bt_naive(const MatrixI8& a, const MatrixI8& bt, MatrixI32& c);

}  // namespace protea::tensor

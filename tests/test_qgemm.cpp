// Tests for the int8 GEMM kernel layer: exact equivalence of every entry
// point — weights packed once into K-pair panels, activation operands
// packed per call or read in place by the small-M direct loops, dense and
// span operands, int8 rows, byte codes and packed nibble codes — with the
// retained naive references on ragged, degenerate and random shapes;
// every compiled micro-kernel body (portable, SSE2, AVX2 one- and
// two-panel) against the layout's definition, and the body the CPU
// selects; the packed weight's round trip; argument checks; and
// bit-identity of the engines that ride on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/engines.hpp"
#include "accel/quantized_model.hpp"
#include "numeric/fp8.hpp"
#include "numeric/requantize.hpp"
#include "tensor/qgemm.hpp"
#include "tensor/qgemm_detail.hpp"
#include "util/rng.hpp"

namespace protea::tensor {
namespace {

MatrixI8 random_i8(size_t r, size_t c, uint64_t seed) {
  MatrixI8 m(r, c);
  util::Xoshiro256 rng(seed);
  for (auto& x : m.flat()) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  return m;
}

struct Shape {
  size_t m, k, n;
};

// Ragged (non-multiples of the 4x8 register block and the 256 K block),
// degenerate, and decode-step shapes. m < 4 takes the small-M direct
// path, m >= 4 the packed path.
const Shape kShapes[] = {
    {1, 1, 1},      {4, 8, 8},    {5, 7, 9},     {13, 31, 17},
    {3, 300, 11},   {64, 64, 64}, {1, 128, 96},  // SL=1 decode step
    {0, 8, 8},      {8, 0, 8},    {8, 8, 0},     {65, 257, 33},
    {2, 19, 13},    {1, 600, 21},  // direct path across K blocks
};

MatrixI8 transposed(const MatrixI8& m) {
  MatrixI8 t(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
  }
  return t;
}

MatrixI8 decoded(const MatrixI8& codes, const int8_t* lut) {
  MatrixI8 out(codes.rows(), codes.cols());
  for (size_t i = 0; i < codes.size(); ++i) {
    out.data()[i] = lut[static_cast<uint8_t>(codes.data()[i])];
  }
  return out;
}

/// Codes 0..15 (one fp4 nibble per element) from any int8 matrix.
MatrixI8 nibble_codes(const MatrixI8& m) {
  MatrixI8 out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) out.data()[i] = m.data()[i] & 0x0f;
  return out;
}

/// A dense row-major matrix as the one-run list the span entry points
/// take for it (no runs when it has no rows). `run` must outlive the
/// list.
RowSpanListI8 dense_list(const MatrixI8& m, const RowSpanI8& run,
                         const int8_t* decode) {
  return {.runs = m.rows() > 0 ? std::span<const RowSpanI8>(&run, 1)
                               : std::span<const RowSpanI8>(),
          .rows = m.rows(),
          .cols = m.cols(),
          .row_stride = m.cols(),
          .decode = decode};
}

constexpr size_t kDefaultRuns[] = {1, 3, 1, 2};

/// `m`'s rows as a scattered multi-run RowSpanListI8, the shape a paged KV
/// block table hands the kernels: runs of `run_sizes` rows, cycled (1, 3,
/// 1, 2, ... by default), stored last run first with a padded row stride
/// and a filler row between runs, so a cursor that strays off its run
/// reads wrong bytes. With `nibbles`, `m` holds 4-bit codes and each row
/// is stored two codes per byte, low nibble first; an odd row's unused
/// high nibble is filler too.
class SpanOperand {
 public:
  SpanOperand(const MatrixI8& m, const int8_t* decode, bool nibbles = false,
              std::span<const size_t> run_sizes = kDefaultRuns) {
    std::vector<size_t> run_rows;
    for (size_t r = 0; r < m.rows(); r += run_rows.back()) {
      run_rows.push_back(std::min(
          run_sizes[run_rows.size() % run_sizes.size()], m.rows() - r));
    }
    list_.rows = m.rows();
    list_.cols = m.cols();
    list_.decode = decode;
    list_.nibbles = nibbles;
    const size_t stride = list_.row_bytes() + 3;
    storage_.assign((m.rows() + run_rows.size()) * stride, int8_t{0x5A});
    size_t slot = storage_.size() / stride;
    size_t row = 0;
    for (size_t rows : run_rows) {
      slot -= rows + 1;
      int8_t* base = storage_.data() + slot * stride;
      for (size_t i = 0; i < rows; ++i) {
        store_row(m.row(row + i), base + i * stride);
      }
      runs_.push_back({base, rows});
      row += rows;
    }
    list_.runs = runs_;
    list_.row_stride = stride;
  }
  SpanOperand(const SpanOperand&) = delete;
  SpanOperand& operator=(const SpanOperand&) = delete;

  const RowSpanListI8& list() const { return list_; }

 private:
  void store_row(std::span<const int8_t> row, int8_t* dst) const {
    if (!list_.nibbles) {
      std::copy(row.begin(), row.end(), dst);
      return;
    }
    for (size_t j = 0; j < row.size(); j += 2) {
      const auto hi = j + 1 < row.size() ? row[j + 1] : int8_t{0x5};
      dst[j / 2] = static_cast<int8_t>(row[j] | (hi << 4));
    }
  }

  std::vector<int8_t> storage_;
  std::vector<RowSpanI8> runs_;
  RowSpanListI8 list_;
};

TEST(QGemm, MatchesNaiveOnRaggedShapes) {
  uint64_t seed = 1;
  for (const auto& s : kShapes) {
    const auto a = random_i8(s.m, s.k, seed++);
    const auto b = random_i8(s.k, s.n, seed++);
    MatrixI32 packed, naive;
    qgemm(a, b, packed);
    qgemm_naive(a, b, naive);
    EXPECT_EQ(packed, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(QGemmBt, MatchesNaiveOnRaggedShapes) {
  uint64_t seed = 100;
  for (const auto& s : kShapes) {
    const auto a = random_i8(s.m, s.k, seed++);
    const auto bt = random_i8(s.n, s.k, seed++);
    MatrixI32 packed, naive;
    qgemm_bt(a, bt, packed);
    qgemm_bt_naive(a, bt, naive);
    EXPECT_EQ(packed, naive) << "m=" << s.m << " k=" << s.k << " n=" << s.n;
  }
}

TEST(QGemm, AgreesWithBtOnTransposedOperand) {
  const auto a = random_i8(9, 33, 7);
  const auto b = random_i8(33, 21, 8);
  MatrixI8 bt(b.cols(), b.rows());
  for (size_t r = 0; r < b.rows(); ++r) {
    for (size_t c = 0; c < b.cols(); ++c) bt(c, r) = b(r, c);
  }
  MatrixI32 c1, c2;
  qgemm(a, b, c1);
  qgemm_bt(a, bt, c2);
  EXPECT_EQ(c1, c2);
}

TEST(QGemm, InnerDimensionMismatchThrows) {
  const auto a = random_i8(4, 5, 300);
  const auto b = random_i8(6, 4, 301);
  MatrixI32 c;
  EXPECT_THROW(qgemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(qgemm_bt(a, random_i8(4, 6, 302), c), std::invalid_argument);
}

TEST(QGemmEntryPoints, EveryEntryPointMatchesNaiveOracle) {
  // Each of the six int8 entry points against the naive loop on the
  // decoded operand. The span entry points also take dense code matrices
  // as one-run lists, and multi-run lists of int8 rows, fp8 byte codes and
  // packed fp4 nibble codes.
  const int8_t* lut = numeric::kv_codec(numeric::KvStorage::kFp8E4M3)
                          ->decode.data();
  const int8_t* lut4 = numeric::kv_codec(numeric::KvStorage::kFp4E2M1)
                           ->decode.data();
  uint64_t seed = 500;
  for (const auto& s : kShapes) {
    SCOPED_TRACE("m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
                 " n=" + std::to_string(s.n));
    const auto a = random_i8(s.m, s.k, seed++);
    const auto b = random_i8(s.k, s.n, seed++);  // int8 values or fp8 codes
    const auto bt = transposed(b);
    const auto b4 = nibble_codes(b), bt4 = transposed(b4);
    MatrixI32 want, want_bt, want_lut, want_bt_lut, want_4, want_bt_4;
    qgemm_naive(a, b, want);
    qgemm_bt_naive(a, bt, want_bt);
    qgemm_naive(a, decoded(b, lut), want_lut);
    qgemm_bt_naive(a, decoded(bt, lut), want_bt_lut);
    qgemm_naive(a, decoded(b4, lut4), want_4);
    qgemm_bt_naive(a, decoded(bt4, lut4), want_bt_4);

    const RowSpanI8 b_run{b.data(), b.rows()}, bt_run{bt.data(), bt.rows()};
    const RowSpanListI8 b_dense_codes = dense_list(b, b_run, lut);
    const RowSpanListI8 bt_dense_codes = dense_list(bt, bt_run, lut);
    const SpanOperand b_spans(b, nullptr), bt_spans(bt, nullptr);
    const SpanOperand b_codes(b, lut), bt_codes(bt, lut);
    const SpanOperand b_nibbles(b4, lut4, true), bt_nibbles(bt4, lut4, true);
    std::vector<int8_t> pack(qgemm_pack_elems(s.n));
    MatrixI32 got;
    qgemm(a, b, got);
    EXPECT_EQ(got, want) << "qgemm";
    qgemm_bt(a, bt, got);
    EXPECT_EQ(got, want_bt) << "qgemm_bt";

    // The view-output twins start from garbage, so a kernel that adds
    // into c instead of overwriting it fails.
    const auto check = [&](const char* name, const MatrixI32& expect,
                           const auto& call) {
      got.fill(0x7777);
      call();
      EXPECT_EQ(got, expect) << name;
    };
    check("qgemm_into", want, [&] { qgemm_into(a, b, got, pack); });
    check("qgemm_bt_into", want_bt, [&] { qgemm_bt_into(a, bt, got, pack); });
    check("qgemm_spans_into", want,
          [&] { qgemm_spans_into(a, b_spans.list(), got, pack); });
    check("qgemm_bt_spans_into", want_bt,
          [&] { qgemm_bt_spans_into(a, bt_spans.list(), got, pack); });
    check("qgemm_spans_into (dense codes)", want_lut,
          [&] { qgemm_spans_into(a, b_dense_codes, got, pack); });
    check("qgemm_bt_spans_into (dense codes)", want_bt_lut,
          [&] { qgemm_bt_spans_into(a, bt_dense_codes, got, pack); });
    check("qgemm_spans_into (decode)", want_lut,
          [&] { qgemm_spans_into(a, b_codes.list(), got, pack); });
    check("qgemm_bt_spans_into (decode)", want_bt_lut,
          [&] { qgemm_bt_spans_into(a, bt_codes.list(), got, pack); });
    check("qgemm_spans_into (nibbles)", want_4,
          [&] { qgemm_spans_into(a, b_nibbles.list(), got, pack); });
    check("qgemm_bt_spans_into (nibbles)", want_bt_4,
          [&] { qgemm_bt_spans_into(a, bt_nibbles.list(), got, pack); });
  }
}

TEST(QGemmEntryPoints, ArgumentChecksHoldOnBothPaths) {
  // The direct path never packs, yet its callers get the same contract.
  const int8_t* lut4 = numeric::kv_codec(numeric::KvStorage::kFp4E2M1)
                           ->decode.data();
  for (size_t m : {1, 8}) {
    const auto a = random_i8(m, 16, 600);
    const auto b = random_i8(16, 12, 601);
    std::vector<int8_t> pack(qgemm_pack_elems(12));
    std::vector<int8_t> short_pack(qgemm_pack_elems(12) - 1);
    MatrixI32 c(m, 12), wrong(m, 11);
    EXPECT_THROW(qgemm_into(a, b, c, short_pack), std::invalid_argument);
    EXPECT_THROW(qgemm_into(a, b, wrong, pack), std::invalid_argument);

    // Nibble rows need a decode table, and a stride of at least
    // (cols + 1) / 2 bytes: B as 16 rows of 12 codes (6 bytes), B^T as
    // 12 rows of 15 codes (8 bytes, odd width).
    const RowSpanI8 run{b.data(), 16}, run_t{b.data(), 12};
    RowSpanListI8 nb{.runs = {&run, 1},
                     .rows = 16,
                     .cols = 12,
                     .row_stride = 6,
                     .nibbles = true};
    EXPECT_THROW(qgemm_spans_into(a, nb, c, pack), std::invalid_argument);
    nb.decode = lut4;
    EXPECT_NO_THROW(qgemm_spans_into(a, nb, c, pack));
    nb.row_stride = 5;
    EXPECT_THROW(qgemm_spans_into(a, nb, c, pack), std::invalid_argument);

    const auto a15 = random_i8(m, 15, 602);
    RowSpanListI8 nbt{.runs = {&run_t, 1},
                      .rows = 12,
                      .cols = 15,
                      .row_stride = 8,
                      .nibbles = true};
    EXPECT_THROW(qgemm_bt_spans_into(a15, nbt, c, pack),
                 std::invalid_argument);
    nbt.decode = lut4;
    EXPECT_NO_THROW(qgemm_bt_spans_into(a15, nbt, c, pack));
    nbt.row_stride = 7;
    EXPECT_THROW(qgemm_bt_spans_into(a15, nbt, c, pack),
                 std::invalid_argument);
  }
}

TEST(QGemmEntryPoints, SpanListWithEmptyRunThrows) {
  // A zero-row run between non-empty runs sums correctly but would stop
  // the row cursor on a run with no rows; both span entry points reject
  // it up front.
  const auto a1 = random_i8(1, 4, 700);
  const auto a8 = random_i8(8, 4, 701);
  const auto rows = random_i8(5, 4, 702);
  const RowSpanI8 runs[] = {
      {rows.row(0).data(), 2}, {rows.row(2).data(), 0},
      {rows.row(2).data(), 3}};
  const RowSpanListI8 list{
      .runs = runs, .rows = 5, .cols = 4, .row_stride = 4};
  std::vector<int8_t> pack(qgemm_pack_elems(5));
  for (const MatrixI8* a : {&a1, &a8}) {
    MatrixI32 c(a->rows(), 4), ct(a->rows(), 5);
    const auto a_k5 = random_i8(a->rows(), 5, 703);
    EXPECT_THROW(qgemm_spans_into(a_k5, list, c, pack),
                 std::invalid_argument);
    EXPECT_THROW(qgemm_bt_spans_into(*a, list, ct, pack),
                 std::invalid_argument);
  }
}

TEST(QGemmPacked, MatchesNaiveOnBothSidesOfEveryBoundary) {
  // The weight path, packed from B ([in][out]) and from B^T ([out][in]),
  // on both sides of the 4-row kernel, the 8-column panel, the AVX2
  // body's 16-column two-panel step and the 256 K block; an odd K pads
  // its last pair.
  uint64_t seed = 900;
  for (size_t m : {0, 1, 2, 3, 4, 5, 8, 65}) {
    for (size_t k : {0, 1, 2, 3, 255, 256, 257, 511, 513}) {
      for (size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 24, 25, 33}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n));
        const auto a = random_i8(m, k, seed++);
        const auto b = random_i8(k, n, seed++);
        MatrixI32 want;
        qgemm_naive(a, b, want);
        MatrixI32 got(m, n, 0x7777);
        qgemm_packed_into(a, PackedWeightI8::from_b(b), got);
        EXPECT_EQ(got, want) << "from_b";
        got.fill(0x7777);
        qgemm_packed_into(a, PackedWeightI8::from_bt(transposed(b)), got);
        EXPECT_EQ(got, want) << "from_bt";
      }
    }
  }
  const auto w = PackedWeightI8::from_b(random_i8(16, 12, 950));
  MatrixI32 c(2, 12), wrong(2, 11);
  EXPECT_THROW(qgemm_packed_into(random_i8(2, 15, 951), w, c),
               std::invalid_argument);
  EXPECT_THROW(qgemm_packed_into(random_i8(2, 16, 952), w, wrong),
               std::invalid_argument);
}

TEST(QGemmEntryPoints, RandomShapesMatchNaiveOracle) {
  // A fixed-seed feed of random shapes and random run splits through
  // every int8 entry point, with all three element readers.
  const int8_t* lut = numeric::kv_codec(numeric::KvStorage::kFp8E4M3)
                          ->decode.data();
  const int8_t* lut4 = numeric::kv_codec(numeric::KvStorage::kFp4E2M1)
                           ->decode.data();
  util::Xoshiro256 rng(4242);
  for (int iter = 0; iter < 64; ++iter) {
    const size_t m = rng.bounded(70), k = rng.bounded(600);
    const size_t n = rng.bounded(70);
    std::vector<size_t> runs(1 + rng.bounded(4));
    for (size_t& r : runs) r = 1 + rng.bounded(9);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " m=" + std::to_string(m) +
                 " k=" + std::to_string(k) + " n=" + std::to_string(n));
    const auto a = random_i8(m, k, rng.next());
    const auto b = random_i8(k, n, rng.next());
    const auto bt = transposed(b);
    const auto b4 = nibble_codes(b), bt4 = transposed(b4);
    MatrixI32 want, want_lut, want_4;
    qgemm_naive(a, b, want);
    qgemm_naive(a, decoded(b, lut), want_lut);
    qgemm_naive(a, decoded(b4, lut4), want_4);

    const SpanOperand b_spans(b, nullptr, false, runs);
    const SpanOperand bt_spans(bt, nullptr, false, runs);
    const SpanOperand b_codes(b, lut, false, runs);
    const SpanOperand bt_codes(bt, lut, false, runs);
    const SpanOperand b_nibbles(b4, lut4, true, runs);
    const SpanOperand bt_nibbles(bt4, lut4, true, runs);
    std::vector<int8_t> pack(qgemm_pack_elems(n));
    MatrixI32 got;
    qgemm(a, b, got);
    EXPECT_EQ(got, want) << "qgemm";
    qgemm_bt(a, bt, got);
    EXPECT_EQ(got, want) << "qgemm_bt";
    const auto check = [&](const char* name, const MatrixI32& expect,
                           const auto& call) {
      got.fill(0x7777);
      call();
      EXPECT_EQ(got, expect) << name;
    };
    check("qgemm_packed_into (from_b)", want, [&] {
      qgemm_packed_into(a, PackedWeightI8::from_b(b), got);
    });
    check("qgemm_packed_into (from_bt)", want, [&] {
      qgemm_packed_into(a, PackedWeightI8::from_bt(bt), got);
    });
    check("qgemm_into", want, [&] { qgemm_into(a, b, got, pack); });
    check("qgemm_bt_into", want, [&] { qgemm_bt_into(a, bt, got, pack); });
    check("qgemm_spans_into", want,
          [&] { qgemm_spans_into(a, b_spans.list(), got, pack); });
    check("qgemm_bt_spans_into", want,
          [&] { qgemm_bt_spans_into(a, bt_spans.list(), got, pack); });
    check("qgemm_spans_into (decode)", want_lut,
          [&] { qgemm_spans_into(a, b_codes.list(), got, pack); });
    check("qgemm_bt_spans_into (decode)", want_lut,
          [&] { qgemm_bt_spans_into(a, bt_codes.list(), got, pack); });
    check("qgemm_spans_into (nibbles)", want_4,
          [&] { qgemm_spans_into(a, b_nibbles.list(), got, pack); });
    check("qgemm_bt_spans_into (nibbles)", want_4,
          [&] { qgemm_bt_spans_into(a, bt_nibbles.list(), got, pack); });
  }
}

template <size_t R>
void expect_kernel_bodies_agree(util::Xoshiro256& rng, size_t pairs) {
  // A rows arrive widened from int8, `lda` = the driver's K block.
  const size_t lda = detail::kKBlock;
  std::vector<int16_t> a(R * lda);
  for (auto& x : a) x = static_cast<int16_t>(int(rng.bounded(256)) - 128);
  std::vector<int8_t> panel(pairs * detail::kPairBytes);
  for (auto& x : panel) x = static_cast<int8_t>(int(rng.bounded(256)) - 128);
  int32_t want[R * 8] = {};
  for (size_t r = 0; r < R; ++r) {
    for (size_t j = 0; j < 8; ++j) {
      for (size_t p = 0; p < 2 * pairs; ++p) {
        want[r * 8 + j] += a[r * lda + p] *
                           panel[(p / 2) * detail::kPairBytes + 2 * j + p % 2];
      }
    }
  }
  int32_t got[R * 8];
  detail::kpair_kernel_portable<R>(a.data(), lda, panel.data(), pairs, got);
  EXPECT_TRUE(std::equal(got, got + R * 8, want)) << "portable";
#ifdef __SSE2__
  detail::kpair_kernel_sse2<R>(a.data(), lda, panel.data(), pairs, got);
  EXPECT_TRUE(std::equal(got, got + R * 8, want)) << "sse2";
#endif
}

TEST(QGemmKernel, PortableBodyMatchesSse2Body) {
  // The build runs the SSE2 body on x86-64, so the plain C++ fallback is
  // held to the same sums here: R = 1..4 rows, pair counts on both sides
  // of the four-pair step, odd ones included.
  util::Xoshiro256 rng(77);
  for (size_t pairs : {1, 2, 3, 4, 5, 7, 9, 127, 128}) {
    SCOPED_TRACE("pairs=" + std::to_string(pairs));
    expect_kernel_bodies_agree<1>(rng, pairs);
    expect_kernel_bodies_agree<2>(rng, pairs);
    expect_kernel_bodies_agree<3>(rng, pairs);
    expect_kernel_bodies_agree<4>(rng, pairs);
  }
}

#ifdef PROTEA_KPAIR_AVX2
template <size_t R>
void expect_avx2_bodies_agree(util::Xoshiro256& rng, size_t pairs) {
  const size_t lda = detail::kKBlock;
  std::vector<int16_t> a(R * lda);
  for (auto& x : a) x = static_cast<int16_t>(int(rng.bounded(256)) - 128);
  // Two panels with three filler pairs between them: a body that ignored
  // `panel_stride` would read the filler as the second panel.
  const size_t stride = (pairs + 3) * detail::kPairBytes;
  std::vector<int8_t> panels(2 * stride);
  for (auto& x : panels) x = static_cast<int8_t>(int(rng.bounded(256)) - 128);
  // want[r][8q + j]: column j of panel q, summed from the layout's
  // definition.
  int32_t want[R * 16] = {};
  for (size_t r = 0; r < R; ++r) {
    for (size_t q = 0; q < 2; ++q) {
      for (size_t j = 0; j < 8; ++j) {
        for (size_t p = 0; p < 2 * pairs; ++p) {
          const size_t byte =
              q * stride + (p / 2) * detail::kPairBytes + 2 * j + p % 2;
          want[r * 16 + q * 8 + j] += a[r * lda + p] * panels[byte];
        }
      }
    }
  }
  const auto panel_matches = [&](const int32_t* got, size_t q) {
    for (size_t r = 0; r < R; ++r) {
      if (!std::equal(got + r * 8, got + r * 8 + 8, want + r * 16 + q * 8)) {
        return false;
      }
    }
    return true;
  };
  int32_t got[R * 16];
  detail::kpair_kernel_avx2<R, 2>(a.data(), lda, panels.data(), stride, pairs,
                                  got);
  EXPECT_TRUE(std::equal(got, got + R * 16, want)) << "avx2, two panels";
  for (size_t q = 0; q < 2; ++q) {
    const int8_t* panel = panels.data() + q * stride;
    detail::kpair_kernel_avx2<R, 1>(a.data(), lda, panel, stride, pairs, got);
    EXPECT_TRUE(panel_matches(got, q)) << "avx2, one panel, panel " << q;
    detail::kpair_kernel_portable<R>(a.data(), lda, panel, pairs, got);
    EXPECT_TRUE(panel_matches(got, q)) << "portable, panel " << q;
  }
}
#endif

TEST(QGemmKernel, Avx2BodiesMatchPortableBody) {
  // The AVX2 body in its one- and two-panel forms against the layout's
  // definition and the plain C++ body, over the same R and pair sweep as
  // the SSE2 body above.
#ifdef PROTEA_KPAIR_AVX2
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "this CPU lacks AVX2: the AVX2 body cannot run here";
  }
  util::Xoshiro256 rng(78);
  for (size_t pairs : {1, 2, 3, 4, 5, 7, 9, 127, 128}) {
    SCOPED_TRACE("pairs=" + std::to_string(pairs));
    expect_avx2_bodies_agree<1>(rng, pairs);
    expect_avx2_bodies_agree<2>(rng, pairs);
    expect_avx2_bodies_agree<3>(rng, pairs);
    expect_avx2_bodies_agree<4>(rng, pairs);
  }
#else
  GTEST_SKIP() << "no AVX2 body in this build: it needs GCC or Clang on x86";
#endif
}

TEST(QGemmKernel, BodyFollowsTheCpuFeature) {
  // The one body the process runs is a function of the CPU alone.
  const std::string body = qgemm_kernel_body();
  std::printf("int8 micro-kernel body: %s\n", body.c_str());
#if defined(PROTEA_KPAIR_AVX2)
  EXPECT_EQ(body, __builtin_cpu_supports("avx2") ? "avx2" : "sse2");
#elif defined(__SSE2__)
  EXPECT_EQ(body, "sse2");
#else
  EXPECT_EQ(body, "portable");
#endif
}

TEST(PackedWeight, RoundTripsBothOrientationsAtRaggedDims) {
  // Odd K pads a pair and n % 8 != 0 pads a panel; neither shows in the
  // logical matrix, the shape or the element reads.
  uint64_t seed = 990;
  for (size_t rows : {1, 5, 8, 13, 33}) {
    for (size_t cols : {1, 3, 8, 9, 30}) {
      const auto m = random_i8(rows, cols, seed++);
      for (const bool bt : {false, true}) {
        const PackedWeightI8 w =
            bt ? PackedWeightI8::from_bt(m) : PackedWeightI8::from_b(m);
        EXPECT_EQ(w.rows(), rows);
        EXPECT_EQ(w.cols(), cols);
        EXPECT_EQ(w.k(), bt ? cols : rows);
        EXPECT_EQ(w.n(), bt ? rows : cols);
        EXPECT_EQ(w.to_matrix(), m) << rows << "x" << cols << " bt=" << bt;
        EXPECT_EQ(w(rows - 1, cols - 1), m(rows - 1, cols - 1));
      }
      EXPECT_FALSE(PackedWeightI8::from_b(m) == PackedWeightI8::from_bt(m));
    }
  }
  EXPECT_EQ(PackedWeightI8::from_b(MatrixI8(0, 4)).to_matrix(),
            MatrixI8(0, 4));
}

}  // namespace
}  // namespace protea::tensor

// --- engine bit-identity against naive loop nests ---------------------------
//
// The engines must produce the same int8 outputs as the seed's naive tile
// loops; with exact int32 accumulation this reduces to: naive GEMM + the
// same bias/requant write-back.
namespace protea::accel {
namespace {

using numeric::RequantParams;
using tensor::MatrixI32;
using tensor::MatrixI8;

MatrixI8 random_i8(size_t r, size_t c, uint64_t seed) {
  MatrixI8 m(r, c);
  util::Xoshiro256 rng(seed);
  for (auto& x : m.flat()) {
    x = static_cast<int8_t>(static_cast<int32_t>(rng.bounded(256)) - 128);
  }
  return m;
}

std::vector<int32_t> random_bias(size_t n, uint64_t seed) {
  std::vector<int32_t> b(n);
  util::Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<int32_t>(rng.bounded(20000)) - 10000;
  return b;
}

int8_t requant8(int64_t acc, const RequantParams& rq) {
  return static_cast<int8_t>(numeric::requantize(acc, rq, -128, 127));
}

TEST(EngineBitIdentity, QkvEngineMatchesNaive) {
  const size_t sl = 9, d = 40, dk = 12;
  const auto x = random_i8(sl, d, 1);
  const auto wqt = random_i8(dk, d, 2);
  const auto wkt = random_i8(dk, d, 3);
  const auto wvt = random_i8(dk, d, 4);
  QHeadWeights head;
  head.wqt = tensor::PackedWeightI8::from_bt(wqt);
  head.wkt = tensor::PackedWeightI8::from_bt(wkt);
  head.wvt = tensor::PackedWeightI8::from_bt(wvt);
  head.bq = random_bias(dk, 5);
  head.bk = random_bias(dk, 6);
  head.bv = random_bias(dk, 7);
  const auto rq_q = numeric::make_requant_params(0.003);
  const auto rq_k = numeric::make_requant_params(0.005);
  const auto rq_v = numeric::make_requant_params(0.002);

  MatrixI8 q, k, v;
  EngineStats stats;
  run_qkv_engine(x, head, 16, rq_q, rq_k, rq_v, q, k, v, &stats);
  EXPECT_EQ(stats.macs, 3 * sl * d * dk);

  MatrixI32 aq, ak, av;
  tensor::qgemm_bt_naive(x, wqt, aq);
  tensor::qgemm_bt_naive(x, wkt, ak);
  tensor::qgemm_bt_naive(x, wvt, av);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < dk; ++j) {
      EXPECT_EQ(q(i, j), requant8(int64_t{aq(i, j)} + head.bq[j], rq_q));
      EXPECT_EQ(k(i, j), requant8(int64_t{ak(i, j)} + head.bk[j], rq_k));
      EXPECT_EQ(v(i, j), requant8(int64_t{av(i, j)} + head.bv[j], rq_v));
    }
  }
}

TEST(EngineBitIdentity, ProjectionEngineMatchesNaive) {
  const size_t rows = 7, d = 33, out_dim = 19;
  const auto x = random_i8(rows, d, 10);
  const auto wt = random_i8(out_dim, d, 11);
  const auto bias = random_bias(out_dim, 12);
  const auto rq = numeric::make_requant_params(0.004);

  MatrixI8 out;
  run_ffn_engine(x, tensor::PackedWeightI8::from_bt(wt), bias, 8, rq,
                 FfnActivation::kNone, 0.0, out);

  MatrixI32 acc;
  tensor::qgemm_bt_naive(x, wt, acc);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      EXPECT_EQ(out(i, j), requant8(int64_t{acc(i, j)} + bias[j], rq));
    }
  }
}

TEST(EngineBitIdentity, QkAndSvEnginesMatchNaive) {
  const size_t sl = 11, dk = 13;
  const auto q = random_i8(sl, dk, 20);
  const auto k = random_i8(sl, dk, 21);
  const auto rq_logit = numeric::make_requant_params(0.01);
  MatrixI8 logits;
  run_qk_engine(q, k, rq_logit, logits);

  MatrixI32 acc;
  tensor::qgemm_bt_naive(q, k, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < sl; ++j) {
      EXPECT_EQ(logits(i, j), requant8(acc(i, j), rq_logit));
    }
  }

  const auto weights = random_i8(sl, sl, 22);
  const auto v = random_i8(sl, dk, 23);
  const auto rq_sv = numeric::make_requant_params(0.008);
  MatrixI8 scores;
  run_sv_engine(weights, v, rq_sv, scores);

  tensor::qgemm_naive(weights, v, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < dk; ++j) {
      EXPECT_EQ(scores(i, j), requant8(acc(i, j), rq_sv));
    }
  }
}

TEST(EngineBitIdentity, FfnEngineMatchesNaiveWithRelu) {
  const size_t sl = 6, in_dim = 29, out_dim = 23;
  const auto in = random_i8(sl, in_dim, 30);
  const auto w = random_i8(in_dim, out_dim, 31);
  const auto bias = random_bias(out_dim, 32);
  const auto rq = numeric::make_requant_params(0.006);

  MatrixI8 out;
  run_ffn_engine(in, tensor::PackedWeightI8::from_b(w), bias, 16, rq,
                 FfnActivation::kRelu, 0.0, out);

  MatrixI32 acc;
  tensor::qgemm_naive(in, w, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      const int8_t rq8 = requant8(int64_t{acc(i, j)} + bias[j], rq);
      EXPECT_EQ(out(i, j), std::max<int8_t>(rq8, 0));
    }
  }
}

}  // namespace
}  // namespace protea::accel

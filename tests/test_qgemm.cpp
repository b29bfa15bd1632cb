// Tests for the int8 GEMM kernel layer: exact equivalence of every entry
// point — packed and small-M direct, dense and span operands, int8 rows,
// byte codes and packed nibble codes — with the retained naive references
// on ragged and degenerate shapes, thread-count invariance, argument
// checks, and bit-identity of the engines that ride on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/engines.hpp"
#include "accel/quantized_model.hpp"
#include "numeric/fp8.hpp"
#include "numeric/requantize.hpp"
#include "tensor/qgemm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

/// `m`'s rows as a scattered multi-run RowSpanListI8, the shape a paged KV
/// block table hands the kernels: runs of 1, 3, 1, 2, ... rows, stored
/// last run first with a padded row stride and a filler row between runs,
/// so a cursor that strays off its run reads wrong bytes. With `nibbles`,
/// `m` holds 4-bit codes and each row is stored two codes per byte, low
/// nibble first; an odd row's unused high nibble is filler too.
class SpanOperand {
 public:
  SpanOperand(const MatrixI8& m, const int8_t* decode, bool nibbles = false) {
    const size_t run_sizes[] = {1, 3, 1, 2};
    std::vector<size_t> run_rows;
    for (size_t r = 0; r < m.rows(); r += run_rows.back()) {
      run_rows.push_back(
          std::min(run_sizes[run_rows.size() % 4], m.rows() - r));
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

TEST(QGemm, ThreadCountDoesNotChangeResult) {
  util::ThreadPool pool(4);
  uint64_t seed = 200;
  for (const auto& s : kShapes) {
    const auto a = random_i8(s.m, s.k, seed++);
    const auto b = random_i8(s.k, s.n, seed++);
    MatrixI32 serial, threaded;
    qgemm(a, b, serial);
    qgemm(a, b, threaded, &pool);
    EXPECT_EQ(serial, threaded) << "m=" << s.m << " k=" << s.k
                                << " n=" << s.n;
  }
}

TEST(QGemm, InnerDimensionMismatchThrows) {
  const auto a = random_i8(4, 5, 300);
  const auto b = random_i8(6, 4, 301);
  MatrixI32 c;
  EXPECT_THROW(qgemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(qgemm_bt(a, random_i8(4, 6, 302), c), std::invalid_argument);
}

TEST(QGemmEntryPoints, EveryEntryPointMatchesNaiveOracle) {
  // Each of the six int8 entry points, serial and pooled, against the
  // naive loop on the decoded operand. The span entry points also take
  // dense code matrices as one-run lists, and multi-run lists of int8
  // rows, fp8 byte codes and packed fp4 nibble codes.
  const int8_t* lut = numeric::kv_codec(numeric::KvStorage::kFp8E4M3)
                          ->decode.data();
  const int8_t* lut4 = numeric::kv_codec(numeric::KvStorage::kFp4E2M1)
                           ->decode.data();
  util::ThreadPool pool(2);
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
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      SCOPED_TRACE(p == nullptr ? "serial" : "pooled");
      MatrixI32 got;
      qgemm(a, b, got, p);
      EXPECT_EQ(got, want) << "qgemm";
      qgemm_bt(a, bt, got, p);
      EXPECT_EQ(got, want_bt) << "qgemm_bt";

      // The view-output twins start from garbage, so a kernel that adds
      // into c instead of overwriting it fails.
      const auto check = [&](const char* name, const MatrixI32& expect,
                             const auto& call) {
        got.fill(0x7777);
        call();
        EXPECT_EQ(got, expect) << name;
      };
      check("qgemm_into", want,
            [&] { qgemm_into(a, b, got, pack, p); });
      check("qgemm_bt_into", want_bt,
            [&] { qgemm_bt_into(a, bt, got, pack, p); });
      check("qgemm_spans_into", want,
            [&] { qgemm_spans_into(a, b_spans.list(), got, pack, p); });
      check("qgemm_bt_spans_into", want_bt,
            [&] { qgemm_bt_spans_into(a, bt_spans.list(), got, pack, p); });
      check("qgemm_spans_into (dense codes)", want_lut,
            [&] { qgemm_spans_into(a, b_dense_codes, got, pack, p); });
      check("qgemm_bt_spans_into (dense codes)", want_bt_lut,
            [&] { qgemm_bt_spans_into(a, bt_dense_codes, got, pack, p); });
      check("qgemm_spans_into (decode)", want_lut,
            [&] { qgemm_spans_into(a, b_codes.list(), got, pack, p); });
      check("qgemm_bt_spans_into (decode)", want_bt_lut,
            [&] { qgemm_bt_spans_into(a, bt_codes.list(), got, pack, p); });
      check("qgemm_spans_into (nibbles)", want_4,
            [&] { qgemm_spans_into(a, b_nibbles.list(), got, pack, p); });
      check("qgemm_bt_spans_into (nibbles)", want_bt_4, [&] {
        qgemm_bt_spans_into(a, bt_nibbles.list(), got, pack, p);
      });
    }
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

TEST(QGemm, DefaultPoolConfigurable) {
  EXPECT_EQ(qgemm_default_pool(), nullptr);
  qgemm_set_threads(3);
  ASSERT_NE(qgemm_default_pool(), nullptr);
  EXPECT_EQ(qgemm_default_pool()->size(), 3u);

  const auto a = random_i8(17, 40, 400);
  const auto b = random_i8(40, 23, 401);
  MatrixI32 serial, pooled;
  qgemm_naive(a, b, serial);
  qgemm(a, b, pooled, qgemm_default_pool());
  EXPECT_EQ(serial, pooled);

  qgemm_set_threads(0);
  EXPECT_EQ(qgemm_default_pool(), nullptr);
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
  QHeadWeights head;
  head.wqt = random_i8(dk, d, 2);
  head.wkt = random_i8(dk, d, 3);
  head.wvt = random_i8(dk, d, 4);
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
  tensor::qgemm_bt_naive(x, head.wqt, aq);
  tensor::qgemm_bt_naive(x, head.wkt, ak);
  tensor::qgemm_bt_naive(x, head.wvt, av);
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
  run_projection_engine(x, wt, bias, 8, rq, out);

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
  run_ffn_engine(in, w, bias, 16, rq, FfnActivation::kRelu, 0.0, out);

  MatrixI32 acc;
  tensor::qgemm_naive(in, w, acc);
  for (size_t i = 0; i < sl; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      const int8_t rq8 = requant8(int64_t{acc(i, j)} + bias[j], rq);
      EXPECT_EQ(out(i, j), std::max<int8_t>(rq8, 0));
    }
  }
}

TEST(EngineBitIdentity, EnginesUnchangedByKernelThreading) {
  const size_t sl = 16, d = 64;
  const auto in = random_i8(sl, d, 40);
  const auto w = random_i8(d, d, 41);
  const auto bias = random_bias(d, 42);
  const auto rq = numeric::make_requant_params(0.004);

  MatrixI8 serial_out, threaded_out;
  run_ffn_engine(in, w, bias, 32, rq, FfnActivation::kGeluLut, 0.05,
                 serial_out);
  tensor::qgemm_set_threads(4);
  run_ffn_engine(in, w, bias, 32, rq, FfnActivation::kGeluLut, 0.05,
                 threaded_out);
  tensor::qgemm_set_threads(0);
  EXPECT_EQ(serial_out, threaded_out);
}

}  // namespace
}  // namespace protea::accel

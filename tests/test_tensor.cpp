// Tests for the tensor substrate: Matrix container + float kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace protea::tensor {
namespace {

MatrixF random_matrix(size_t r, size_t c, uint64_t seed) {
  MatrixF m(r, c);
  util::Xoshiro256 rng(seed);
  for (float& x : m.flat()) x = static_cast<float>(rng.uniform(-1, 1));
  return m;
}

// --- Matrix container ----------------------------------------------------------

TEST(Matrix, ConstructionAndIndexing) {
  MatrixF m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m(2, 3), 1.5f);
  m(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.0f);
}

TEST(Matrix, FromRowsValidatesSize) {
  EXPECT_NO_THROW(MatrixF::from_rows(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(MatrixF::from_rows(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, RowSpanAliasesStorage) {
  MatrixF m(2, 3, 0.0f);
  auto row = m.row(1);
  row[2] = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 9.0f);
}

TEST(Matrix, SliceCols) {
  MatrixF m = MatrixF::from_rows(2, 4, {0, 1, 2, 3, 4, 5, 6, 7});
  MatrixF s = m.slice_cols(1, 2);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.cols(), 2u);
  EXPECT_FLOAT_EQ(s(0, 0), 1);
  EXPECT_FLOAT_EQ(s(1, 1), 6);
  EXPECT_THROW(m.slice_cols(3, 2), std::out_of_range);
}

TEST(Matrix, SliceRows) {
  MatrixF m = MatrixF::from_rows(3, 2, {0, 1, 2, 3, 4, 5});
  MatrixF s = m.slice_rows(1, 2);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_FLOAT_EQ(s(0, 0), 2);
  EXPECT_FLOAT_EQ(s(1, 1), 5);
  EXPECT_THROW(m.slice_rows(2, 2), std::out_of_range);
}

TEST(Matrix, EqualityAndFill) {
  MatrixF a(2, 2, 1.0f), b(2, 2, 1.0f);
  EXPECT_EQ(a, b);
  b.fill(2.0f);
  EXPECT_NE(a, b);
}

// --- matmul -----------------------------------------------------------------------

TEST(Ops, MatmulKnownValues) {
  MatrixF a = MatrixF::from_rows(2, 3, {1, 2, 3, 4, 5, 6});
  MatrixF b = MatrixF::from_rows(3, 2, {7, 8, 9, 10, 11, 12});
  MatrixF c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(Ops, MatmulDimensionMismatchThrows) {
  MatrixF a(2, 3), b(4, 2);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Ops, MatmulIdentity) {
  MatrixF a = random_matrix(5, 5, 1);
  MatrixF eye(5, 5, 0.0f);
  for (size_t i = 0; i < 5; ++i) eye(i, i) = 1.0f;
  EXPECT_LE(max_abs_diff(matmul(a, eye), a), 1e-6f);
  EXPECT_LE(max_abs_diff(matmul(eye, a), a), 1e-6f);
}

TEST(Ops, MatmulBtMatchesExplicitTranspose) {
  MatrixF a = random_matrix(4, 6, 2);
  MatrixF b = random_matrix(5, 6, 3);
  EXPECT_LE(max_abs_diff(matmul_bt(a, b), matmul(a, transpose(b))), 1e-5f);
}

TEST(Ops, MatmulBiasAddsBroadcast) {
  MatrixF a = random_matrix(3, 4, 4);
  MatrixF b = random_matrix(4, 2, 5);
  std::vector<float> bias = {1.0f, -2.0f};
  MatrixF c = matmul_bias(a, b, bias);
  MatrixF plain = matmul(a, b);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(c(i, 0), plain(i, 0) + 1.0f, 1e-6);
    EXPECT_NEAR(c(i, 1), plain(i, 1) - 2.0f, 1e-6);
  }
}

TEST(Ops, TransposeInvolution) {
  MatrixF a = random_matrix(3, 7, 6);
  EXPECT_EQ(transpose(transpose(a)), a);
}

TEST(Ops, AddAndScale) {
  MatrixF a = random_matrix(2, 2, 7);
  MatrixF b = random_matrix(2, 2, 8);
  MatrixF c = add(a, b);
  EXPECT_NEAR(c(0, 0), a(0, 0) + b(0, 0), 1e-7);
  scale_inplace(c, 2.0f);
  EXPECT_NEAR(c(0, 0), 2 * (a(0, 0) + b(0, 0)), 1e-6);
  MatrixF wrong(3, 2);
  EXPECT_THROW(add(a, wrong), std::invalid_argument);
}

TEST(Ops, AddBiasValidatesLength) {
  MatrixF a(2, 3);
  std::vector<float> bias = {1, 2};
  EXPECT_THROW(add_bias_inplace(a, bias), std::invalid_argument);
}

// --- softmax ---------------------------------------------------------------------

TEST(Ops, SoftmaxRowsSumToOne) {
  MatrixF m = random_matrix(6, 9, 9);
  scale_inplace(m, 4.0f);
  softmax_rows_inplace(m);
  for (size_t r = 0; r < m.rows(); ++r) {
    float sum = 0.0f;
    for (float x : m.row(r)) {
      EXPECT_GE(x, 0.0f);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Ops, SoftmaxShiftInvariant) {
  MatrixF a = random_matrix(2, 8, 10);
  MatrixF b = a;
  for (float& x : b.flat()) x += 100.0f;  // large shift: needs stability
  softmax_rows_inplace(a);
  softmax_rows_inplace(b);
  EXPECT_LE(max_abs_diff(a, b), 1e-5f);
}

TEST(Ops, SoftmaxPeaksAtMax) {
  MatrixF m = MatrixF::from_rows(1, 4, {0.0f, 5.0f, 1.0f, -2.0f});
  softmax_rows_inplace(m);
  const auto row = m.row(0);
  EXPECT_GT(row[1], row[0]);
  EXPECT_GT(row[1], row[2]);
  EXPECT_GT(row[1], row[3]);
}

// --- layer norm --------------------------------------------------------------------

TEST(Ops, LayerNormZeroMeanUnitVar) {
  MatrixF m = random_matrix(4, 64, 11);
  scale_inplace(m, 3.0f);
  std::vector<float> gamma(64, 1.0f), beta(64, 0.0f);
  layer_norm_rows_inplace(m, gamma, beta);
  for (size_t r = 0; r < m.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (float x : m.row(r)) mean += x;
    mean /= 64.0;
    for (float x : m.row(r)) var += (x - mean) * (x - mean);
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(Ops, LayerNormAffineApplied) {
  MatrixF m = random_matrix(2, 8, 12);
  std::vector<float> gamma(8, 2.0f), beta(8, 0.5f);
  MatrixF plain = m;
  std::vector<float> g1(8, 1.0f), b0(8, 0.0f);
  layer_norm_rows_inplace(plain, g1, b0);
  layer_norm_rows_inplace(m, gamma, beta);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m.flat()[i], plain.flat()[i] * 2.0f + 0.5f, 1e-5);
  }
}

TEST(Ops, LayerNormValidatesWidth) {
  MatrixF m(2, 8);
  std::vector<float> wrong(7, 1.0f), ok(8, 1.0f);
  EXPECT_THROW(layer_norm_rows_inplace(m, wrong, ok),
               std::invalid_argument);
}

// --- activations ----------------------------------------------------------------------

TEST(Ops, ReluClampsNegatives) {
  MatrixF m = MatrixF::from_rows(1, 4, {-1.0f, 0.0f, 2.0f, -0.5f});
  relu_inplace(m);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 2), 2.0f);
}

TEST(Ops, GeluKnownValues) {
  MatrixF m = MatrixF::from_rows(1, 3, {0.0f, 1.0f, -1.0f});
  gelu_inplace(m);
  EXPECT_NEAR(m(0, 0), 0.0f, 1e-6);
  EXPECT_NEAR(m(0, 1), 0.8412f, 1e-3);   // gelu(1)
  EXPECT_NEAR(m(0, 2), -0.1588f, 1e-3);  // gelu(-1)
}

TEST(Ops, GeluApproachesIdentityForLargePositive) {
  MatrixF m = MatrixF::from_rows(1, 1, {6.0f});
  gelu_inplace(m);
  EXPECT_NEAR(m(0, 0), 6.0f, 1e-4);
}

// --- diff metrics -------------------------------------------------------------------------

TEST(Ops, DiffMetrics) {
  MatrixF a = MatrixF::from_rows(1, 2, {1.0f, 2.0f});
  MatrixF b = MatrixF::from_rows(1, 2, {1.5f, 1.0f});
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 1.0f);
  EXPECT_NEAR(rms_diff(a, b), std::sqrt((0.25 + 1.0) / 2.0), 1e-6);
  EXPECT_FLOAT_EQ(max_abs_diff(a, a), 0.0f);
  MatrixF wrong(2, 2);
  EXPECT_THROW(max_abs_diff(a, wrong), std::invalid_argument);
}

// --- parameterized shape sweep: matmul against a naive reference -------------------

struct Shape {
  size_t m, k, n;
};

class MatmulShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(MatmulShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  MatrixF a = random_matrix(m, k, m * 100 + k);
  MatrixF b = random_matrix(k, n, n * 100 + k);
  MatrixF c = matmul(a, b);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        sum += static_cast<double>(a(i, kk)) * b(kk, j);
      }
      EXPECT_NEAR(c(i, j), sum, 1e-4) << i << "," << j;
    }
  }
  // The driver's row-partitioned branch: each output row is produced by
  // one task in the same ascending-k chain, so a pooled product equals
  // the serial one bit for bit, on one row panel (m <= 4) or several.
  util::ThreadPool pool(3);
  EXPECT_EQ(matmul(a, b, &pool), c);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 8, 1}, Shape{3, 5, 7},
                      Shape{16, 16, 16}, Shape{2, 64, 32},
                      Shape{33, 17, 9}));

}  // namespace
}  // namespace protea::tensor

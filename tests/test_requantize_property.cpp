// Property tests for the Q31 requantization layer (numeric/requantize.hpp),
// with the multiplier-normalization edge as the centerpiece: when the
// mantissa of the input ratio rounds up to exactly 1.0, llround produces
// 2^31 — one past the int32 Q31 range — and make_requant_params must
// renormalize (multiplier /= 2, shift -= 1) instead of wrapping negative.
// This suite was written to corner that edge; the audit found the seed's
// normalization handles it correctly, so these tests pin the behavior
// (and the wider contract) against regressions rather than fix a defect:
//
//   * make_requant_params: multiplier always lands in [2^30, 2^31), and
//     multiplier * 2^-shift reconstructs the ratio to within half a Q31
//     ULP — across exact powers of two, ratios a hair below/above them
//     (the normalization trigger), and a log-uniform random sweep;
//   * requantize == an independent divide/remainder round-half-away
//     reference on the full (acc, params) grid — the implementation's
//     add-half-then-shift trick never disagrees with exact arithmetic;
//   * requantize == llround(acc * ratio) EXACTLY for dyadic ratios, and
//     within 1 output ULP of the real-valued product for arbitrary ones;
//   * int8 saturation boundary: values that round to 128 / -129 clamp;
//   * requantize_row (the engines' int64 write-back row) == the same
//     reference at every lane of rows of every length, for sums on both
//     sides of the int32 range and shifts on both sides of its int64
//     bounds (1 and 62).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "numeric/requantize.hpp"
#include "util/rng.hpp"

namespace protea::numeric {
namespace {

/// Independent reference: exact integer divide/remainder with explicit
/// round-half-away-from-zero — no shared machinery with the
/// implementation's add-half-then-arithmetic-shift path.
__int128 ref_requantize_unclamped(int64_t acc, RequantParams p) {
  const __int128 num = static_cast<__int128>(acc) * p.multiplier;
  if (p.shift <= 0) {
    return num << -p.shift;
  }
  const __int128 den = static_cast<__int128>(1) << p.shift;
  __int128 q = num / den;  // truncates toward zero
  __int128 r = num % den;
  if (r < 0) r = -r;
  if (2 * r >= den) q += (num >= 0 ? 1 : -1);
  return q;
}

int32_t ref_requantize(int64_t acc, RequantParams p, int32_t qmin,
                       int32_t qmax) {
  const __int128 v = ref_requantize_unclamped(acc, p);
  if (v > qmax) return qmax;
  if (v < qmin) return qmin;
  return static_cast<int32_t>(v);
}

/// The ratio grid: every power of two across the realistic requant range,
/// ratios one double-ULP-ish below and above each (the below-pow2 ones
/// are exactly the mantissas that round up to 1.0 and trigger the
/// normalization edge), and near-1 ratios at several gap widths.
std::vector<double> ratio_grid() {
  std::vector<double> ratios;
  for (int e = -40; e <= 20; ++e) {
    const double p2 = std::ldexp(1.0, e);
    ratios.push_back(p2);
    ratios.push_back(p2 * (1.0 - std::ldexp(1.0, -40)));  // edge trigger
    ratios.push_back(p2 * (1.0 - std::ldexp(1.0, -20)));
    ratios.push_back(p2 * (1.0 + std::ldexp(1.0, -40)));
    ratios.push_back(p2 * (1.0 + std::ldexp(1.0, -20)));
  }
  for (int k = 2; k <= 52; k += 5) {
    ratios.push_back(1.0 - std::ldexp(1.0, -k));
    ratios.push_back(1.0 + std::ldexp(1.0, -k));
  }
  return ratios;
}

TEST(MakeRequantParams, MultiplierAlwaysNormalizedAndRatioReconstructs) {
  util::Xoshiro256 rng(1234);
  auto ratios = ratio_grid();
  for (int i = 0; i < 2000; ++i) {  // log-uniform sweep over 2^[-40, 20]
    const double e = -40.0 + 60.0 * (static_cast<double>(rng.bounded(1u << 30)) /
                                     static_cast<double>(1u << 30));
    ratios.push_back(std::exp2(e));
  }
  for (const double ratio : ratios) {
    const RequantParams p = make_requant_params(ratio);
    // The Q31 normalization invariant — mantissa in [0.5, 1.0): a
    // multiplier of exactly 2^31 would have wrapped to INT32_MIN.
    EXPECT_GE(p.multiplier, int32_t{1} << 30) << "ratio " << ratio;
    EXPECT_LE(p.multiplier, std::numeric_limits<int32_t>::max())
        << "ratio " << ratio;
    // multiplier * 2^-shift must reproduce the ratio to half a Q31 ULP.
    const double reconstructed = p.multiplier * std::ldexp(1.0, -p.shift);
    EXPECT_NEAR(reconstructed / ratio, 1.0, std::ldexp(1.0, -31))
        << "ratio " << ratio;
  }
}

TEST(MakeRequantParams, NormalizationEdgePinned) {
  // 1 - 2^-40: frexp yields mantissa 1 - 2^-40 (in [0.5, 1)), and
  // llround((1 - 2^-40) * 2^31) = llround(2^31 - 2^-9) = 2^31 — the
  // overflow the normalization branch exists for. It must fold to
  // multiplier 2^30 with the exponent bumped, NOT wrap negative.
  const RequantParams p = make_requant_params(1.0 - std::ldexp(1.0, -40));
  EXPECT_EQ(p.multiplier, int32_t{1} << 30);
  EXPECT_EQ(p.shift, 30);
  // With the ratio within 2^-40 of 1, moderate accumulators requantize
  // to themselves exactly.
  for (const int64_t acc : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{100},
                            int64_t{-100}, int64_t{123456}, int64_t{-123456}}) {
    EXPECT_EQ(requantize(acc, p, std::numeric_limits<int32_t>::min(),
                         std::numeric_limits<int32_t>::max()),
              acc)
        << "acc " << acc;
  }
  // The same edge at other binades: the reconstruction stays a clean
  // power of two and the multiplier stays normalized.
  for (int e = -20; e <= 20; e += 5) {
    const RequantParams q =
        make_requant_params(std::ldexp(1.0, e) * (1.0 - std::ldexp(1.0, -40)));
    EXPECT_EQ(q.multiplier, int32_t{1} << 30) << "binade " << e;
    EXPECT_EQ(q.shift, 30 - e) << "binade " << e;
  }
}

TEST(MakeRequantParams, RejectsNonPositiveAndNonFinite) {
  EXPECT_THROW(make_requant_params(0.0), std::invalid_argument);
  EXPECT_THROW(make_requant_params(-1.0), std::invalid_argument);
  EXPECT_THROW(make_requant_params(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(make_requant_params(std::nan("")), std::invalid_argument);
}

TEST(Requantize, MatchesExactIntegerReferenceOnGrid) {
  util::Xoshiro256 rng(5678);
  std::vector<int64_t> accs = {0, 1, -1, 2, -2, 127, -128, 128, -129};
  for (int b = 2; b <= 40; b += 3) {
    const int64_t p2 = int64_t{1} << b;
    accs.push_back(p2);
    accs.push_back(p2 - 1);
    accs.push_back(p2 + 1);
    accs.push_back(-p2);
    accs.push_back(-p2 + 1);
    accs.push_back(-p2 - 1);
  }
  for (int i = 0; i < 200; ++i) {
    const int64_t r = static_cast<int64_t>(rng.next() >> 23);  // ~2^41
    accs.push_back(r);
    accs.push_back(-r);
  }
  const int32_t kMin = std::numeric_limits<int32_t>::min();
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  for (const double ratio : ratio_grid()) {
    const RequantParams p = make_requant_params(ratio);
    for (const int64_t acc : accs) {
      ASSERT_EQ(requantize(acc, p, kMin, kMax),
                ref_requantize(acc, p, kMin, kMax))
          << "ratio " << ratio << " acc " << acc;
      ASSERT_EQ(requantize(acc, p, -128, 127),
                ref_requantize(acc, p, -128, 127))
          << "int8 ratio " << ratio << " acc " << acc;
    }
  }
}

TEST(Requantize, ExactForDyadicRatiosAndWithinOneUlpOtherwise) {
  util::Xoshiro256 rng(9012);
  const int32_t kMin = std::numeric_limits<int32_t>::min();
  const int32_t kMax = std::numeric_limits<int32_t>::max();
  // Dyadic ratios are represented exactly in Q31 x 2^-shift, so the
  // fixed-point path must equal llround (round half away from zero —
  // the same tie rule) on every accumulator.
  for (int e = -20; e <= 10; ++e) {
    const double ratio = std::ldexp(1.0, e);
    const RequantParams p = make_requant_params(ratio);
    for (int i = 0; i < 300; ++i) {
      const int64_t acc =
          static_cast<int64_t>(rng.next() >> 30) - (int64_t{1} << 33);
      const double real = static_cast<double>(acc) * ratio;
      if (std::abs(real) > 2e9) continue;  // keep clear of int32 clamps
      EXPECT_EQ(requantize(acc, p, kMin, kMax), std::llround(real))
          << "2^" << e << " acc " << acc;
    }
  }
  // Arbitrary ratios carry up to half a Q31 ULP of representation error,
  // so the result may differ from the real-valued product by at most one
  // output step.
  for (const double ratio : ratio_grid()) {
    const RequantParams p = make_requant_params(ratio);
    for (int i = 0; i < 50; ++i) {
      const int64_t acc =
          static_cast<int64_t>(rng.next() >> 30) - (int64_t{1} << 33);
      const double real = static_cast<double>(acc) * ratio;
      if (std::abs(real) > 2e9) continue;
      const int64_t got = requantize(acc, p, kMin, kMax);
      EXPECT_LE(std::abs(got - std::llround(real)), 1)
          << "ratio " << ratio << " acc " << acc;
    }
  }
}

TEST(Requantize, Int8SaturationBoundary) {
  const RequantParams unit = make_requant_params(1.0);
  EXPECT_EQ(requantize(127, unit, -128, 127), 127);
  EXPECT_EQ(requantize(128, unit, -128, 127), 127);   // first clamp above
  EXPECT_EQ(requantize(-128, unit, -128, 127), -128);
  EXPECT_EQ(requantize(-129, unit, -128, 127), -128); // first clamp below
  EXPECT_EQ(requantize(1 << 20, unit, -128, 127), 127);
  EXPECT_EQ(requantize(-(1 << 20), unit, -128, 127), -128);

  // Half-step boundary under a 0.5 ratio: 255 * 0.5 = 127.5 rounds away
  // from zero to 128, which must clamp; 253 * 0.5 = 126.5 -> 127 stays.
  const RequantParams half = make_requant_params(0.5);
  EXPECT_EQ(requantize(255, half, -128, 127), 127);
  EXPECT_EQ(requantize(253, half, -128, 127), 127);
  EXPECT_EQ(requantize(-255, half, -128, 127), -128);  // -127.5 -> -128
  EXPECT_EQ(requantize(-253, half, -128, 127), -127);
}

TEST(RequantizePow2, TieBreaksToEvenAndSaturates) {
  // The pure-shift variant rounds half TO EVEN (it feeds the shift-only
  // datapath) — pin the difference from requantize's half-away rule.
  EXPECT_EQ(requantize_pow2(3, 1, -128, 127), 2);    // 1.5 -> 2 (even)
  EXPECT_EQ(requantize_pow2(5, 1, -128, 127), 2);    // 2.5 -> 2 (even)
  EXPECT_EQ(requantize_pow2(7, 1, -128, 127), 4);    // 3.5 -> 4 (even)
  EXPECT_EQ(requantize_pow2(-3, 1, -128, 127), -2);  // -1.5 -> -2
  EXPECT_EQ(requantize_pow2(1024, 2, -128, 127), 127);
  EXPECT_EQ(requantize_pow2(-1024, 2, -128, 127), -128);
  EXPECT_EQ(requantize_pow2(3, -2, -128, 127), 12);  // negative = left shift
}

// --- requantize_row -----------------------------------------------------------
//
// The row computes one int64 product per element and falls back to
// requantize where that is not exact: a sum acc + bias outside int32, or
// a shift outside [1, 62]. Each test vector below is a sum s = acc + bias
// chosen by construction: the int32 bounds and their neighbours, twice
// those bounds, and for every parameter set the sums nearest to the
// real values r * 2^shift / multiplier for r at the clamp edges (-129,
// -128, 127, 128), at ties of both signs (+-0.5, -128.5, 127.5, ...) and
// beside them. The expected code is the exact reference's, never the
// row's own arithmetic.

constexpr int64_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int64_t kI32Max = std::numeric_limits<int32_t>::max();

/// Hand-built parameters on both sides of the int64 path's shift bounds,
/// at the multiplier extremes, plus the calibrated kinds the engines use.
std::vector<RequantParams> row_params() {
  std::vector<RequantParams> params;
  for (const int64_t m : {kI32Min, int64_t{-1}, int64_t{1}, int64_t{1} << 30,
                          kI32Max}) {
    for (const int shift : {0, 1, 2, 31, 62, 63}) {
      params.push_back({static_cast<int32_t>(m), shift});
    }
  }
  for (const double ratio : {0.5, 0.0173, 1.0 / 3.0, 3e-5, 1.0}) {
    params.push_back(make_requant_params(ratio));
  }
  return params;
}

/// The sums a row of `p` is tested on, all within [2 * INT32_MIN,
/// 2 * INT32_MAX] (what one int32 accumulator plus one int32 bias reach).
std::vector<int64_t> row_sums(RequantParams p) {
  std::vector<int64_t> sums = {0,           1,           -1,
                               2,           -2,          kI32Max - 1,
                               kI32Max,     kI32Max + 1, kI32Max + 2,
                               kI32Min + 1, kI32Min,     kI32Min - 1,
                               kI32Min - 2, 2 * kI32Max, 2 * kI32Min};
  // Twice each target real value r, so the ties are integers too.
  for (const int64_t twice_r : {-260, -259, -258, -257, -256, -255, -254,
                                -253, -1, 1, 253, 254, 255, 256, 257, 258}) {
    // s0 = floor(r * 2^shift / m), computed exactly.
    __int128 num = static_cast<__int128>(twice_r);
    __int128 den = 2 * static_cast<__int128>(p.multiplier);
    if (p.shift >= 0) {
      num <<= p.shift;
    } else {
      den <<= -p.shift;
    }
    if (den < 0) {
      num = -num;
      den = -den;
    }
    __int128 s0 = num / den;
    if (num % den != 0 && num < 0) --s0;
    for (const __int128 s : {s0 - 1, s0, s0 + 1}) {
      if (s >= 2 * kI32Min && s <= 2 * kI32Max) {
        sums.push_back(static_cast<int64_t>(s));
      }
    }
  }
  return sums;
}

/// Runs requantize_row over `acc` (+ `bias` when not null) and holds
/// every lane to the exact reference and to scalar requantize.
void expect_row(const std::vector<int32_t>& acc, const int32_t* bias,
                RequantParams p) {
  std::vector<int8_t> out(acc.size(), int8_t{0x5a});
  requantize_row(acc, bias, p, out);
  for (size_t j = 0; j < acc.size(); ++j) {
    const int64_t s = int64_t{acc[j]} + (bias != nullptr ? bias[j] : 0);
    const int32_t want = ref_requantize(s, p, -128, 127);
    if (out[j] != want || requantize(s, p, -128, 127) != want) {
      std::ostringstream where;
      where << "multiplier " << p.multiplier << " shift " << p.shift
            << " length " << acc.size() << " lane " << j << " acc "
            << acc[j] << " bias " << (bias != nullptr ? bias[j] : 0);
      ADD_FAILURE() << where.str() << ": row " << int{out[j]}
                    << ", requantize " << requantize(s, p, -128, 127)
                    << ", reference " << want;
      return;
    }
  }
}

TEST(RequantizeRow, EveryLaneOfEveryLengthMatchesTheExactReference) {
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (size_t n : {63, 64, 65}) lengths.push_back(n);
  for (const RequantParams p : row_params()) {
    const std::vector<int64_t> sums = row_sums(p);
    // Sums a lone int32 accumulator can hold (no bias).
    std::vector<int64_t> narrow;
    for (const int64_t s : sums) {
      if (s >= kI32Min && s <= kI32Max) narrow.push_back(s);
    }
    for (const size_t n : lengths) {
      // Consecutive rows walk the vector list from consecutive offsets,
      // so every vector lands in every row length, at shifting lanes.
      const size_t rows = n == 0 ? 1 : sums.size() + n;
      for (size_t row = 0; row < rows; ++row) {
        std::vector<int32_t> acc(n), bias(n), lone(n);
        for (size_t j = 0; j < n; ++j) {
          const int64_t s = sums[(row + j) % sums.size()];
          // Split the sum two ways: half each, or as much as possible
          // in the accumulator with the rest in the bias.
          const int64_t b = (row + j) % 2 == 0
                                ? s / 2
                                : s - std::clamp(s, kI32Min, kI32Max);
          acc[j] = static_cast<int32_t>(s - b);
          bias[j] = static_cast<int32_t>(b);
          lone[j] = static_cast<int32_t>(narrow[(row + j) % narrow.size()]);
        }
        expect_row(acc, bias.data(), p);
        expect_row(lone, nullptr, p);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(RequantizeRow, HalfRatioTiesAndClampEdgesByHand) {
  // multiplier 2^30, shift 31: the code is s / 2, ties away from zero.
  const RequantParams half{1 << 30, 31};
  const std::vector<int32_t> acc = {1,    -1,   3,    -3,  253, -253,
                                    254,  256,  255,  -255, -256, -258,
                                    -257, kI32Max, kI32Max, kI32Min, kI32Min};
  const std::vector<int32_t> bias = {0, 0, 0, 0, 0, 0, 0, 0, 0,
                                     0, 0, 0, 0, 0, 1, 0, -1};
  const std::vector<int8_t> want = {
      1,    -1,   // +-0.5 -> +-1
      2,    -2,   // +-1.5 -> +-2
      127,  -127, // +-126.5 -> +-127
      127,        // 127
      127,        // 128 clamps
      127,        // 127.5 -> 128 clamps
      -128,       // -127.5 -> -128
      -128,       // -128
      -128,       // -129 clamps
      -128,       // -128.5 -> -129 clamps
      127,  127,  // INT32_MAX, and one past it with the bias
      -128, -128  // INT32_MIN, and one below it with the bias
  };
  for (const bool with_bias : {false, true}) {
    std::vector<int8_t> out(acc.size());
    requantize_row(acc, with_bias ? bias.data() : nullptr, half, out);
    for (size_t j = 0; j < acc.size(); ++j) {
      if (!with_bias && bias[j] != 0) continue;
      EXPECT_EQ(out[j], want[j]) << "lane " << j << " bias " << with_bias;
    }
  }
}

TEST(RequantizeRow, RejectsMismatchedLengths) {
  const std::vector<int32_t> acc(4);
  std::vector<int8_t> out(3);
  EXPECT_THROW(requantize_row(acc, nullptr, RequantParams{}, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace protea::numeric

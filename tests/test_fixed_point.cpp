// Tests for the numeric substrate: Fixed<W,F>, DSP48 accumulator,
// runtime quantizer and requantization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "numeric/dsp48.hpp"
#include "numeric/fixed_point.hpp"
#include "numeric/quantizer.hpp"
#include "numeric/requantize.hpp"
#include "util/rng.hpp"

namespace protea::numeric {
namespace {

// --- Fixed<W,F> -------------------------------------------------------------

TEST(FixedPoint, RangeConstants) {
  EXPECT_EQ(Fix8::raw_max, 127);
  EXPECT_EQ(Fix8::raw_min, -128);
  EXPECT_DOUBLE_EQ(Fix8::epsilon(), 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(Fix8::max_value(), 127.0 / 32.0);
  EXPECT_DOUBLE_EQ(Fix8::min_value(), -4.0);
}

TEST(FixedPoint, FromDoubleExactGridValues) {
  for (int raw = -128; raw <= 127; ++raw) {
    const double v = raw / 32.0;
    EXPECT_EQ(Fix8::from_double(v).raw(), raw) << "value " << v;
  }
}

TEST(FixedPoint, SaturatesOutOfRange) {
  EXPECT_EQ(Fix8::from_double(100.0).raw(), Fix8::raw_max);
  EXPECT_EQ(Fix8::from_double(-100.0).raw(), Fix8::raw_min);
}

TEST(FixedPoint, RoundHalfToEven) {
  // 1.5 ulp cases: raw 2.5 -> 2 (even), raw 3.5 -> 4.
  using F = Fixed<8, 0>;  // integers, easy half cases
  EXPECT_EQ(F::from_double(2.5).raw(), 2);
  EXPECT_EQ(F::from_double(3.5).raw(), 4);
  EXPECT_EQ(F::from_double(-2.5).raw(), -2);
  EXPECT_EQ(F::from_double(-3.5).raw(), -4);
}

TEST(FixedPoint, TruncateModeRoundsTowardNegInf) {
  using F = Fixed<8, 0, Rounding::kTruncate>;
  EXPECT_EQ(F::from_double(2.9).raw(), 2);
  EXPECT_EQ(F::from_double(-2.1).raw(), -3);
}

TEST(FixedPoint, NearestAwayMode) {
  using F = Fixed<8, 0, Rounding::kNearestAway>;
  EXPECT_EQ(F::from_double(2.5).raw(), 3);
  EXPECT_EQ(F::from_double(-2.5).raw(), -3);
}

TEST(FixedPoint, AdditionSaturates) {
  const auto big = Fix8::from_raw(120);
  EXPECT_EQ((big + big).raw(), Fix8::raw_max);
  const auto neg = Fix8::from_raw(-120);
  EXPECT_EQ((neg + neg).raw(), Fix8::raw_min);
}

TEST(FixedPoint, AdditionMatchesDoubleWhenInRange) {
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-1.9, 1.9);
    const double b = rng.uniform(-1.9, 1.9);
    const auto fa = Fix8::from_double(a);
    const auto fb = Fix8::from_double(b);
    EXPECT_NEAR((fa + fb).to_double(), fa.to_double() + fb.to_double(),
                1e-12);
  }
}

TEST(FixedPoint, MultiplicationWithinUlp) {
  util::Xoshiro256 rng(6);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-1.5, 1.5);
    const double b = rng.uniform(-1.5, 1.5);
    const auto fa = Fix8::from_double(a);
    const auto fb = Fix8::from_double(b);
    const double exact = fa.to_double() * fb.to_double();
    EXPECT_NEAR((fa * fb).to_double(), exact, Fix8::epsilon());
  }
}

TEST(FixedPoint, NegationSaturatesMin) {
  const auto min = Fix8::from_raw(Fix8::raw_min);
  EXPECT_EQ((-min).raw(), Fix8::raw_max);  // -(-128) saturates to 127
}

TEST(FixedPoint, ComparisonOperators) {
  EXPECT_LT(Fix8::from_double(-1.0), Fix8::from_double(1.0));
  EXPECT_EQ(Fix8::from_double(0.5), Fix8::from_raw(16));
}

TEST(FixedPoint, Fix16RoundTripFiner) {
  const double v = 0.1234;
  EXPECT_NEAR(Fix16::from_double(v).to_double(), v, Fix16::epsilon());
  EXPECT_LT(Fix16::epsilon(), Fix8::epsilon());
}

// Property sweep: round-trip error bounded by half ulp for in-range values.
class FixedRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(FixedRoundTrip, ErrorBoundedByHalfUlp) {
  const double v = GetParam();
  const double rt = Fix8::from_double(v).to_double();
  EXPECT_LE(std::abs(rt - v), Fix8::epsilon() / 2 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(GridValues, FixedRoundTrip,
                         ::testing::Values(-3.99, -2.7, -1.03125, -0.015,
                                           0.0, 0.015625, 0.51, 1.99, 3.9));

// --- DSP48 ------------------------------------------------------------------

TEST(Dsp48, MacAccumulates) {
  Dsp48Accumulator acc;
  acc.mac(3, 4);
  acc.mac(-2, 5);
  EXPECT_EQ(acc.value(), 12 - 10);
  EXPECT_FALSE(acc.overflowed());
}

TEST(Dsp48, ResetClears) {
  Dsp48Accumulator acc;
  acc.mac(100, 100);
  acc.reset();
  EXPECT_EQ(acc.value(), 0);
  EXPECT_FALSE(acc.overflowed());
}

TEST(Dsp48, OverflowDetectedAndClamped) {
  Dsp48Accumulator acc;
  acc.load(Dsp48Accumulator::kAccMax - 5);
  EXPECT_FALSE(acc.mac(4, 4));
  EXPECT_TRUE(acc.overflowed());
  EXPECT_EQ(acc.value(), Dsp48Accumulator::kAccMax);
}

TEST(Dsp48, NegativeOverflowClamped) {
  Dsp48Accumulator acc;
  acc.load(Dsp48Accumulator::kAccMin + 5);
  EXPECT_FALSE(acc.mac(-4, 4));
  EXPECT_EQ(acc.value(), Dsp48Accumulator::kAccMin);
}

TEST(Dsp48, CapacityCheckForProteaReductions) {
  // Deepest ProTEA reduction: d_model=768 int8*int8 products.
  EXPECT_TRUE(accumulation_fits_dsp48(768, 128 * 128));
  EXPECT_TRUE(accumulation_fits_dsp48(4096, 128 * 128));
  // A reduction deep enough to overflow is detected by the check.
  EXPECT_FALSE(accumulation_fits_dsp48(int64_t{1} << 40, 128 * 128));
}

// --- Quantizer ------------------------------------------------------------------

TEST(Quantizer, RejectsBadBitWidths) {
  EXPECT_THROW(Quantizer(1), std::invalid_argument);
  EXPECT_THROW(Quantizer(17), std::invalid_argument);
  EXPECT_NO_THROW(Quantizer(2));
  EXPECT_NO_THROW(Quantizer(16));
}

TEST(Quantizer, CalibratePow2CoversRange) {
  Quantizer q(8, true);
  std::vector<float> data = {-3.1f, 0.5f, 2.9f};
  const double scale = q.calibrate(data);
  // Power-of-two scale, and no value saturates.
  const double log2s = std::log2(scale);
  EXPECT_NEAR(log2s, std::round(log2s), 1e-9);
  for (float x : data) {
    EXPECT_LE(std::abs(q.quantize_one(x)), 127);
    EXPECT_NEAR(q.dequantize_one(q.quantize_one(x)), x, scale / 2 + 1e-9);
  }
}

TEST(Quantizer, CalibrateFreeScaleTighter) {
  std::vector<float> data = {-3.1f, 0.5f, 2.9f};
  Quantizer pow2(8, true), free(8, false);
  EXPECT_GE(pow2.calibrate(data), free.calibrate(data));
}

TEST(Quantizer, ZeroDataGivesValidScale) {
  Quantizer q(8, true);
  std::vector<float> zeros(16, 0.0f);
  EXPECT_GT(q.calibrate(zeros), 0.0);
  EXPECT_EQ(q.quantize_one(0.0f), 0);
}

TEST(Quantizer, QuantizeSaturatesAtExtremes) {
  Quantizer q(8, true);
  q.set_scale(0.01);
  EXPECT_EQ(q.quantize_one(10.0f), 127);
  EXPECT_EQ(q.quantize_one(-10.0f), -128);
}

TEST(Quantizer, SizeMismatchThrows) {
  Quantizer q(8);
  std::vector<float> in(4);
  std::vector<int8_t> out(3);
  EXPECT_THROW(q.quantize(in, out), std::invalid_argument);
}

TEST(Quantizer, MeasureStatsReasonable) {
  Quantizer q(8, true);
  util::Xoshiro256 rng(3);
  std::vector<float> data(4096);
  for (auto& x : data) x = static_cast<float>(rng.normal());
  q.calibrate(data);
  const QuantStats stats = q.measure(data);
  EXPECT_LE(stats.max_abs_error, q.scale() / 2 + 1e-9);
  EXPECT_GT(stats.rms_error, 0.0);
  EXPECT_LE(stats.mean_abs_error, stats.max_abs_error);
}

TEST(Quantizer, FourBitCoarserThanEightBit) {
  util::Xoshiro256 rng(4);
  std::vector<float> data(2048);
  for (auto& x : data) x = static_cast<float>(rng.normal());
  Quantizer q4(4, true), q8(8, true);
  q4.calibrate(data);
  q8.calibrate(data);
  EXPECT_GT(q4.measure(data).rms_error, q8.measure(data).rms_error);
}

TEST(Quantizer, Int16Path) {
  Quantizer q(16, true);
  std::vector<float> in = {0.1f, -0.2f, 0.3f};
  q.calibrate(in);
  std::vector<int16_t> out(3);
  q.quantize(in, out);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(q.dequantize_one(out[i]), in[i], q.scale() / 2 + 1e-9);
  }
}

// --- Quantizer conformance ------------------------------------------------------
//
// The definition: q = round_half_even(x / scale), saturated to [qmin,
// qmax], and NaN gives 0. Each expected code below follows from that
// definition and from how the input was built (its sign, a bound, or the
// side of a tie (k + 1/2) * scale it lies on), never from the code under
// test. Every input goes through quantize_one and both quantize()
// overloads.

void expect_code(const Quantizer& q, float x, int32_t want) {
  char input[64];
  std::snprintf(input, sizeof(input), "x = %a, bits = %d", double{x},
                q.bits());
  SCOPED_TRACE(input);
  EXPECT_EQ(q.quantize_one(x), want) << "quantize_one";
  const std::vector<float> in{x};
  std::vector<int16_t> wide(1);
  q.quantize(in, wide);
  EXPECT_EQ(wide[0], want) << "quantize to int16";
  if (q.bits() <= 8) {
    std::vector<int8_t> narrow(1);
    q.quantize(in, narrow);
    EXPECT_EQ(narrow[0], want) << "quantize to int8";
  }
}

constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(QuantizerConformance, SpecialValuesSaturateOrGiveZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float fmax = std::numeric_limits<float>::max();
  const double scale = 0.05;
  // The first float whose quotient reaches 2^63, the first beyond
  // int64_t, and the float just below it.
  const double two63 = std::ldexp(1.0, 63);
  float first = static_cast<float>(two63 * scale);
  while (static_cast<double>(first) / scale < two63) {
    first = std::nextafter(first, kInf);
  }
  while (static_cast<double>(std::nextafter(first, 0.0f)) / scale >= two63) {
    first = std::nextafter(first, 0.0f);
  }
  const float below = std::nextafter(first, 0.0f);
  ASSERT_GE(static_cast<double>(first) / scale, two63);
  ASSERT_LT(static_cast<double>(below) / scale, two63);

  for (int bits : {8, 16}) {
    Quantizer q(bits, false);
    q.set_scale(scale);
    const int32_t hi = (int32_t{1} << (bits - 1)) - 1;
    const int32_t lo = -(int32_t{1} << (bits - 1));
    expect_code(q, 0.0f, 0);
    expect_code(q, -0.0f, 0);
    expect_code(q, std::numeric_limits<float>::denorm_min(), 0);
    expect_code(q, nan, 0);
    expect_code(q, -nan, 0);
    for (float big : {kInf, fmax, 3e38f, 1e30f, 1e18f, first, below}) {
      expect_code(q, big, hi);
      expect_code(q, -big, lo);
    }
  }
}

TEST(QuantizerConformance, TiesGoToEvenAndTheirNeighboursToTheNearer) {
  const auto saturated = [](int32_t k) { return std::clamp(k, -128, 127); };
  // A power-of-two scale divides exactly, so (k + 1/2) * scale is an
  // exact tie: it goes to the even one of k and k + 1, and the floats on
  // either side of it go to the nearer one. k runs past both bounds.
  Quantizer pow2(8, true);
  pow2.set_scale(0.0625);
  for (int32_t k = -131; k <= 130; ++k) {
    const float tie = static_cast<float>((k + 0.5) * 0.0625);
    ASSERT_EQ(static_cast<double>(tie), (k + 0.5) * 0.0625);
    expect_code(pow2, tie, saturated(k % 2 == 0 ? k : k + 1));
    expect_code(pow2, std::nextafter(tie, kInf), saturated(k + 1));
    expect_code(pow2, std::nextafter(tie, -kInf), saturated(k));
  }
  // With scale 0.05 the tie is not a float. The float nearest to it lies
  // within half a float ulp, so its two neighbours lie at least half an
  // ulp (2^-25 relative) beyond the tie: far more than the double
  // quotient's rounding error (2^-53), so each rounds to its own side.
  Quantizer free(8, false);
  free.set_scale(0.05);
  for (int32_t k = -131; k <= 130; ++k) {
    const float near = static_cast<float>((k + 0.5) * 0.05);
    expect_code(free, std::nextafter(near, kInf), saturated(k + 1));
    expect_code(free, std::nextafter(near, -kInf), saturated(k));
  }
}

// The vector quantize() bodies run several lanes at once, and the tests
// above quantize one-element vectors, which never reach a vector lane.
// Here each conformance input (the special values and every tie and its
// neighbours, with the codes the definition gives) is put at each
// position of a 37-element span (filler with known codes elsewhere) and
// sent through both quantize() overloads.

struct Conformance {
  float x;
  int32_t want;
};

/// The special values at `q`'s scale: zeros, the smallest subnormal, NaN
/// and magnitudes that saturate (the first quotient >= 2^63 among them).
std::vector<Conformance> special_inputs(const Quantizer& q) {
  const double two63 = std::ldexp(1.0, 63);
  float first = static_cast<float>(two63 * q.scale());
  while (static_cast<double>(first) / q.scale() < two63) {
    first = std::nextafter(first, kInf);
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<Conformance> inputs = {
      {0.0f, 0}, {-0.0f, 0}, {std::numeric_limits<float>::denorm_min(), 0},
      {nan, 0},  {-nan, 0}};
  for (float big : {kInf, std::numeric_limits<float>::max(), 3e38f, 1e30f,
                    1e18f, first, std::nextafter(first, 0.0f)}) {
    inputs.push_back({big, q.qmax()});
    inputs.push_back({-big, q.qmin()});
  }
  return inputs;
}

/// Ties (k + 1/2) * scale for k past both bounds, and the floats beside
/// them. An exact tie (a power-of-two scale) goes to the even code; a
/// neighbour goes to the nearer one.
std::vector<Conformance> tie_inputs(const Quantizer& q, bool exact_ties) {
  const auto saturated = [&](int32_t k) {
    return std::clamp(k, q.qmin(), q.qmax());
  };
  std::vector<Conformance> inputs;
  for (int32_t k = q.qmin() - 3; k <= q.qmax() + 3; ++k) {
    const float tie = static_cast<float>((k + 0.5) * q.scale());
    if (exact_ties) {
      inputs.push_back({tie, saturated(k % 2 == 0 ? k : k + 1)});
    }
    inputs.push_back({std::nextafter(tie, kInf), saturated(k + 1)});
    inputs.push_back({std::nextafter(tie, -kInf), saturated(k)});
  }
  return inputs;
}

/// Each input at each position of a 37-element span of filler.
void expect_codes_in_every_lane(const Quantizer& q,
                                const std::vector<Conformance>& inputs) {
  constexpr size_t kSpan = 37;
  std::vector<float> in(kSpan);
  std::vector<int32_t> want(kSpan);
  for (const Conformance& c : inputs) {
    for (size_t pos = 0; pos < kSpan; ++pos) {
      for (size_t j = 0; j < kSpan; ++j) {  // filler: codes -2 .. 2
        want[j] = static_cast<int32_t>(j % 5) - 2;
        in[j] = static_cast<float>(want[j] * q.scale());
      }
      in[pos] = c.x;
      want[pos] = c.want;
      std::vector<int8_t> narrow(kSpan);
      std::vector<int16_t> wide(kSpan);
      q.quantize(in, narrow);
      q.quantize(in, wide);
      for (size_t j = 0; j < kSpan; ++j) {
        if (narrow[j] != want[j] || wide[j] != want[j]) {
          ADD_FAILURE() << "bits " << q.bits() << ", scale " << q.scale()
                        << ", x = " << c.x << " at lane " << pos
                        << ": lane " << j << " gave int8 " << int{narrow[j]}
                        << ", int16 " << wide[j] << ", want " << want[j];
          return;
        }
      }
    }
  }
}

TEST(QuantizerConformance, EveryInputInEveryLane) {
  for (int bits : {4, 8}) {
    SCOPED_TRACE(bits);
    Quantizer free(bits, false);
    free.set_scale(0.05);
    expect_codes_in_every_lane(free, special_inputs(free));
    expect_codes_in_every_lane(free, tie_inputs(free, false));
    Quantizer pow2(bits, true);
    pow2.set_scale(0.0625);
    expect_codes_in_every_lane(pow2, special_inputs(pow2));
    expect_codes_in_every_lane(pow2, tie_inputs(pow2, true));
  }
}

// --- Requantize --------------------------------------------------------------------

TEST(Requantize, ParamsRepresentRatio) {
  for (double ratio : {0.001, 0.03, 0.25, 1.0, 3.7, 100.0}) {
    const RequantParams p = make_requant_params(ratio);
    const double represented =
        static_cast<double>(p.multiplier) / std::exp2(31) *
        std::exp2(31 - p.shift);
    EXPECT_NEAR(represented, ratio, ratio * 1e-8);
    EXPECT_GE(p.multiplier, 1 << 30);
  }
}

TEST(Requantize, BadRatioThrows) {
  EXPECT_THROW(make_requant_params(0.0), std::invalid_argument);
  EXPECT_THROW(make_requant_params(-1.0), std::invalid_argument);
}

TEST(Requantize, MatchesDoubleReference) {
  util::Xoshiro256 rng(8);
  for (int i = 0; i < 2000; ++i) {
    const double ratio = std::exp(rng.uniform(-8.0, 2.0));
    const RequantParams p = make_requant_params(ratio);
    const auto acc =
        static_cast<int64_t>(rng.uniform(-1e6, 1e6));
    const int32_t got = requantize(acc, p, -128, 127);
    const double ideal = static_cast<double>(acc) * ratio;
    const auto expected = static_cast<int32_t>(std::clamp(
        std::round(ideal), -128.0, 127.0));
    // The Q31 multiplier representation can flip exact-half cases.
    EXPECT_NEAR(got, expected, 1) << "acc=" << acc << " ratio=" << ratio;
  }
}

TEST(Requantize, SaturatesToRange) {
  const RequantParams p = make_requant_params(1.0);
  EXPECT_EQ(requantize(1000000, p, -128, 127), 127);
  EXPECT_EQ(requantize(-1000000, p, -128, 127), -128);
}

TEST(Requantize, Pow2RoundsHalfToEven) {
  // 5 >> 1 with frac=1(half): floor=2 even -> 2; 7 >> 1: floor=3 odd -> 4.
  EXPECT_EQ(requantize_pow2(5, 1, -128, 127), 2);
  EXPECT_EQ(requantize_pow2(7, 1, -128, 127), 4);
  EXPECT_EQ(requantize_pow2(6, 1, -128, 127), 3);
}

TEST(Requantize, Pow2NegativeShiftIsLeftShift) {
  EXPECT_EQ(requantize_pow2(3, -2, -128, 127), 12);
}

TEST(Requantize, Pow2Saturates) {
  EXPECT_EQ(requantize_pow2(10000, 0, -128, 127), 127);
  EXPECT_EQ(requantize_pow2(-10000, 0, -128, 127), -128);
}

// Property: requantize is monotone in the accumulator.
class RequantMonotone : public ::testing::TestWithParam<double> {};

TEST_P(RequantMonotone, MonotoneInAcc) {
  const RequantParams p = make_requant_params(GetParam());
  int32_t prev = requantize(-5000, p, -128, 127);
  for (int64_t acc = -4999; acc <= 5000; acc += 37) {
    const int32_t cur = requantize(acc, p, -128, 127);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Ratios, RequantMonotone,
                         ::testing::Values(0.003, 0.01, 0.0625, 0.3, 1.0));

}  // namespace
}  // namespace protea::numeric

#include "numeric/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace protea::numeric {
namespace {

// Round half to even, matching Fixed<> and the HLS AP_RND_CONV mode.
int64_t round_half_even(double x) {
  const double fl = std::floor(x);
  const double frac = x - fl;
  if (frac > 0.5) return static_cast<int64_t>(fl) + 1;
  if (frac < 0.5) return static_cast<int64_t>(fl);
  const auto f = static_cast<int64_t>(fl);
  return (f % 2 == 0) ? f : f + 1;
}

}  // namespace

int32_t round_saturated(double q, int32_t lo, int32_t hi) {
  // The bounds are integers and rounding is monotone, so clamping first
  // gives the same value as rounding first for every in-range quotient.
  if (q >= hi) return hi;
  if (q <= lo) return lo;
  if (std::isnan(q)) return 0;
  return static_cast<int32_t>(std::llround(q));
}

Quantizer::Quantizer(int bits, bool pow2_scale)
    : bits_(bits), pow2_scale_(pow2_scale) {
  if (bits < 2 || bits > 16) {
    throw std::invalid_argument("Quantizer: bits must be in [2, 16]");
  }
  qmax_ = (int32_t{1} << (bits - 1)) - 1;
  qmin_ = -(int32_t{1} << (bits - 1));
}

double Quantizer::calibrate(std::span<const float> data) {
  float max_abs = 0.0f;
  for (float x : data) max_abs = std::max(max_abs, std::abs(x));
  if (max_abs == 0.0f) max_abs = 1.0f;
  double scale = static_cast<double>(max_abs) / static_cast<double>(qmax_);
  if (pow2_scale_) {
    // Round the scale up to the next power of two so no value saturates.
    scale = std::exp2(std::ceil(std::log2(scale)));
  }
  scale_ = scale;
  return scale_;
}

void Quantizer::set_scale(double scale) {
  if (scale <= 0.0) {
    throw std::invalid_argument("Quantizer: scale must be positive");
  }
  scale_ = scale;
}

int32_t Quantizer::quantize_one(float x) const {
  const double q = static_cast<double>(x) / scale_;
  // Saturate in double, before narrowing: a quotient of +-inf or of
  // magnitude 2^63 and up has no int64_t value. The bounds are integers
  // and rounding is monotone, so this gives the same code as rounding
  // first and clamping after for every other input.
  if (q >= qmax_) return qmax_;
  if (q <= qmin_) return qmin_;
  if (std::isnan(q)) return 0;
  return static_cast<int32_t>(round_half_even(q));
}

void Quantizer::quantize(std::span<const float> in,
                         std::span<int8_t> out) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("Quantizer: size mismatch");
  }
  size_t i = 0;
#ifdef __SSE2__
  // quantize_one four lanes at a time, without a branch. divpd rounds
  // like divsd; NaN is masked to 0; the clamp in double gives the same
  // code as rounding first, because the bounds are integers; and
  // cvtpd2dq rounds half to even in the default rounding mode, as the
  // scalar division already assumes. The operands live in locals: an
  // int8 store may alias the members.
  const __m128d scale = _mm_set1_pd(scale_);
  const __m128d lo = _mm_set1_pd(qmin_);
  const __m128d hi = _mm_set1_pd(qmax_);
  const auto codes = [&](__m128d x) {
    __m128d q = _mm_div_pd(x, scale);
    q = _mm_and_pd(q, _mm_cmpord_pd(q, q));
    q = _mm_min_pd(_mm_max_pd(q, lo), hi);
    return _mm_cvtpd_epi32(q);  // two int32 codes in the low half
  };
  for (; i + 4 <= in.size(); i += 4) {
    const __m128 x = _mm_loadu_ps(in.data() + i);
    __m128i q = _mm_unpacklo_epi64(codes(_mm_cvtps_pd(x)),
                                   codes(_mm_cvtps_pd(_mm_movehl_ps(x, x))));
    // static_cast<int8_t> keeps the low byte (wider codes at bits > 8):
    // sign-extend it, so the saturating packs pass it through unchanged.
    q = _mm_srai_epi32(_mm_slli_epi32(q, 24), 24);
    const __m128i words = _mm_packs_epi32(q, q);
    const int32_t bytes = _mm_cvtsi128_si32(_mm_packs_epi16(words, words));
    std::memcpy(out.data() + i, &bytes, sizeof(bytes));
  }
#endif
  for (; i < in.size(); ++i) {
    out[i] = static_cast<int8_t>(quantize_one(in[i]));
  }
}

void Quantizer::quantize(std::span<const float> in,
                         std::span<int16_t> out) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("Quantizer: size mismatch");
  }
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<int16_t>(quantize_one(in[i]));
  }
}

float Quantizer::dequantize_one(int32_t q) const {
  return static_cast<float>(static_cast<double>(q) * scale_);
}

void Quantizer::dequantize(std::span<const int8_t> in,
                           std::span<float> out) const {
  if (in.size() != out.size()) {
    throw std::invalid_argument("Quantizer: size mismatch");
  }
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = dequantize_one(in[i]);
  }
}

QuantStats Quantizer::measure(std::span<const float> data) const {
  QuantStats stats;
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  for (float x : data) {
    const int32_t q = quantize_one(x);
    if (q == qmax_ || q == qmin_) ++stats.saturated_count;
    const double err = static_cast<double>(x) - dequantize_one(q);
    const double abs_err = std::abs(err);
    stats.max_abs_error = std::max(stats.max_abs_error, abs_err);
    sum_abs += abs_err;
    sum_sq += err * err;
  }
  if (!data.empty()) {
    const auto n = static_cast<double>(data.size());
    stats.mean_abs_error = sum_abs / n;
    stats.rms_error = std::sqrt(sum_sq / n);
  }
  return stats;
}

}  // namespace protea::numeric

#include "numeric/requantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace protea::numeric {

RequantParams make_requant_params(double real_ratio) {
  if (!(real_ratio > 0.0) || !std::isfinite(real_ratio)) {
    throw std::invalid_argument("make_requant_params: ratio must be > 0");
  }
  int exp = 0;
  const double mant = std::frexp(real_ratio, &exp);  // mant in [0.5, 1)
  auto multiplier =
      static_cast<int64_t>(std::llround(mant * (int64_t{1} << 31)));
  if (multiplier == (int64_t{1} << 31)) {  // rounding pushed mant to 1.0
    multiplier /= 2;
    ++exp;
  }
  RequantParams params;
  params.multiplier = static_cast<int32_t>(multiplier);
  params.shift = 31 - exp;
  return params;
}

int32_t requantize(int64_t acc, RequantParams params, int32_t qmin,
                   int32_t qmax) {
  // 64x32 -> 96-bit product handled via __int128 (the hardware uses a
  // single wide DSP cascade; bit-exactness is what matters here).
  const __int128 prod =
      static_cast<__int128>(acc) * static_cast<__int128>(params.multiplier);
  const int shift = params.shift;
  __int128 rounded;
  if (shift <= 0) {
    rounded = prod << -shift;
  } else {
    // Round half away from zero under a flooring arithmetic shift:
    // positive values add half; negative values add (half - 1) so that
    // exact multiples stay exact and .5 cases move away from zero.
    const __int128 half = static_cast<__int128>(1) << (shift - 1);
    rounded = (prod >= 0 ? prod + half : prod + half - 1) >> shift;
  }
  if (rounded > qmax) return qmax;
  if (rounded < qmin) return qmin;
  return static_cast<int32_t>(rounded);
}

namespace {

/// requantize_row's body for 1 <= shift <= 62. The multiplier, shift and
/// half are locals: an int8 store may alias anything, so members read
/// through a pointer would be reloaded after every element.
template <bool kBias>
void requantize_row_int64(const int32_t* acc, const int32_t* bias,
                          size_t n, RequantParams params, int8_t* out) {
  const int64_t multiplier = params.multiplier;
  const int shift = params.shift;
  const int64_t half = int64_t{1} << (shift - 1);
  for (size_t j = 0; j < n; ++j) {
    int64_t s = acc[j];
    if constexpr (kBias) {
      s += bias[j];
      if (s != static_cast<int32_t>(s)) {  // past int32: the exact path
        out[j] = static_cast<int8_t>(requantize(s, params, -128, 127));
        continue;
      }
    }
    // requantize's rounding, with the sign folded in: a negative product
    // adds half - 1 under the flooring shift.
    const int64_t p = s * multiplier;
    const int64_t rounded =
        (p + half - static_cast<int64_t>(p < 0)) >> shift;
    out[j] = static_cast<int8_t>(std::clamp<int64_t>(rounded, -128, 127));
  }
}

}  // namespace

void requantize_row(std::span<const int32_t> acc, const int32_t* bias,
                    RequantParams params, std::span<int8_t> out) {
  if (acc.size() != out.size()) {
    throw std::invalid_argument("requantize_row: length mismatch");
  }
  const size_t n = acc.size();
  if (params.shift < 1 || params.shift > 62) {
    for (size_t j = 0; j < n; ++j) {
      const int64_t s = int64_t{acc[j]} + (bias != nullptr ? bias[j] : 0);
      out[j] = static_cast<int8_t>(requantize(s, params, -128, 127));
    }
  } else if (bias != nullptr) {
    requantize_row_int64<true>(acc.data(), bias, n, params, out.data());
  } else {
    requantize_row_int64<false>(acc.data(), nullptr, n, params, out.data());
  }
}

int32_t requantize_pow2(int64_t acc, int shift, int32_t qmin, int32_t qmax) {
  int64_t value;
  if (shift <= 0) {
    value = acc << -shift;
  } else {
    const int64_t floor_part = acc >> shift;
    const int64_t frac = acc & ((int64_t{1} << shift) - 1);
    const int64_t half = int64_t{1} << (shift - 1);
    if (frac > half) {
      value = floor_part + 1;
    } else if (frac < half) {
      value = floor_part;
    } else {
      value = (floor_part & 1) != 0 ? floor_part + 1 : floor_part;
    }
  }
  return static_cast<int32_t>(std::clamp<int64_t>(value, qmin, qmax));
}

}  // namespace protea::numeric

// Integer requantization of wide accumulators back to narrow activations.
//
// After a tile reduction, ProTEA's datapath must narrow the DSP48
// accumulator (scale s_x * s_w) to the activation format (scale s_y). With
// power-of-two scales this is a pure arithmetic shift; with free scales it
// is the standard fixed-point multiplier: y = (acc * M) >> shift with M a
// Q31 multiplier — the same scheme used by production int8 inference
// kernels, implementable with one extra DSP and a shifter.
#pragma once

#include <cstdint>
#include <span>

namespace protea::numeric {

struct RequantParams {
  int32_t multiplier = 1 << 30;  // Q31 fixed-point multiplier in [2^30, 2^31)
  int shift = 31;                // total right shift applied after multiply
};

/// Decomposes a positive real ratio (s_x*s_w/s_y) into multiplier/shift.
RequantParams make_requant_params(double real_ratio);

/// acc * multiplier / 2^shift with round-half-away-from-zero, then
/// saturation into [qmin, qmax]. Matches ARM/gemmlowp reference semantics.
/// Exact for every int64 accumulator and any shift (an __int128 product):
/// the oracle of requantize_row and its fallback.
int32_t requantize(int64_t acc, RequantParams params, int32_t qmin,
                   int32_t qmax);

/// The engines' write-back: out[j] = requantize(int64_t{acc[j]} +
/// bias[j], params, -128, 127) for every j; a null `bias` adds nothing.
/// One int64 product per element, rounded half away from zero without a
/// branch on its sign. That is exact whenever s = acc + bias fits int32
/// and 1 <= shift <= 62 (then |s * multiplier| <= 2^62 and adding the
/// half, at most 2^61, cannot overflow); any other element goes through
/// requantize. Throws std::invalid_argument unless acc and out have the
/// same length (bias, when given, must have it too).
void requantize_row(std::span<const int32_t> acc, const int32_t* bias,
                    RequantParams params, std::span<int8_t> out);

/// Pure power-of-two variant: acc >> shift with round-half-to-even and
/// saturation; negative shift means a left shift.
int32_t requantize_pow2(int64_t acc, int shift, int32_t qmin, int32_t qmax);

}  // namespace protea::numeric

// Runtime symmetric per-tensor quantization (float <-> int8/int16).
//
// ProTEA's host flow extracts float weights from a trained model and
// quantizes them to the accelerator's fixed-point format. This class is the
// software half of that flow: it picks a power-of-two or free scale, maps
// floats to saturated integers, and reports reconstruction error so the
// accuracy ablation can sweep bit-widths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace protea::numeric {

/// llround(q), rounding half away from zero, saturated to [lo, hi]. The
/// clamp is done in double before narrowing, so +-inf and quotients past
/// the integer range saturate instead of wrapping; NaN gives 0, as in
/// Quantizer::quantize_one.
int32_t round_saturated(double q, int32_t lo, int32_t hi);

struct QuantStats {
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  double rms_error = 0.0;
  int64_t saturated_count = 0;
};

class Quantizer {
 public:
  /// `bits` in [2, 16]; `pow2_scale` restricts the scale to a power of two
  /// (what a pure fixed-point datapath without rescaling multipliers needs).
  explicit Quantizer(int bits = 8, bool pow2_scale = true);

  int bits() const { return bits_; }
  int32_t qmax() const { return qmax_; }
  int32_t qmin() const { return qmin_; }

  /// Chooses the scale from the data's max |x| and returns it.
  /// Scale is defined so q = round(x / scale), x' = q * scale.
  double calibrate(std::span<const float> data);

  /// Uses a caller-provided scale (e.g. shared between tensors).
  void set_scale(double scale);
  double scale() const { return scale_; }

  /// Quantizes to saturated integers with round-half-to-even: q =
  /// round(x / scale) clamped to [qmin, qmax], so +-inf and every
  /// out-of-range value saturate. NaN quantizes to 0.
  int32_t quantize_one(float x) const;
  void quantize(std::span<const float> in, std::span<int8_t> out) const;
  void quantize(std::span<const float> in, std::span<int16_t> out) const;

  float dequantize_one(int32_t q) const;
  void dequantize(std::span<const int8_t> in, std::span<float> out) const;

  /// Round-trip error statistics for a tensor under the current scale.
  QuantStats measure(std::span<const float> data) const;

 private:
  int bits_;
  bool pow2_scale_;
  int32_t qmax_;
  int32_t qmin_;
  double scale_ = 1.0;
};

}  // namespace protea::numeric

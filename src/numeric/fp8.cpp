#include "numeric/fp8.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace protea::numeric {
namespace {

/// Static parameters of one minifloat format. `q_max` is the largest
/// significand (in units of 2^(e - mant_bits)) that still encodes a
/// finite value at the top exponent — e4m3 gives its all-ones mantissa
/// slot to NaN, e5m2 and e2m1 keep the full mantissa range finite.
struct MiniFloat {
  int mant_bits;   // explicit mantissa bits
  int bias;        // exponent bias
  int e_max;       // top exponent field value (all ones)
  int q_max;       // max finite significand at e_max (see above)
  bool has_inf;    // e_max field encodes inf/NaN instead of finites
};

constexpr MiniFloat kE4M3{.mant_bits = 3, .bias = 7, .e_max = 15,
                          .q_max = 14, .has_inf = false};
constexpr MiniFloat kE5M2{.mant_bits = 2, .bias = 15, .e_max = 31,
                          .q_max = 7, .has_inf = true};
constexpr MiniFloat kE2M1{.mant_bits = 1, .bias = 1, .e_max = 3,
                          .q_max = 3, .has_inf = false};

/// Code of the largest finite value (sign bit clear).
uint8_t max_finite_code(const MiniFloat& f) {
  const int m = f.mant_bits;
  if (f.has_inf) {
    return static_cast<uint8_t>(((f.e_max - 1) << m) | ((1 << m) - 1));
  }
  return static_cast<uint8_t>((f.e_max << m) | (f.q_max - (1 << m)));
}

/// Shared RNE encoder. The input magnitude is quantized onto the grid
/// step 2^(e - mant_bits) of its binade (clamped to the subnormal
/// scale), with the tie broken toward an even significand; a round-up
/// past the binade bumps the exponent. Exact in double: the inputs are
/// floats and the grid steps are powers of two, so `scaled` and its
/// fractional part are computed without rounding error.
uint8_t encode_generic(float x, const MiniFloat& f, uint8_t nan_code_mag) {
  const int m = f.mant_bits;
  const uint8_t sign = std::signbit(x) ? 0x80u >> (f.mant_bits == 1 ? 4 : 0)
                                       : 0u;
  // fp4's sign bit sits at bit 3 of the nibble; fp8's at bit 7. The
  // shift trick above keeps one encoder for both widths.
  if (std::isnan(x)) {
    return static_cast<uint8_t>(sign | nan_code_mag);
  }
  const double a = std::fabs(static_cast<double>(x));
  if (a == 0.0) return sign;  // signed zero preserved
  const uint8_t sat = static_cast<uint8_t>(sign | max_finite_code(f));
  if (std::isinf(x)) return sat;  // saturation-on-overflow policy
  // Finite overflow is caught after rounding (below), so a value that
  // merely ROUNDS to max finite still lands there exactly.
  const int e_min = 1 - f.bias;  // minimum normal exponent
  int e = std::ilogb(a);
  if (e < e_min) e = e_min;  // subnormal range keeps the min-normal scale
  const double ulp = std::ldexp(1.0, e - m);
  const double scaled = a / ulp;  // exact: both are powers-of-two scaled
  double q = std::floor(scaled);
  const double frac = scaled - q;
  if (frac > 0.5 || (frac == 0.5 && std::fmod(q, 2.0) != 0.0)) {
    q += 1.0;
  }
  if (q >= static_cast<double>(2 << m)) {  // rounded up past the binade
    q /= 2.0;
    ++e;
  }
  const int e_top = (f.has_inf ? f.e_max - 1 : f.e_max) - f.bias;
  auto qi = static_cast<int>(q);
  if (e > e_top || (e == e_top && !f.has_inf && qi > f.q_max)) {
    return sat;
  }
  if (qi < (1 << m)) {  // subnormal (e == e_min by construction)
    return static_cast<uint8_t>(sign | qi);
  }
  const int exp_field = e + f.bias;
  return static_cast<uint8_t>(sign | (exp_field << m) | (qi - (1 << m)));
}

float decode_generic(uint8_t code, const MiniFloat& f, int sign_bit) {
  const int m = f.mant_bits;
  const bool neg = (code >> sign_bit) & 1;
  const int exp_field = (code >> m) & ((1 << (sign_bit - m)) - 1);
  const int mant = code & ((1 << m) - 1);
  double v;
  if (f.has_inf && exp_field == f.e_max) {
    if (mant != 0) return std::numeric_limits<float>::quiet_NaN();
    v = std::numeric_limits<double>::infinity();
  } else if (!f.has_inf && exp_field == f.e_max && f.q_max < (2 << m) - 1 &&
             mant == (1 << m) - 1) {
    // e4m3's all-ones slot: NaN, sign irrelevant to the payload.
    return std::numeric_limits<float>::quiet_NaN();
  } else if (exp_field == 0) {
    v = std::ldexp(static_cast<double>(mant), 1 - f.bias - m);
  } else {
    v = std::ldexp(static_cast<double>((1 << m) + mant),
                   exp_field - f.bias - m);
  }
  return static_cast<float>(neg ? -v : v);
}

/// int8 read-back of a decoded value: clamp(rne(v * scale)) into the
/// full int8 range. NaN codes read 0 (never produced by the codec's own
/// encode — a total-function backstop for foreign bytes).
int8_t to_int8(float v, double scale) {
  if (std::isnan(v)) return 0;
  const double scaled = static_cast<double>(v) * scale;
  if (scaled >= 127.0) return 127;
  if (scaled <= -128.0) return -128;
  const double r = std::nearbyint(scaled);  // FE_TONEAREST = ties-to-even
  return static_cast<int8_t>(r);
}

KvCodec build_codec(KvStorage storage) {
  KvCodec c;
  c.storage = storage;
  switch (storage) {
    case KvStorage::kFp8E4M3:
    case KvStorage::kFp8E5M2: {
      const Fp8Format fmt = storage == KvStorage::kFp8E4M3
                                ? Fp8Format::kE4M3
                                : Fp8Format::kE5M2;
      for (int q = -128; q <= 127; ++q) {
        c.encode[q + 128] = fp8_encode(static_cast<float>(q), fmt);
      }
      for (int code = 0; code < 256; ++code) {
        c.decode[code] =
            to_int8(fp8_decode(static_cast<uint8_t>(code), fmt), 1.0);
      }
      break;
    }
    case KvStorage::kFp4E2M1: {
      // Scale 32 maps the e2m1 magnitudes {0,.5,1,1.5,2,3,4,6} onto the
      // int8 grid {0,16,32,48,64,96,192->sat}: power-of-two, so every
      // decoded level is an exact integer and the table is the whole
      // contract.
      for (int q = -128; q <= 127; ++q) {
        c.encode[q + 128] = fp4_encode(static_cast<float>(q) / 32.0f);
      }
      for (int code = 0; code < 16; ++code) {
        c.decode[code] =
            to_int8(fp4_decode(static_cast<uint8_t>(code)), 32.0);
      }
      break;
    }
    case KvStorage::kInt8:
      break;  // unreachable via kv_codec()
  }
  // Canonicalize zero: small negative values encode to -0, which reads
  // back 0 and would RE-encode as +0 — a byte-level instability under
  // gather -> re-scatter. Storing +0 for every value that rounds to
  // zero makes encode(decode(encode(q))) == encode(q) exhaustively.
  const uint8_t mag_mask = storage == KvStorage::kFp4E2M1 ? 0x07 : 0x7f;
  for (int i = 0; i < 256; ++i) {
    if ((c.encode[i] & mag_mask) == 0) c.encode[i] = 0;
  }
  for (int q = -128; q <= 127; ++q) {
    c.roundtrip[q + 128] = c.decode[c.encode[q + 128]];
  }
  return c;
}

}  // namespace

uint8_t fp8_encode(float x, Fp8Format fmt) {
  // Canonical NaN: sign | 0x7f — e4m3's only NaN slot, one of e5m2's.
  return fmt == Fp8Format::kE4M3 ? encode_generic(x, kE4M3, 0x7f)
                                 : encode_generic(x, kE5M2, 0x7f);
}

float fp8_decode(uint8_t code, Fp8Format fmt) {
  return fmt == Fp8Format::kE4M3 ? decode_generic(code, kE4M3, 7)
                                 : decode_generic(code, kE5M2, 7);
}

uint8_t fp4_encode(float x) {
  if (std::isnan(x)) return 0;  // e2m1 has no NaN: documented policy
  return encode_generic(x, kE2M1, 0);
}

float fp4_decode(uint8_t code) {
  return decode_generic(static_cast<uint8_t>(code & 0x0f), kE2M1, 3);
}

const char* kv_storage_name(KvStorage s) {
  switch (s) {
    case KvStorage::kInt8: return "int8";
    case KvStorage::kFp8E4M3: return "fp8_e4m3";
    case KvStorage::kFp8E5M2: return "fp8_e5m2";
    case KvStorage::kFp4E2M1: return "fp4_e2m1";
  }
  return "?";
}

const KvCodec* kv_codec(KvStorage storage) {
  if (storage == KvStorage::kInt8) return nullptr;
  static const KvCodec e4m3 = build_codec(KvStorage::kFp8E4M3);
  static const KvCodec e5m2 = build_codec(KvStorage::kFp8E5M2);
  static const KvCodec e2m1 = build_codec(KvStorage::kFp4E2M1);
  switch (storage) {
    case KvStorage::kFp8E4M3: return &e4m3;
    case KvStorage::kFp8E5M2: return &e5m2;
    case KvStorage::kFp4E2M1: return &e2m1;
    case KvStorage::kInt8: break;
  }
  return nullptr;
}

void kv_roundtrip_inplace(const KvCodec& codec, std::span<int8_t> values) {
  for (int8_t& q : values) {
    q = codec.roundtrip[static_cast<uint8_t>(q) ^ 0x80u];
  }
}

}  // namespace protea::numeric

// FP8 (e4m3 / e5m2) and FP4 (e2m1) conversion layer + the KV-storage
// codec built on it.
//
// Encoding contract (chosen up front, pinned exhaustively by
// tests/test_fp8.cpp against an independently computed table):
//
//   * e4m3 — OCP FP8 "FN" variant: 1 sign / 4 exponent (bias 7) /
//     3 mantissa. NO infinities; S.1111.111 is the only NaN per sign;
//     S.1111.110 = ±448 is the max finite. Encoding SATURATES on
//     overflow (±inf and any |x| that rounds past 448 map to ±448);
//     NaN input maps to the canonical NaN of its sign (0x7F / 0xFF).
//   * e5m2 — IEEE-754 binary8 style: 1 sign / 5 exponent (bias 15) /
//     2 mantissa. Exponent 31 with mantissa 0 is ±inf, nonzero mantissa
//     is NaN; max finite is ±57344. Encoding never emits inf: overflow
//     saturates to the max finite, NaN maps to the canonical NaN
//     (0x7F / 0xFF). Decoding reproduces ±inf/NaN faithfully.
//   * e2m1 — OCP FP4: 1 sign / 2 exponent (bias 1) / 1 mantissa. The
//     eight magnitudes are {0, 0.5, 1, 1.5, 2, 3, 4, 6}; no inf, no
//     NaN. Encoding saturates at ±6; NaN input maps to +0 (the format
//     cannot represent it — documented, pinned).
//
//   All conversions round to nearest, ties to EVEN mantissa, including
//   into and out of the subnormal range (exponent field 0 keeps the
//   minimum-normal scale with no implicit leading 1). Signed zero is
//   preserved. Every encode/decode is a pure table-free function of its
//   input — identical on every call, which is what makes FP8-stored KV
//   decode exactly reproducible.
//
// KV-storage codec: the paged KV cache stores int8-quantized rows. A
// non-int8 KvStorage re-encodes each stored int8 value q on write and
// decodes on every read through 256-entry tables derived from the
// conversions above:
//
//   encode[q+128] = fp_encode((float)q / scale)   (scale 1 for fp8,
//                                                  32 for fp4)
//   decode[code]  = clamp(rne(fp_decode(code) * scale), int8 range)
//
// decode∘encode is idempotent on the int8 grid (verified exhaustively),
// so a stored row reads back the same on every access and re-encoding a
// read-back row changes nothing — the reproducibility guarantee the
// paged==full-recompute / COW / swap / prefix-adoption property suites
// pin.
// The fp8 formats keep 1 byte/element (byte-neutral storage; the win is
// the datapath + perf-model wiring); fp4 packs TWO elements per byte
// (low nibble = even element), which is the format that actually halves
// KV block bytes and doubles concurrent sequences at a fixed pool.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace protea::numeric {

enum class Fp8Format : uint8_t {
  kE4M3 = 0,  // OCP FN: no inf, one NaN per sign, max finite 448
  kE5M2 = 1,  // IEEE style: inf + NaN, max finite 57344
};

/// float -> fp8 byte with round-to-nearest-even, saturation on overflow
/// (never emits inf) and the NaN policy documented above.
uint8_t fp8_encode(float x, Fp8Format fmt);
/// fp8 byte -> exact float value (total: NaN/inf codes decode to
/// NaN/±inf for e5m2; the e4m3 NaN codes decode to NaN).
float fp8_decode(uint8_t code, Fp8Format fmt);

/// float -> fp4 e2m1 nibble (low 4 bits; high bits zero) with RNE,
/// saturation at ±6, NaN -> +0.
uint8_t fp4_encode(float x);
/// fp4 nibble -> exact float value (high bits of `code` ignored).
float fp4_decode(uint8_t code);

/// Self-K/V storage format of a KvBlockPool / KvCache (see
/// runtime/kv_cache.hpp). kInt8 is the bit-exact reference layout the
/// engines natively consume; the others re-encode on write and decode
/// on read through kv_codec().
enum class KvStorage : uint8_t {
  kInt8 = 0,
  kFp8E4M3 = 1,
  kFp8E5M2 = 2,
  kFp4E2M1 = 3,  // packed 2 elements/byte — halves KV block bytes
};

constexpr size_t kv_storage_bits(KvStorage s) {
  return s == KvStorage::kFp4E2M1 ? 4 : 8;
}

/// Stored bytes for `elems` cached elements (fp4 packs two per byte;
/// odd element counts round up).
constexpr size_t kv_storage_bytes(size_t elems, KvStorage s) {
  return s == KvStorage::kFp4E2M1 ? (elems + 1) / 2 : elems;
}

const char* kv_storage_name(KvStorage s);

/// Precomputed int8 <-> stored-code tables for one non-int8 storage
/// format. Immutable once built; safe to share across threads.
struct KvCodec {
  KvStorage storage = KvStorage::kInt8;
  /// Stored code for int8 value q, indexed by q + 128 (a full byte for
  /// the fp8 formats, a nibble 0..15 for fp4). Values that round to
  /// zero store canonical +0, so the stored byte is stable under
  /// decode -> re-encode (gather then re-scatter changes nothing).
  std::array<uint8_t, 256> encode{};
  /// int8 value a stored code reads back as: clamp(rne(value * scale))
  /// into [-128, 127]. fp8 indexes with the stored byte (NaN codes
  /// read 0, e5m2 ±inf read ±127/-128); fp4 indexes with the nibble
  /// (entries 16..255 are 0 and never addressed).
  std::array<int8_t, 256> decode{};
  /// roundtrip[q+128] = decode[encode[q+128]] — the value a stored q
  /// reads back as. The full-recompute reference forward snaps fresh
  /// K/V through it, so it sees exactly what a cached sequence reads
  /// back from its encoded blocks.
  std::array<int8_t, 256> roundtrip{};
};

/// Codec for `storage`; nullptr for kInt8 (no conversion). The tables
/// are built once (thread-safe static init) and never mutated.
const KvCodec* kv_codec(KvStorage storage);

/// Replaces every value with codec.roundtrip of it, in place.
void kv_roundtrip_inplace(const KvCodec& codec, std::span<int8_t> values);

}  // namespace protea::numeric

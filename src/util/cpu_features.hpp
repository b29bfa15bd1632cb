// The one CPU-feature query behind every body chosen at run time.
//
// GCC and Clang compile a function for AVX2 by `target("avx2")` attribute
// alone, so one baseline x86-64 binary carries both a portable body and
// an AVX2 body and runs everywhere. Each such site (the int8 kernel's
// row_block table in tensor/qgemm.cpp, the LM head's project_logits in
// runtime/decode_policy.cpp) asks here, never the CPU directly.
#pragma once

namespace protea::util {

/// True when the CPU running this process has AVX2; false off x86 or
/// without GNU builtins. The CPU is asked once, on first use, in a
/// function-local static: thread-safe, and valid even from another
/// object's static initializer. No option or environment variable
/// overrides it.
bool cpu_has_avx2();

}  // namespace protea::util

#include "util/cpu_features.hpp"

namespace protea::util {

bool cpu_has_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  // __builtin_cpu_init makes the query valid before the runtime's own
  // constructor has run.
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace protea::util

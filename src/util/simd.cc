#include "util/simd.h"

namespace fsjoin {

namespace {

SimdIsa ProbeCpu() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
  return SimdIsa::kScalar;
#elif defined(__ARM_NEON)
  // NEON is architectural on aarch64; no runtime probe needed.
  return SimdIsa::kNeon;
#else
  return SimdIsa::kScalar;
#endif
}

}  // namespace

const char* SimdIsaName(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return "scalar";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kNeon:
      return "neon";
  }
  return "?";
}

SimdIsa DetectedSimdIsa() {
  static const SimdIsa detected = ProbeCpu();
  return detected;
}

}  // namespace fsjoin

#ifndef FSJOIN_UTIL_SIMD_H_
#define FSJOIN_UTIL_SIMD_H_

/// The host's vector instruction set, for machine descriptors in benchmark
/// reports. The overlap kernel itself is scalar (DESIGN.md §5g), so nothing
/// dispatches on this.

namespace fsjoin {

enum class SimdIsa {
  kScalar,
  kAvx2,  ///< x86-64, 8 x 32-bit lanes
  kNeon,  ///< aarch64, 4 x 32-bit lanes
};

const char* SimdIsaName(SimdIsa isa);

/// The best vector ISA this CPU offers (probed once, then cached): cpuid via
/// __builtin_cpu_supports on x86-64, compile-time __ARM_NEON on aarch64.
SimdIsa DetectedSimdIsa();

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_SIMD_H_

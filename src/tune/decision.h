#ifndef FSJOIN_TUNE_DECISION_H_
#define FSJOIN_TUNE_DECISION_H_

#include <cstdint>

#include "core/fsjoin_config.h"
#include "exec/exec_config.h"

namespace fsjoin::tune {

/// Order-invariant aggregates of one sealed fragment batch — the decision
/// inputs. All three are permutation-invariant over the fragment's
/// segments, so the per-fragment choice is deterministic across runners,
/// thread counts and morsel sizes.
struct FragmentShape {
  uint32_t num_segments = 0;
  uint64_t total_tokens = 0;
  uint32_t max_segment_len = 0;
  /// R-S fragments only (both zero on self-join fragments): how
  /// num_segments splits across the probe (R) and build (S) sides. The
  /// pair space of an R-S fragment is probe x build, not n-choose-2, so a
  /// lopsided split (many probes, few builds) joins far fewer pairs than a
  /// self-join fragment of the same size — the method crossover must see
  /// that asymmetry.
  uint32_t probe_segments = 0;
  uint32_t build_segments = 0;

  bool IsRs() const { return probe_segments + build_segments > 0; }
};

/// Calibrated crossover constants of the per-fragment cost model. The
/// defaults are measured, not guessed: bench_micro_kernels --json sweeps
/// segment lengths 2..512 per kernel family (the "crossover/..." rows of
/// BENCH_kernels.json) and fragment sizes per join method; see DESIGN.md
/// §5i for the measured curves behind each constant.
struct TuningPolicy {
  /// Fragments with at most this many segments run the nested loop: below
  /// the crossover the inverted-index build costs more than the O(n^2)
  /// probe loop it replaces.
  uint32_t loop_max_segments = 24;
  /// Average segment length at or below which the full index join beats
  /// the prefix join: for 1-2 token segments the prefix is the whole
  /// segment, so prefix bookkeeping buys no pruning.
  uint32_t index_max_avg_len = 2;
  /// Average segment length below which the word-packed kernel beats the
  /// vectorized one (per-call SIMD setup dominates tiny merges); at or
  /// above it the SIMD kernel wins. Ignored when the build/CPU has no
  /// vector kernels.
  uint32_t simd_min_avg_len = 8;
};

/// The per-fragment resolved choice.
struct FragmentPlan {
  JoinMethod method = JoinMethod::kPrefix;
  exec::KernelMode kernel = exec::KernelMode::kPacked;
};

/// Picks join method and overlap kernel for one fragment from its shape
/// (DESIGN.md §5i). Pure function of (shape, policy, SimdAvailable()):
/// every kernel/method produces identical join results, so the choice only
/// moves wall time, never output.
FragmentPlan ChooseFragmentPlan(const FragmentShape& shape,
                                const TuningPolicy& policy);

}  // namespace fsjoin::tune

#endif  // FSJOIN_TUNE_DECISION_H_

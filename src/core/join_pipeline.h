#ifndef FSJOIN_CORE_JOIN_PIPELINE_H_
#define FSJOIN_CORE_JOIN_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "core/fragment_join.h"

namespace fsjoin {

/// Per-plan-shape compiled join pipelines (DESIGN.md §5g).
///
/// A fragment join's inner loop depends on two run-constant choices: the
/// join method (probe-loop shape) and the enabled filter subset. The seed
/// code re-branched on both per candidate pair; here every combination is
/// monomorphized into its own probe loop at build time (`if constexpr` drops
/// disabled filters entirely) and JoinFragmentBatch picks the matching
/// function pointer ONCE per fragment from the KernelRegistry. Every loop
/// counts overlaps with the one kernel: the bitmap gate, then SortedOverlap.

/// Filter-subset bits of a pipeline shape; bit set = filter enabled. The
/// role/pairing rule (FragmentJoinOptions::pair_allowed) stays a runtime
/// check — it is a std::function, not specializable.
inline constexpr uint32_t kPipelineStrL = 1u << 0;  ///< Lemma 1
inline constexpr uint32_t kPipelineSegL = 1u << 1;  ///< Lemma 2
inline constexpr uint32_t kPipelineSegI = 1u << 2;  ///< Lemma 3
inline constexpr uint32_t kPipelineSegD = 1u << 3;  ///< Lemma 4
inline constexpr uint32_t kNumFilterMasks = 16;

/// One point of the specialization lattice: names exactly one compiled loop.
struct PipelineShape {
  JoinMethod method = JoinMethod::kPrefix;
  uint32_t filter_mask = kNumFilterMasks - 1;
};

/// The shape a fragment join with these options dispatches to.
PipelineShape ShapeOf(const FragmentJoinOptions& opts);

/// A compiled pipeline: joins one sealed batch end to end (morsel split,
/// index build, probe loops) exactly like JoinFragmentBatch documents.
using PipelineFn = void (*)(const SegmentBatch&, const FragmentJoinOptions&,
                            std::vector<PartialOverlap>*, FilterCounters*);

/// Immutable table of every monomorphized pipeline, built once per process.
/// kIndex and kPrefix share loop instantiations (both are indexed probes;
/// the per-row prefix length is decided at index build, at run time), so the
/// table holds 2 loop shapes x 16 masks = 32 distinct functions behind
/// 3 x 16 = 48 slots.
class KernelRegistry {
 public:
  static const KernelRegistry& Get();

  /// Never null — every shape has a pipeline.
  PipelineFn Lookup(const PipelineShape& shape) const;

 private:
  KernelRegistry();

  static constexpr int kNumMethods = 3;  ///< loop, index, prefix

  PipelineFn table_[kNumMethods][kNumFilterMasks] = {};
};

}  // namespace fsjoin

#endif  // FSJOIN_CORE_JOIN_PIPELINE_H_

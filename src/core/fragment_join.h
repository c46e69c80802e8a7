#ifndef FSJOIN_CORE_FRAGMENT_JOIN_H_
#define FSJOIN_CORE_FRAGMENT_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/fsjoin_config.h"
#include "core/segments.h"
#include "util/thread_pool.h"

namespace fsjoin {

/// Probe segments per morsel of a morsel-parallel fragment join: balances
/// scheduling overhead against steal granularity on skewed fragments
/// (bench_micro_kernels --json measures the split).
inline constexpr size_t kJoinMorselSize = 64;

/// Pruning statistics from fragment joins — the raw data behind Table IV.
/// Every counter is a plain sum, so Add is associative and commutative:
/// counters merged over any morsel split of a fragment equal the serial
/// counters exactly (tested in fragment_join_test).
struct FilterCounters {
  uint64_t pairs_considered = 0;  ///< candidate segment pairs examined
  uint64_t pruned_role = 0;       ///< rejected by band/R-S pairing rules
  uint64_t pruned_strl = 0;       ///< Lemma 1
  uint64_t pruned_segl = 0;       ///< Lemma 2
  uint64_t pruned_segi = 0;       ///< Lemma 3
  uint64_t pruned_segd = 0;       ///< Lemma 4
  uint64_t empty_overlap = 0;     ///< candidates with no common token
  uint64_t emitted = 0;           ///< partial-overlap records produced

  void Add(const FilterCounters& other);
};

/// One partial result of the filtering phase: a record pair and the number
/// of common tokens contributed by one fragment.
struct PartialOverlap {
  RecordId a = 0;  ///< smaller rid
  RecordId b = 0;  ///< larger rid
  uint32_t size_a = 0;
  uint32_t size_b = 0;
  uint64_t overlap = 0;
};

/// Parameters of one fragment-local join.
struct FragmentJoinOptions {
  SimilarityFunction function = SimilarityFunction::kJaccard;
  double theta = 0.8;
  JoinMethod method = JoinMethod::kPrefix;
  /// See FsJoinConfig::aggressive_segment_prefix.
  bool aggressive_segment_prefix = false;
  bool use_length_filter = true;
  bool use_segment_length_filter = true;
  bool use_segment_intersection_filter = true;
  bool use_segment_difference_filter = true;
  /// Optional structural pairing rule (horizontal band role). When set,
  /// pairs for which it returns false are never joined.
  std::function<bool(const SegmentView&, const SegmentView&)> pair_allowed;

  /// Two-collection joins: when set, rows with rid < rs_boundary are the
  /// probe (R) side and the rest the build (S) side, and the join loops
  /// enumerate only cross-side pairs — R×R/S×S pairs are never formed (and
  /// never counted), instead of being generated and filtered out. The
  /// batch must be side-tagged (SegmentBatch::TagSides) with this boundary.
  std::optional<RecordId> rs_boundary;

  /// Morsel-parallel execution: when `morsel_pool` is set and
  /// `morsel_size` > 0, the probe loop is cut into morsels of `morsel_size`
  /// probe segments scheduled onto the pool. Each morsel appends to its own
  /// output/counter buffers, merged in morsel-index order, so results and
  /// counters are byte-identical to the serial run for every morsel size
  /// and thread count. A null pool is the serial path. The filtering
  /// reducer passes the thread-pool runner's own pool, on which the
  /// reducers themselves run, so idle reduce workers steal a straggler
  /// fragment's morsels; not owned.
  ThreadPool* morsel_pool = nullptr;
  size_t morsel_size = kJoinMorselSize;  ///< probe segments per morsel
};

/// Joins all segment pairs of one fragment over columnar storage (the
/// reducer body of the filtering job, §V-A "Join Algorithms"), appending
/// surviving partial overlaps to *out and pruning statistics to *counters.
/// The batch must be sealed. Output order is deterministic and independent
/// of morsel size and thread count.
void JoinFragmentBatch(const SegmentBatch& batch,
                       const FragmentJoinOptions& options,
                       std::vector<PartialOverlap>* out,
                       FilterCounters* counters);

/// Row-oriented adapter over JoinFragmentBatch: builds the columnar batch
/// from `segments` and joins it. Semantics (results, order, counters) are
/// identical to joining the rows directly.
void JoinFragment(const std::vector<SegmentRecord>& segments,
                  const FragmentJoinOptions& options,
                  std::vector<PartialOverlap>* out, FilterCounters* counters);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_FRAGMENT_JOIN_H_

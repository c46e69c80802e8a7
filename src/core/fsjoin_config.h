#ifndef FSJOIN_CORE_FSJOIN_CONFIG_H_
#define FSJOIN_CORE_FSJOIN_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>

#include "exec/exec_config.h"
#include "sim/similarity.h"
#include "text/record.h"
#include "util/status.h"

namespace fsjoin {

/// How vertical pivots are chosen from the global ordering (§IV).
enum class PivotStrategy {
  kRandom,        ///< uniform random token ranks
  kEvenInterval,  ///< equally spaced ranks (equal #distinct tokens/fragment)
  kEvenTf,        ///< equal total term frequency per fragment (paper default)
};

const char* PivotStrategyName(PivotStrategy strategy);

/// Join algorithm inside each fragment's reducer (§V-A).
enum class JoinMethod {
  kLoop,    ///< nested-loop over segment pairs
  kIndex,   ///< full inverted index on segment tokens
  kPrefix,  ///< prefix-filtered inverted index (paper default)
};

const char* JoinMethodName(JoinMethod method);

/// Full configuration of one FS-Join run.
struct FsJoinConfig {
  /// Similarity threshold θ ∈ (0, 1].
  double theta = 0.8;
  SimilarityFunction function = SimilarityFunction::kJaccard;

  /// Number of fragments (vertical partitions); the paper uses the worker
  /// count. Pivot count is num_vertical_partitions - 1.
  uint32_t num_vertical_partitions = 8;
  PivotStrategy pivot_strategy = PivotStrategy::kEvenTf;

  /// Number of horizontal length pivots t (yielding 2t+1 length groups).
  /// 0 disables horizontal partitioning (the paper's FS-Join-V).
  uint32_t num_horizontal_partitions = 0;

  JoinMethod join_method = JoinMethod::kPrefix;

  /// Segment-prefix policy for JoinMethod::kPrefix.
  ///
  /// false (default, exact): prefixes are sized by the per-record local
  /// overlap bound, which provably never loses a partial count of a
  /// θ-similar pair — results equal brute force.
  ///
  /// true (paper-aggressive): each segment is prefix-filtered like an
  /// independent mini-join at threshold θ (prefix = |seg| − ceil(θ|seg|)
  /// + 1, §V-A "Prefix Based Index Join"). Far faster on corpora whose
  /// frequent tokens appear in most records (e.g. Wiki), but partial
  /// counts of pairs that share only frequent tokens in some fragment can
  /// be missed, so borderline result pairs may be dropped (bounded recall
  /// loss, never false positives). See DESIGN.md.
  bool aggressive_segment_prefix = false;

  /// Filter toggles (all on = the paper's "All" row in Table IV). The
  /// prefix filter is implied by join_method == kPrefix.
  bool use_length_filter = true;                ///< StrL-Filter (Lemma 1)
  bool use_segment_length_filter = true;        ///< SegL-Filter (Lemma 2)
  bool use_segment_intersection_filter = true;  ///< SegI-Filter (Lemma 3)
  bool use_segment_difference_filter = true;    ///< SegD-Filter (Lemma 4)

  /// Engine shape (task counts, threads, runner) — shared with the
  /// baselines via exec::ExecConfig.
  exec::ExecConfig exec;

  /// When set, runs an R-S join over a concatenated corpus: only pairs with
  /// exactly one record id below the boundary are produced.
  std::optional<RecordId> rs_boundary;

  /// Debug/verification: capture every surviving partial overlap emitted by
  /// the filtering reducers into FsJoinOutput::partial_overlaps (sorted
  /// canonically). The differential harness in src/check uses it to assert
  /// the conservation law Σ fragment overlaps == exact overlap per result
  /// pair. Off by default — capture is O(emitted) extra memory.
  bool collect_partial_overlaps = false;

  /// Seed for PivotStrategy::kRandom.
  uint64_t seed = 7;

  /// Checks parameter ranges; call before Run.
  Status Validate() const;

  /// One-line description for logs/benches.
  std::string Summary() const;
};

}  // namespace fsjoin

#endif  // FSJOIN_CORE_FSJOIN_CONFIG_H_

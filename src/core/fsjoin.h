#ifndef FSJOIN_CORE_FSJOIN_H_
#define FSJOIN_CORE_FSJOIN_H_

#include <string>
#include <vector>

#include "core/fragment_join.h"
#include "core/fsjoin_config.h"
#include "mr/metrics.h"
#include "sim/global_order.h"
#include "sim/join_result.h"
#include "text/corpus.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fsjoin {

namespace exec {
class MapReduceBackend;
}  // namespace exec

/// Everything measured during one FS-Join run — the data every reproduced
/// table and figure is computed from.
struct FsJoinReport {
  FsJoinConfig config;
  std::vector<TokenRank> pivots;
  std::vector<uint32_t> length_pivots;

  /// The driver's global-order build, as a job row with no tasks and no
  /// bytes: job_name "ordering" and total_wall_micros from the build. The
  /// order comes from the ingest dictionary, so no job counts tokens.
  mr::JobMetrics ordering_job;
  /// The two MapReduce jobs' exact counters (pinned by
  /// MetricsRegressionTest).
  mr::JobMetrics filtering_job;
  mr::JobMetrics verification_job;

  FilterCounters filters;
  uint64_t candidate_pairs = 0;  ///< distinct pairs reaching verification
  uint64_t result_pairs = 0;
  double total_wall_ms = 0.0;

  /// The ordering row, then the two jobs, in execution order. The ordering
  /// row adds its wall and no bytes; benches that follow the paper's cost
  /// scope pass JoinJobs() instead.
  std::vector<mr::JobMetrics> AllJobs() const;
  /// Filtering + verification jobs only (paper's §V-C scope).
  std::vector<mr::JobMetrics> JoinJobs() const;

  std::string Summary() const;
};

/// A two-collection (R-S) join input: probe collection R and build
/// collection S. The join produces exactly the cross pairs — one record
/// from each side — whose similarity passes theta; no R×R or S×S pair is
/// ever formed.
struct JoinInput {
  const Corpus& r;
  const Corpus& s;
};

/// Builds the merged corpus every R-S join runs on. R's records keep both
/// their record ids and their token ids: R's dictionary is interned first,
/// in token-id order, so the union mapping is the identity on R and probe
/// tokens are never remapped (the disjoint-vocabulary invariant the check
/// harness asserts). S's tokens are interned into the union dictionary and
/// its record ids are offset by |R|. Term frequencies are the sums of both
/// sides' frequencies, the document frequencies over R ∪ S, which is what
/// makes the global token ordering shared by both sides. The R/S boundary
/// of the result is input.r.records.size().
///
/// S tokens new to R get ids above R's in first-sight order: by the first
/// S record that holds the token, then by S token id (S records hold their
/// ids sorted), which is what interning every S occurrence in record order
/// gives. The lookups, the remap and sort of every record and the copy
/// into the dictionary run on `pool` (null = inline on the caller); ids do
/// not depend on the thread count.
Corpus MergeJoinInput(const JoinInput& input, ThreadPool* pool = nullptr);

/// The result pairs plus the full report.
struct FsJoinOutput {
  JoinResultSet pairs;
  FsJoinReport report;

  /// Populated when config.collect_partial_overlaps is set: every partial
  /// overlap the filtering phase emitted, sorted by (a, b, overlap, sizes)
  /// so the capture is deterministic across thread counts and runners.
  std::vector<PartialOverlap> partial_overlaps;
};

/// FS-Join (§III–§V) as a chain of two jobs on the Hadoop-style MapReduce
/// engine (the paper's substrate):
///   1. filtering    — vertical (+ horizontal) partitioning, fragment joins
///   2. verification — partial-overlap aggregation and thresholding
/// The global ordering (the paper's job 1) is built driver-side from the
/// dictionary's document frequencies, and pivot selection follows it.
///
/// Usage:
///   FsJoinConfig config;
///   config.theta = 0.8;
///   FsJoin join(config);
///   FSJOIN_ASSIGN_OR_RETURN(FsJoinOutput out, join.Run(corpus));
class FsJoin {
 public:
  explicit FsJoin(FsJoinConfig config) : config_(std::move(config)) {}

  /// Runs the self-join (or R-S join when config.rs_boundary is set) over
  /// `corpus`. Deterministic for a fixed corpus and config.
  Result<FsJoinOutput> Run(const Corpus& corpus) const;

  /// Runs the two-collection join R ⋈_θ S: merges the input through
  /// MergeJoinInput, sets rs_boundary = |R| and runs the same jobs.
  /// Result pairs have `a` in R's id space and `b` offset by |R|.
  Result<FsJoinOutput> Run(const JoinInput& input) const;

  const FsJoinConfig& config() const { return config_; }

 private:
  /// Run's body on a validated config and its backend, minus the wall
  /// timer.
  Result<FsJoinOutput> RunJobs(const Corpus& corpus,
                               exec::MapReduceBackend& backend) const;

  FsJoinConfig config_;
};

/// Convenience wrapper for R-S joins: concatenates R and S (S record ids
/// offset by |R|), sets rs_boundary = |R| and runs FS-Join. Result pairs
/// have `a` in R's id space and `b` in S's (b_original = b - |R|).
Result<FsJoinOutput> FsJoinRS(const Corpus& r, const Corpus& s,
                              FsJoinConfig config);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_FSJOIN_H_

#ifndef FSJOIN_CORE_FSJOIN_H_
#define FSJOIN_CORE_FSJOIN_H_

#include <string>
#include <vector>

#include "core/fragment_join.h"
#include "core/fsjoin_config.h"
#include "exec/backend.h"
#include "flow/dataflow.h"
#include "mr/metrics.h"
#include "sim/global_order.h"
#include "sim/join_result.h"
#include "text/corpus.h"
#include "util/status.h"

namespace fsjoin {

/// Everything measured during one FS-Join run — the data every reproduced
/// table and figure is computed from.
struct FsJoinReport {
  FsJoinConfig config;
  exec::BackendKind backend = exec::BackendKind::kMapReduce;
  std::vector<TokenRank> pivots;
  std::vector<uint32_t> length_pivots;

  /// Per-wide-stage metrics, identical layout on every backend. On the
  /// MapReduce backend these are the three materialized jobs' exact
  /// counters (pinned by MetricsRegressionTest); on the fused backend they
  /// are synthesized from the dataflow's per-shuffle counters (wall times
  /// stay 0 — the pipeline wall is in flow_pipelines).
  mr::JobMetrics ordering_job;
  mr::JobMetrics filtering_job;
  mr::JobMetrics verification_job;

  /// Fused backend only: raw dataflow counters of the executed pipelines
  /// (ordering, then filter+verify) — fusion and materialization savings.
  std::vector<flow::Pipeline::Metrics> flow_pipelines;

  /// What --auto resolved (empty/disabled on hand-set runs): the sample it
  /// drew, every driver-side choice line, and the per-fragment decision
  /// histogram appended after the run. Summary() prints the lines, so
  /// tuned runs are self-describing like PR 6's kernel logging.
  struct TuneLog {
    bool enabled = false;
    double sample_rate = 0.0;
    uint64_t sampled_records = 0;
    uint64_t total_records = 0;
    std::vector<std::string> lines;
  };
  TuneLog tuning;

  FilterCounters filters;
  uint64_t candidate_pairs = 0;  ///< distinct pairs reaching verification
  uint64_t result_pairs = 0;
  double total_wall_ms = 0.0;

  /// Jobs in execution order (for the cluster simulator). The ordering job
  /// is included; the paper's cost analysis excludes it, so benches that
  /// follow the paper pass JoinJobs() instead.
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

/// Builds the merged corpus every R-S plan runs on. R's records keep both
/// their record ids and their token ids: R's dictionary is interned first,
/// in token-id order, so the union mapping is the identity on R and probe
/// tokens are never remapped (the disjoint-vocabulary invariant the check
/// harness asserts). S's tokens are interned into the union dictionary and
/// its record ids are offset by |R|. Term frequencies are recomputed over
/// R ∪ S, which is what makes the global token ordering shared by both
/// sides. The R/S boundary of the result is input.r.records.size().
Corpus MergeJoinInput(const JoinInput& input);

/// The result pairs plus the full report.
struct FsJoinOutput {
  JoinResultSet pairs;
  FsJoinReport report;

  /// Populated when config.collect_partial_overlaps is set: every partial
  /// overlap the filtering phase emitted, sorted by (a, b, overlap, sizes)
  /// so the capture is deterministic across thread counts and backends.
  std::vector<PartialOverlap> partial_overlaps;
};

/// FS-Join (§III–§V), described as two logical plans
///   1. ordering             — token frequencies -> global ordering
///   2. filtering+verification — vertical (+ horizontal) partitioning,
///      fragment joins, then partial-overlap aggregation and thresholding
/// and executed on the backend selected by config.exec.backend: the
/// Hadoop-style MapReduce engine (one materialized job per wide stage —
/// the paper's substrate) or the Spark-style fused dataflow (§VII).
///
/// Usage:
///   FsJoinConfig config;
///   config.theta = 0.8;
///   config.exec.backend = exec::BackendKind::kFusedFlow;  // optional
///   FsJoin join(config);
///   FSJOIN_ASSIGN_OR_RETURN(FsJoinOutput out, join.Run(corpus));
class FsJoin {
 public:
  explicit FsJoin(FsJoinConfig config) : config_(std::move(config)) {}

  /// Runs the self-join (or R-S join when config.rs_boundary is set) over
  /// `corpus`. Deterministic for a fixed corpus and config.
  Result<FsJoinOutput> Run(const Corpus& corpus) const;

  /// Runs the two-collection join R ⋈_θ S: merges the input through
  /// MergeJoinInput, sets rs_boundary = |R| and executes the same plans.
  /// Result pairs have `a` in R's id space and `b` offset by |R|.
  Result<FsJoinOutput> Run(const JoinInput& input) const;

  const FsJoinConfig& config() const { return config_; }

 private:
  /// Run's body on a validated config, minus the wall timer.
  Result<FsJoinOutput> RunPlans(const Corpus& corpus) const;

  FsJoinConfig config_;
};

/// Convenience wrapper for R-S joins: concatenates R and S (S record ids
/// offset by |R|), sets rs_boundary = |R| and runs FS-Join. Result pairs
/// have `a` in R's id space and `b` in S's (b_original = b - |R|).
Result<FsJoinOutput> FsJoinRS(const Corpus& r, const Corpus& s,
                              FsJoinConfig config);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_FSJOIN_H_

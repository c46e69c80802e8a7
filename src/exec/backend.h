#ifndef FSJOIN_EXEC_BACKEND_H_
#define FSJOIN_EXEC_BACKEND_H_

#include <memory>
#include <vector>

#include "exec/exec_config.h"
#include "mr/engine.h"
#include "mr/job.h"
#include "mr/kv.h"
#include "mr/metrics.h"
#include "util/status.h"

namespace fsjoin::exec {

/// Runs MapReduce jobs Hadoop-style (the paper's substrate) on one engine
/// built from an ExecConfig.
///
/// One backend instance is one "cluster session": drivers call Run once
/// per job (FS-Join runs ordering, computes pivots driver-side, then runs
/// filtering and verification), and history() accumulates one JobMetrics
/// entry per job, named after the job, in run order.
class MapReduceBackend {
 public:
  /// For RunnerKind::kCluster, brings up the cluster runner.
  explicit MapReduceBackend(const ExecConfig& config);

  /// Runs `job` over `input` and returns the job's output.
  Result<mr::Dataset> Run(const mr::JobConfig& job, const mr::Dataset& input);

  const ExecConfig& config() const { return config_; }

  /// The engine's in-process worker pool, shared with a join's
  /// coordinator-side steps (corpus encode, R-S merge) and the filtering
  /// reducer's morsels; null on the inline, subprocess and cluster runners
  /// and with num_threads == 0.
  ThreadPool* pool() const { return engine_.pool(); }

  /// One JobMetrics per job run so far (see class comment).
  const std::vector<mr::JobMetrics>& history() const { return history_; }

 private:
  ExecConfig config_;
  /// Topology bring-up failure (cluster runner only), surfaced by the
  /// first Run — constructors can't return Status.
  Status init_error_;
  /// RunnerKind::kCluster only; owned here (declared before engine_ so it
  /// outlives the engine that borrows it via EngineOptions::external_runner).
  std::unique_ptr<mr::TaskRunner> cluster_runner_;
  mr::Engine engine_;
  std::vector<mr::JobMetrics> history_;
};

}  // namespace fsjoin::exec

#endif  // FSJOIN_EXEC_BACKEND_H_

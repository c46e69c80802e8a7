#ifndef FSJOIN_EXEC_BACKEND_H_
#define FSJOIN_EXEC_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/exec_config.h"
#include "exec/plan.h"
#include "mr/engine.h"
#include "mr/kv.h"
#include "mr/metrics.h"
#include "mr/pipeline.h"
#include "util/status.h"

namespace fsjoin::exec {

/// Runs logical plans Hadoop-style (the paper's substrate): each wide stage
/// becomes one materialized MapReduce job on the engine — narrow chains
/// feed the job's map phase (an identity map when the plan has none, like
/// FS-Join's verification job), and every job output round-trips through a
/// MiniDfs. JobMetrics accounting is byte-identical to the hand-chained
/// drivers this backend replaced (pinned by MetricsRegressionTest).
///
/// One backend instance is one "cluster session": Execute may be called
/// several times (drivers run an ordering plan, compute pivots driver-side,
/// then run the join plan) and history() accumulates across calls, one
/// JobMetrics entry per kGroupByKey stage, named after the stage, in
/// execution order.
class MapReduceBackend {
 public:
  /// Applies config.process_memory_bytes (when non-zero) to the global
  /// store::ProcessMemoryBudget() and, for RunnerKind::kCluster, brings up
  /// the cluster runner.
  explicit MapReduceBackend(const ExecConfig& config);

  /// Runs `plan` over `input` and returns the final stage's output.
  Result<mr::Dataset> Execute(const Plan& plan, const mr::Dataset& input);

  /// One JobMetrics per wide stage executed so far (see class comment).
  const std::vector<mr::JobMetrics>& history() const {
    return pipeline_.history();
  }

 private:
  ExecConfig config_;
  /// Topology bring-up failure (cluster runner only), surfaced by the
  /// first Execute — constructors can't return Status.
  Status init_error_;
  /// RunnerKind::kCluster only; owned here (declared before engine_ so it
  /// outlives the engine that borrows it via EngineOptions::external_runner).
  std::unique_ptr<mr::TaskRunner> cluster_runner_;
  mr::Engine engine_;
  mr::MiniDfs dfs_;
  mr::Pipeline pipeline_;
  uint64_t dataset_counter_ = 0;
};

}  // namespace fsjoin::exec

#endif  // FSJOIN_EXEC_BACKEND_H_

#include "exec/backend.h"

#include <utility>

#include "net/cluster_runner.h"
#include "util/endpoint.h"

namespace fsjoin::exec {

namespace {

mr::EngineOptions EngineOptionsFrom(const ExecConfig& config,
                                    mr::TaskRunner* external) {
  mr::EngineOptions options;
  options.num_threads = config.num_threads;
  options.shuffle_memory_bytes = config.shuffle_memory_bytes;
  options.spill_dir = config.spill_dir;
  options.runner = config.runner;
  options.task_retries = config.task_retries;
  options.external_runner = external;
  return options;
}

/// Builds the cluster runner for RunnerKind::kCluster, or null for every
/// other runner kind. Bring-up failures (bad worker list, connect/handshake
/// errors) land in *error; the backend constructor can't return Status, so
/// the first Run surfaces them.
std::unique_ptr<mr::TaskRunner> MaybeMakeClusterRunner(
    const ExecConfig& config, Status* error) {
  if (config.runner != mr::RunnerKind::kCluster) return nullptr;
  if (Status st = config.Validate(); !st.ok()) {
    *error = std::move(st);
    return nullptr;
  }
  net::ClusterOptions options;
  if (!config.workers.empty()) {
    auto list = ParseEndpointList(config.workers);
    if (!list.ok()) {
      *error = list.status();
      return nullptr;
    }
    options.workers = std::move(list).value();
  }
  options.spawn_local_workers = config.spawn_local_workers;
  options.heartbeat_ms = config.heartbeat_ms;
  options.num_threads = config.num_threads;
  auto runner = net::ClusterTaskRunner::Create(options);
  if (!runner.ok()) {
    *error = runner.status();
    return nullptr;
  }
  return std::move(runner).value();
}

}  // namespace

MapReduceBackend::MapReduceBackend(const ExecConfig& config)
    : config_(config),
      cluster_runner_(MaybeMakeClusterRunner(config, &init_error_)),
      engine_(EngineOptionsFrom(config, cluster_runner_.get())) {}

Result<mr::Dataset> MapReduceBackend::Run(const mr::JobConfig& job,
                                          const mr::Dataset& input) {
  FSJOIN_RETURN_NOT_OK(init_error_);
  FSJOIN_RETURN_NOT_OK(config_.Validate());
  mr::Dataset output;
  mr::JobMetrics metrics;
  FSJOIN_RETURN_NOT_OK(engine_.Run(job, input, &output, &metrics));
  history_.push_back(std::move(metrics));
  return output;
}

}  // namespace fsjoin::exec

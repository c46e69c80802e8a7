#include "exec/exec_config.h"

#include <filesystem>
#include <string>
#include <system_error>

#include "mr/engine.h"
#include "util/endpoint.h"

namespace fsjoin::exec {

Status ExecConfig::Validate() const {
  if (num_map_tasks == 0 || num_reduce_tasks == 0) {
    return Status::InvalidArgument("task counts must be >= 1");
  }
  if (task_retries < 0) {
    return Status::InvalidArgument("task_retries must be >= 0, got " +
                                   std::to_string(task_retries));
  }
  if (shuffle_memory_bytes > 0 &&
      shuffle_memory_bytes < mr::kMinShuffleMemoryBytes) {
    return Status::InvalidArgument(
        "shuffle_memory_bytes " + std::to_string(shuffle_memory_bytes) +
        " is smaller than one arena charge (" +
        std::to_string(mr::kMinShuffleMemoryBytes) +
        "); use 0 for an unbounded in-memory shuffle");
  }
  if (runner == mr::RunnerKind::kCluster) {
    const bool have_dial = !workers.empty();
    const bool have_spawn = spawn_local_workers > 0;
    if (have_dial == have_spawn) {
      return Status::InvalidArgument(
          have_dial
              ? "--workers and --spawn-local-workers are mutually exclusive"
              : "--runner cluster needs a worker topology: pass --workers "
                "host:port,... or --spawn-local-workers N");
    }
    if (have_dial) {
      auto list = ParseEndpointList(workers);
      if (!list.ok()) return list.status();
    }
    if (spawn_local_workers < 0) {
      return Status::InvalidArgument(
          "spawn_local_workers must be >= 0, got " +
          std::to_string(spawn_local_workers));
    }
    if (heartbeat_ms < kMinHeartbeatMs) {
      return Status::InvalidArgument(
          "heartbeat_ms must be >= " + std::to_string(kMinHeartbeatMs) +
          " (got " + std::to_string(heartbeat_ms) +
          "); shorter probes misdiagnose a busy loopback worker as dead");
    }
  } else if (!workers.empty() || spawn_local_workers != 0) {
    return Status::InvalidArgument(
        std::string(!workers.empty() ? "--workers" : "--spawn-local-workers") +
        " requires --runner cluster (current runner: " +
        mr::RunnerKindName(runner) + ")");
  }
  if (!spill_dir.empty()) {
    // Fail configuration, not the first job that tries to spill.
    std::error_code ec;
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) {
      return Status::InvalidArgument("spill_dir '" + spill_dir +
                                     "' is not creatable: " + ec.message());
    }
  }
  return Status::OK();
}

}  // namespace fsjoin::exec

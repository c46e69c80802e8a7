#ifndef FSJOIN_EXEC_EXEC_CONFIG_H_
#define FSJOIN_EXEC_EXEC_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "mr/runner.h"
#include "util/status.h"

namespace fsjoin::exec {

/// Smallest cluster heartbeat interval: sub-50ms probes misdiagnose a busy
/// loopback worker as dead.
inline constexpr int kMinHeartbeatMs = 50;

/// Engine-shape knobs shared by every algorithm in the repo (FS-Join and
/// the three baselines). Previously duplicated across FsJoinConfig and
/// BaselineConfig; consolidated here so a driver describes *what* to run
/// (its jobs) and this struct describes *where and how wide*.
struct ExecConfig {
  /// Number of map tasks the input is split into (Hadoop: one per block).
  uint32_t num_map_tasks = 8;
  /// Number of reduce tasks == shuffle partitions (paper: 3 * #nodes).
  uint32_t num_reduce_tasks = 8;
  /// Worker threads for the in-process engine (0 = run inline). On the
  /// thread-pool runner the same workers also run the coordinator-side
  /// corpus encode and R-S merge and the fragment joins' morsels
  /// (DESIGN.md §5d).
  size_t num_threads = 0;

  /// Abort with ResourceExhausted once a run emits more than this many
  /// intermediate records (0 = unlimited). Models the paper's observation
  /// that MassJoin and V-Smart-Join "cannot run successfully" on the large
  /// datasets: their intermediate data outgrows the cluster.
  uint64_t emission_limit = 0;

  /// Per-job cap on buffered shuffle bytes (0 = unlimited, shuffle stays in
  /// memory — the seed behavior). When exceeded, the engine spills
  /// key-sorted run files to disk and reduces through a streaming k-way
  /// merge; result sets and counters other than spilled_bytes/spill_runs
  /// are unchanged. This is the knob that lets a corpus whose intermediate
  /// data outgrows RAM still run to completion.
  uint64_t shuffle_memory_bytes = 0;
  /// Base directory for spill scratch space; every job creates and removes
  /// its own unique subdirectory underneath. Empty = system temp
  /// directory.
  std::string spill_dir;

  /// How task attempts execute (mr/runner.h): inline, on a thread pool
  /// (the default — num_threads == 0 still runs inline and deterministic),
  /// each in its own forked/re-execed child process, or on socket-RPC
  /// cluster workers (DESIGN.md §5j).
  mr::RunnerKind runner = mr::RunnerKind::kThreads;
  /// Re-executions allowed per task whose attempt was lost (crash, kill,
  /// timeout, dead worker) on the subprocess and cluster runners.
  int task_retries = 2;

  /// Cluster runner only: comma-separated "host:port" list of pre-started
  /// fsjoin_worker processes to dial. Exactly one of workers /
  /// spawn_local_workers must be set when runner is kCluster; both are
  /// rejected for any other runner (the knob would be a silent no-op).
  std::string workers;
  /// Cluster runner only: fork/exec this many loopback workers from the
  /// current binary instead of dialing `workers`.
  int spawn_local_workers = 0;
  /// Cluster liveness probe interval in milliseconds; a worker missing
  /// net::kMaxMissedHeartbeats consecutive probes is declared dead.
  int heartbeat_ms = 2000;

  /// Checks every knob up front — task counts, retry budget,
  /// shuffle memory floor, spill_dir creatability, cluster topology
  /// (worker list well-formedness, exactly-one of --workers /
  /// --spawn-local-workers) — returning a descriptive InvalidArgument
  /// instead of silently misbehaving later.
  Status Validate() const;
};

}  // namespace fsjoin::exec

#endif  // FSJOIN_EXEC_EXEC_CONFIG_H_

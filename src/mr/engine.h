#ifndef FSJOIN_MR_ENGINE_H_
#define FSJOIN_MR_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "mr/job.h"
#include "mr/kv.h"
#include "mr/metrics.h"
#include "mr/runner.h"
#include "util/status.h"

namespace fsjoin::mr {

/// Smallest meaningful shuffle memory cap: one spill charge must be able
/// to account at least a few records, or every AddBuffer would thrash a
/// run file per record. Values below this (but nonzero) are configuration
/// errors, caught by EngineOptions::Validate().
inline constexpr uint64_t kMinShuffleMemoryBytes = 64;

/// Engine construction knobs.
struct EngineOptions {
  /// Worker threads for running tasks (0 = inline).
  size_t num_threads = 0;
  /// Per-job cap on shuffle arena payload bytes (0 = unlimited, shuffle
  /// stays fully in memory). When a job's buffered shuffle data exceeds
  /// the cap, shards spill key-sorted run files to disk and the reduce
  /// side streams a k-way merge. Results are byte-identical to the
  /// in-memory path.
  uint64_t shuffle_memory_bytes = 0;
  /// Base directory for spill runs and task interchange files; every job
  /// creates (and removes, even on failure) its own unique subdirectory
  /// underneath. Empty = system temp directory. Used when
  /// shuffle_memory_bytes > 0 or the runner is process-isolated.
  std::string spill_dir;
  /// How task attempts execute (mr/runner.h). kThreads with num_threads
  /// == 0 reproduces the seed engine exactly: inline, deterministic.
  RunnerKind runner = RunnerKind::kThreads;
  /// Re-executions allowed per task whose attempt was lost (crash, kill,
  /// timeout, dead worker), on runners whose attempts are hermetic
  /// (subprocess, cluster). A task's own error is never retried, and
  /// in-process runners fail the job on first error regardless — a
  /// half-run reducer may have mutated shared state.
  int task_retries = 2;
  /// Externally-owned runner overriding `runner`; must outlive the engine.
  /// Needed for RunnerKind::kCluster, whose runner lives in src/net (it
  /// needs sockets the mr layer knows nothing about) and is built via
  /// net::ClusterTaskRunner::Create, not MakeTaskRunner.
  TaskRunner* external_runner = nullptr;

  /// Checks knob ranges (negative retry budget, sub-arena-block shuffle
  /// cap) and returns a descriptive InvalidArgument instead of letting a
  /// job misbehave later. Run() calls this first.
  Status Validate() const;
};

/// In-process MapReduce engine. Substitutes for the paper's Hadoop cluster:
/// the execution semantics (record-at-a-time map, hash-partitioned
/// sort-merge shuffle, grouped reduce) match Hadoop's, and
/// every phase is instrumented so algorithmic costs (duplicates, shuffle
/// bytes, reducer skew) are measured exactly. Cluster-size effects are
/// replayed from the per-task metrics by ClusterSimulator.
///
/// Data plane: emitted records land in per-partition byte arenas (KvBuffer),
/// the shuffle moves arenas rather than records, keys are sorted via an
/// 8-byte integer tag (mr/shuffle.h), and reducers see string_view windows
/// over the sorted arena — a record's bytes are copied exactly twice per
/// job: map emit into the arena, reduce emit out of it.
class Engine {
 public:
  /// \param num_threads worker threads for running tasks (0 = inline).
  explicit Engine(size_t num_threads = 0);
  explicit Engine(const EngineOptions& options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs one job over `input`, appending results (in reduce-partition
  /// order, keys sorted within a partition) to `*output` and the job's
  /// counters to `*metrics`. Any Status error from user map/reduce code
  /// aborts the job and is returned. Execution is coordinated by a
  /// TaskScheduler over the configured TaskRunner: map tasks, a parent-
  /// side shuffle, then reduce tasks; on the subprocess runner each task
  /// attempt runs in its own child and failed attempts are re-executed
  /// within the retry budget.
  Status Run(const JobConfig& config, const Dataset& input, Dataset* output,
             JobMetrics* metrics);

  const TaskRunner& runner() const { return *runner_; }

  /// The runner's in-process worker pool (TaskRunner::pool), or null.
  ThreadPool* pool() const {
    return runner_ != nullptr ? runner_->pool() : nullptr;
  }

 private:
  EngineOptions options_;
  std::unique_ptr<TaskRunner> owned_runner_;
  /// The runner in use: options_.external_runner if set, else
  /// owned_runner_.get(). Null only for kCluster without an external
  /// runner, which Run() rejects with an actionable error.
  TaskRunner* runner_ = nullptr;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_ENGINE_H_

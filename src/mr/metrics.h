#ifndef FSJOIN_MR_METRICS_H_
#define FSJOIN_MR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fsjoin::mr {

/// Per-task cost record, the input to the cluster makespan simulator.
struct TaskMetrics {
  int64_t wall_micros = 0;        ///< measured CPU/wall time of the task body
  uint64_t input_records = 0;
  uint64_t input_bytes = 0;
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;
  /// Reduce tasks only: size of the largest single key group — the working
  /// set a reducer must hold to process one group (an FS-Join fragment).
  /// Drives the cluster simulator's memory/spill model.
  uint64_t max_group_bytes = 0;
  /// Reduce tasks only: distinct key groups the reducer was handed. The
  /// verification job's groups are its candidate pairs, so the count
  /// crosses process boundaries with the other counters.
  uint64_t input_groups = 0;
  /// Reduce tasks only: key+value bytes this task's shard wrote to spill
  /// run files (0 when the shuffle stayed in memory), and how many runs.
  /// Measured, not inferred; the cluster simulator prefers these over its
  /// max_group_bytes heuristic when present.
  uint64_t spilled_bytes = 0;
  uint32_t spill_runs = 0;
  /// Execution attempts of this logical task (1 = ran clean; > 1 means the
  /// scheduler re-executed failed attempts). The counters above describe
  /// the final, successful attempt only — the scheduler merges metrics
  /// exactly once per logical task, so retries never double-count. The
  /// cluster simulator charges per-task overhead once per attempt.
  uint32_t attempts = 1;
};

/// Everything the engine measures about one MapReduce job. These counters
/// are the ground truth behind the reproduced tables/figures: duplicate
/// ratios, shuffle volume, per-reducer skew and phase times all come from
/// here.
struct JobMetrics {
  std::string job_name;

  uint64_t map_input_records = 0;
  uint64_t map_input_bytes = 0;
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;

  uint64_t shuffle_records = 0;
  uint64_t shuffle_bytes = 0;
  /// Key+value bytes spilled to disk during the shuffle (sum over reduce
  /// tasks; 0 when everything fit in the shuffle memory budget) and the
  /// number of run files written.
  uint64_t spilled_bytes = 0;
  uint32_t spill_runs = 0;

  uint64_t reduce_input_groups = 0;  ///< sum of TaskMetrics::input_groups
  uint64_t reduce_output_records = 0;
  uint64_t reduce_output_bytes = 0;

  std::vector<TaskMetrics> map_tasks;
  std::vector<TaskMetrics> reduce_tasks;

  int64_t map_wall_micros = 0;     ///< sum over map tasks
  int64_t reduce_wall_micros = 0;  ///< sum over reduce tasks
  int64_t total_wall_micros = 0;   ///< end-to-end engine time

  /// Records shuffled per input record: > 1 means the algorithm duplicates
  /// data (the paper's central critique of signature-based joins).
  double DuplicationFactor() const;

  /// max / mean of per-reduce-task input bytes; 1.0 = perfectly balanced.
  double ReduceSkew() const;

  /// Multi-line human-readable summary.
  std::string Summary() const;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_METRICS_H_

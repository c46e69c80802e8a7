#ifndef FSJOIN_MR_SCHEDULER_H_
#define FSJOIN_MR_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "mr/job.h"
#include "mr/runner.h"
#include "mr/task.h"
#include "util/status.h"

namespace fsjoin::mr {

/// Lifecycle of one logical task inside a stage.
enum class TaskState : uint32_t {
  kPending = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
};

const char* TaskStateName(TaskState state);

/// Scheduler-side bookkeeping for one logical task.
struct TaskRecord {
  TaskSpec spec;
  TaskState state = TaskState::kPending;
  uint32_t attempts = 0;  ///< attempts started so far
  Status last_error;      ///< of the most recent failed attempt
};

/// Coordinator for one stage of tasks: owns the task list and per-task
/// state, drives attempts through a TaskRunner, re-executes failures within
/// a retry budget, and delivers each task's results downstream exactly once.
///
/// A stage here is a set of independent tasks (the engine's map phase or
/// its reduce phase); cross-stage ordering — map before shuffle before
/// reduce — is the caller's sequencing, so the "DAG" a job forms is
/// expressed as consecutive RunStage calls over shared state.
///
/// Retry semantics: only a lost attempt (StatusCode::kUnavailable: crash,
/// kill, timeout, dead worker) is re-run, only when the runner says
/// attempts are hermetic (TaskRunner::retryable), and at most
/// `max_task_retries` times per task. A task's own error is deterministic
/// and fails the stage at once, as does any error on an in-process runner. Metrics-merge rule: on_done and the side-channel merge
/// run once per *logical* task, with the final successful attempt's output,
/// after every task finished, in task-index order — so retries never
/// double-count and completion order never leaks into results.
class TaskScheduler {
 public:
  /// `runner` must outlive the scheduler. `max_task_retries` is the number
  /// of re-executions allowed per task after its first attempt.
  TaskScheduler(TaskRunner* runner, int max_task_retries)
      : runner_(runner), max_task_retries_(max_task_retries) {}

  /// Runs every task of a stage to completion (or the stage to failure).
  /// `on_done(spec, output)` places one task's results into the caller's
  /// stage state; it runs on the scheduling thread, exactly once per task.
  Status RunStage(
      std::vector<TaskSpec> specs, const TaskBody& body,
      const TaskSideChannel& side,
      const std::function<Status(const TaskSpec&, TaskOutput)>& on_done);

  /// State of the last RunStage's tasks (for tests and diagnostics).
  const std::vector<TaskRecord>& records() const { return records_; }

 private:
  TaskRunner* runner_;
  int max_task_retries_;
  std::vector<TaskRecord> records_;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_SCHEDULER_H_

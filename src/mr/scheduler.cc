#include "mr/scheduler.h"

#include <mutex>
#include <utility>

namespace fsjoin::mr {

const char* TaskStateName(TaskState state) {
  switch (state) {
    case TaskState::kPending:
      return "pending";
    case TaskState::kRunning:
      return "running";
    case TaskState::kDone:
      return "done";
    case TaskState::kFailed:
      return "failed";
  }
  return "?";
}

Status TaskScheduler::RunStage(
    std::vector<TaskSpec> specs, const TaskBody& body,
    const TaskSideChannel& side,
    const std::function<Status(const TaskSpec&, TaskOutput)>& on_done) {
  records_.clear();
  records_.reserve(specs.size());
  for (TaskSpec& spec : specs) {
    TaskRecord record;
    record.spec = std::move(spec);
    records_.push_back(std::move(record));
  }

  std::vector<TaskOutput> outputs(records_.size());
  std::vector<size_t> pending(records_.size());
  for (size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  std::mutex mu;

  // Rounds: run everything pending concurrently, then decide retries at
  // the round barrier. Retried tasks of a round re-run together in the
  // next one; tasks that succeeded are not touched again.
  while (!pending.empty()) {
    std::vector<size_t> round = std::move(pending);
    pending.clear();
    runner_->ParallelRun(round.size(), [&](size_t i) {
      const size_t t = round[i];
      TaskRecord& record = records_[t];
      {
        std::lock_guard<std::mutex> lock(mu);
        record.state = TaskState::kRunning;
        record.attempts += 1;
        record.spec.attempt = record.attempts - 1;
      }
      TaskOutput out;
      Status st = runner_->RunAttempt(record.spec, body, side, &out);
      std::lock_guard<std::mutex> lock(mu);
      if (st.ok()) {
        record.state = TaskState::kDone;
        outputs[t] = std::move(out);
      } else {
        record.state = TaskState::kFailed;
        record.last_error = std::move(st);
      }
    });

    for (size_t t : round) {
      TaskRecord& record = records_[t];
      if (record.state != TaskState::kFailed) continue;
      if (runner_->retryable() &&
          record.last_error.code() == StatusCode::kUnavailable &&
          record.attempts <= static_cast<uint32_t>(max_task_retries_)) {
        record.state = TaskState::kPending;
        pending.push_back(t);
        continue;
      }
      return Status(record.last_error.code(),
                    "task '" + record.spec.job_name + "/" +
                        TaskKindName(record.spec.kind) +
                        std::to_string(record.spec.task_index) +
                        "' failed after " + std::to_string(record.attempts) +
                        " attempt(s): " + record.last_error.message());
    }
  }

  // Completion pass — the exactly-once boundary. Every task is kDone here;
  // deliver results in task-index order so downstream state is independent
  // of attempt/completion order. Side-channel merges hold the fork mutex:
  // no concurrent stage may fork a child while a context mutex is locked.
  for (size_t t = 0; t < records_.size(); ++t) {
    TaskOutput& out = outputs[t];
    out.metrics.attempts = records_[t].attempts;
    if (side.merge && !out.side_state.empty()) {
      std::lock_guard<std::mutex> lock(ProcessForkMutex());
      FSJOIN_RETURN_NOT_OK(side.merge(out.side_state));
    }
    FSJOIN_RETURN_NOT_OK(on_done(records_[t].spec, std::move(out)));
  }
  return Status::OK();
}

}  // namespace fsjoin::mr

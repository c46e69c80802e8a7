// Unit tests for the coordinator/executor layer: TaskSpec serialization,
// the task-factory registry, TaskScheduler state transitions and retry
// budget, the exactly-once completion pass, and the up-front knob
// validation of EngineOptions / exec::ExecConfig. Everything here is
// in-process (mock runners) — cross-process behavior lives in
// multiproc_test.cc.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "exec/exec_config.h"
#include "mr/engine.h"
#include "mr/runner.h"
#include "mr/scheduler.h"
#include "mr/task.h"
#include "util/status.h"

namespace fsjoin::mr {
namespace {

TaskSpec SampleSpec() {
  TaskSpec spec;
  spec.job_name = "job/stage";
  spec.kind = TaskKind::kReduce;
  spec.task_index = 7;
  spec.num_partitions = 12;
  spec.input_begin = 1000;
  spec.input_end = 2000;
  spec.input_runs = {"/tmp/a.run", "/tmp/b.run", ""};
  spec.output_base = "/tmp/scratch/red-t7";
  spec.factory = "core.verification";
  spec.payload = std::string("bin\0ary", 7);
  spec.attempt = 3;
  return spec;
}

TEST(TaskSpecTest, CodecRoundTripsEveryField) {
  const TaskSpec spec = SampleSpec();
  std::string encoded;
  spec.EncodeTo(&encoded);

  auto decoded = TaskSpec::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->job_name, spec.job_name);
  EXPECT_EQ(decoded->kind, spec.kind);
  EXPECT_EQ(decoded->task_index, spec.task_index);
  EXPECT_EQ(decoded->num_partitions, spec.num_partitions);
  EXPECT_EQ(decoded->input_begin, spec.input_begin);
  EXPECT_EQ(decoded->input_end, spec.input_end);
  EXPECT_EQ(decoded->input_runs, spec.input_runs);
  EXPECT_EQ(decoded->output_base, spec.output_base);
  EXPECT_EQ(decoded->factory, spec.factory);
  EXPECT_EQ(decoded->payload, spec.payload);
  EXPECT_EQ(decoded->attempt, spec.attempt);
}

TEST(TaskSpecTest, DecodeRejectsTruncationAtEveryPrefix) {
  const TaskSpec spec = SampleSpec();
  std::string encoded;
  spec.EncodeTo(&encoded);
  for (size_t keep = 0; keep < encoded.size(); ++keep) {
    auto decoded = TaskSpec::Decode(encoded.substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << keep << " bytes decoded";
  }
}

TEST(RunnerKindTest, NamesRoundTrip) {
  for (RunnerKind kind : {RunnerKind::kInline, RunnerKind::kThreads,
                          RunnerKind::kSubprocess}) {
    auto parsed = RunnerKindFromName(RunnerKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(RunnerKindFromName("remote").ok());
  EXPECT_FALSE(RunnerKindFromName("").ok());
}

TEST(TaskFactoryTest, RegistryRejectsDuplicatesAndUnknownNames) {
  const std::string name = "scheduler_test.factory";
  EXPECT_FALSE(HasTaskFactory(name));
  ASSERT_TRUE(RegisterTaskFactory(name, [](const std::string&) {
    return Result<TaskFactories>(TaskFactories{});
  }));
  EXPECT_TRUE(HasTaskFactory(name));
  EXPECT_FALSE(RegisterTaskFactory(name, [](const std::string&) {
    return Result<TaskFactories>(TaskFactories{});
  }));
  EXPECT_FALSE(ResolveTaskFactory("scheduler_test.no_such", "").ok());
}

/// Scripted runner: runs tasks inline (optionally in reverse submission
/// order) and loses attempt i of task t when `fail(t, i)` says so, the way
/// a crashed child or a dead worker does.
class MockRunner : public TaskRunner {
 public:
  const char* name() const override { return "mock"; }
  bool retryable() const override { return retryable_; }

  void ParallelRun(size_t n, const std::function<void(size_t)>& fn) override {
    for (size_t i = 0; i < n; ++i) fn(reverse_ ? n - 1 - i : i);
  }

  Status RunAttempt(const TaskSpec& spec, const TaskBody& body,
                    const TaskSideChannel& side, TaskOutput* out) override {
    attempts_seen += 1;
    if (fail && fail(spec.task_index, spec.attempt)) {
      return Status::Unavailable("scripted lost attempt");
    }
    FSJOIN_RETURN_NOT_OK(body(spec, out));
    if (capture_side && side.capture) out->side_state = side.capture();
    return Status::OK();
  }

  bool retryable_ = true;
  bool reverse_ = false;
  bool capture_side = false;
  std::function<bool(uint32_t task, uint32_t attempt)> fail;
  int attempts_seen = 0;
};

std::vector<TaskSpec> MakeSpecs(size_t n) {
  std::vector<TaskSpec> specs(n);
  for (size_t t = 0; t < n; ++t) {
    specs[t].job_name = "stage";
    specs[t].task_index = static_cast<uint32_t>(t);
  }
  return specs;
}

TEST(TaskSchedulerTest, DeliversResultsOnceInTaskIndexOrder) {
  MockRunner runner;
  runner.reverse_ = true;  // completion order must not leak into delivery
  TaskScheduler scheduler(&runner, 2);

  std::vector<uint32_t> delivered;
  const Status st = scheduler.RunStage(
      MakeSpecs(5),
      [](const TaskSpec& spec, TaskOutput* out) {
        out->metrics.output_records = spec.task_index;
        return Status::OK();
      },
      TaskSideChannel{},
      [&](const TaskSpec& spec, TaskOutput out) {
        delivered.push_back(spec.task_index);
        EXPECT_EQ(out.metrics.output_records, spec.task_index);
        EXPECT_EQ(out.metrics.attempts, 1u);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(delivered, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  for (const TaskRecord& record : scheduler.records()) {
    EXPECT_EQ(record.state, TaskState::kDone);
    EXPECT_EQ(record.attempts, 1u);
  }
}

TEST(TaskSchedulerTest, RetriesFailedTasksWithinBudget) {
  MockRunner runner;
  // Task 2 fails its first two attempts and succeeds on the third.
  runner.fail = [](uint32_t task, uint32_t attempt) {
    return task == 2 && attempt < 2;
  };
  TaskScheduler scheduler(&runner, 2);

  int deliveries_of_task2 = 0;
  const Status st = scheduler.RunStage(
      MakeSpecs(4),
      [](const TaskSpec&, TaskOutput*) { return Status::OK(); },
      TaskSideChannel{},
      [&](const TaskSpec& spec, TaskOutput out) {
        if (spec.task_index == 2) {
          deliveries_of_task2 += 1;
          EXPECT_EQ(out.metrics.attempts, 3u);
        } else {
          EXPECT_EQ(out.metrics.attempts, 1u);
        }
        return Status::OK();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(deliveries_of_task2, 1);
  EXPECT_EQ(runner.attempts_seen, 6);  // 4 first attempts + 2 retries
  EXPECT_EQ(scheduler.records()[2].attempts, 3u);
  EXPECT_EQ(scheduler.records()[2].state, TaskState::kDone);
}

TEST(TaskSchedulerTest, FailsStageWhenRetryBudgetExhausted) {
  MockRunner runner;
  runner.fail = [](uint32_t task, uint32_t) { return task == 1; };
  TaskScheduler scheduler(&runner, 2);

  int deliveries = 0;
  const Status st = scheduler.RunStage(
      MakeSpecs(3),
      [](const TaskSpec&, TaskOutput*) { return Status::OK(); },
      TaskSideChannel{},
      [&](const TaskSpec&, TaskOutput) {
        deliveries += 1;
        return Status::OK();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("failed after 3 attempt(s)"),
            std::string::npos)
      << st.ToString();
  // The completion pass never ran: no partial deliveries on failure.
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(scheduler.records()[1].state, TaskState::kFailed);
  EXPECT_EQ(scheduler.records()[1].attempts, 3u);
}

TEST(TaskSchedulerTest, InProcessRunnersFailOnFirstErrorWithoutRetry) {
  MockRunner runner;
  runner.retryable_ = false;  // like InlineRunner / ThreadPoolRunner
  runner.fail = [](uint32_t task, uint32_t) { return task == 0; };
  TaskScheduler scheduler(&runner, 5);

  const Status st = scheduler.RunStage(
      MakeSpecs(2),
      [](const TaskSpec&, TaskOutput*) { return Status::OK(); },
      TaskSideChannel{},
      [](const TaskSpec&, TaskOutput) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("failed after 1 attempt(s)"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(scheduler.records()[0].attempts, 1u);
}

TEST(TaskSchedulerTest, TaskBodyErrorIsFinalOnRetryableRunner) {
  MockRunner runner;  // retryable, and no attempt is lost
  TaskScheduler scheduler(&runner, 2);

  const Status st = scheduler.RunStage(
      MakeSpecs(3),
      [](const TaskSpec& spec, TaskOutput*) {
        return spec.task_index == 1
                   ? Status::ResourceExhausted("budget exceeded")
                   : Status::OK();
      },
      TaskSideChannel{},
      [](const TaskSpec&, TaskOutput) { return Status::OK(); });
  ASSERT_FALSE(st.ok());
  // The body's own error is deterministic: one attempt, code preserved.
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("failed after 1 attempt(s)"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(scheduler.records()[1].attempts, 1u);
}

TEST(TaskSchedulerTest, SideChannelMergesOncePerLogicalTaskAcrossRetries) {
  MockRunner runner;
  runner.capture_side = true;
  runner.fail = [](uint32_t task, uint32_t attempt) {
    return task == 0 && attempt == 0;
  };
  TaskScheduler scheduler(&runner, 3);

  int merges = 0;
  TaskSideChannel side;
  side.capture = [] { return std::string("delta"); };
  side.merge = [&](const std::string& bytes) {
    EXPECT_EQ(bytes, "delta");
    merges += 1;
    return Status::OK();
  };

  const Status st = scheduler.RunStage(
      MakeSpecs(3),
      [](const TaskSpec&, TaskOutput*) { return Status::OK(); }, side,
      [](const TaskSpec&, TaskOutput) { return Status::OK(); });
  ASSERT_TRUE(st.ok()) << st.ToString();
  // 3 logical tasks -> 3 merges, even though task 0 ran twice.
  EXPECT_EQ(merges, 3);
}

// ---- Satellite: up-front knob validation -----------------------------

TEST(ValidationTest, EngineOptionsRejectsNegativeRetryBudget) {
  EngineOptions options;
  options.task_retries = -1;
  const Status st = options.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ValidationTest, EngineOptionsRejectsSubFloorShuffleBudget) {
  EngineOptions options;
  options.shuffle_memory_bytes = kMinShuffleMemoryBytes - 1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.shuffle_memory_bytes = kMinShuffleMemoryBytes;
  EXPECT_TRUE(options.Validate().ok());
  options.shuffle_memory_bytes = 0;  // 0 = unbounded, explicitly allowed
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ValidationTest, ExecConfigRejectsBadKnobs) {
  {
    exec::ExecConfig config;
    config.num_map_tasks = 0;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    exec::ExecConfig config;
    config.task_retries = -3;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
  {
    exec::ExecConfig config;
    config.shuffle_memory_bytes = 1;
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ValidationTest, ExecConfigRejectsUncreatableSpillDir) {
  exec::ExecConfig config;
  // A path under /dev/null can never be created as a directory.
  config.spill_dir = "/dev/null/fsjoin-spill";
  const Status st = config.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("spill_dir"), std::string::npos);
}

}  // namespace
}  // namespace fsjoin::mr

// Cross-process tests of the coordinator/runner split (ctest label
// `multiproc`): result-digest identity across the inline, thread-pool and
// forked-subprocess runners for FS-Join and all three
// baselines; fault injection showing a killed task re-executed to the
// correct result without double-counted metrics; the task interchange
// files crossing a real process boundary (byte identity plus every
// corruption class the run-file format detects); and scratch-directory
// lifetime when children crash.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "check/invariants.h"
#include "core/fsjoin.h"
#include "mr/engine.h"
#include "mr/runner.h"
#include "mr/task.h"
#include "mr/worker.h"
#include "store/run_file.h"
#include "store/temp_dir.h"
#include "test_util.h"
#include "util/child_process.h"
#include "util/status.h"

namespace fsjoin {
namespace {

using mr::RunnerKind;
using mr::TaskKind;
using mr::TaskSpec;

/// Installs a subprocess fault hook for one test and always clears it.
class ScopedFaultHook {
 public:
  explicit ScopedFaultHook(std::function<bool(const TaskSpec&)> hook) {
    mr::SetSubprocessTaskFaultHook(std::move(hook));
  }
  ~ScopedFaultHook() { mr::SetSubprocessTaskFaultHook(nullptr); }
};

constexpr RunnerKind kAllRunners[] = {RunnerKind::kInline, RunnerKind::kThreads,
                                      RunnerKind::kSubprocess};

void ExpectDatasetsEqual(const mr::Dataset& got, const mr::Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << "record " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "record " << i;
  }
}
exec::ExecConfig SmallExec(RunnerKind runner) {
  exec::ExecConfig config;
  config.runner = runner;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 3;
  config.num_threads = 2;
  return config;
}

TEST(MultiprocTest, WorkerModeIsInstalledInTestBinaries) {
  // fsjoin_gtest_main.cc routed main() through the --worker-task hook, so
  // the subprocess runner may re-exec this binary for factory-named tasks.
  EXPECT_TRUE(mr::WorkerModeAvailable());
  EXPECT_TRUE(mr::HasTaskFactory("core.verification"));
}

// The filter counters a forked task child reports back through the
// filtering side channel must add up to what an in-process run counts.
void ExpectSameFilterCounters(const FilterCounters& got,
                              const FilterCounters& want,
                              const std::string& where) {
  EXPECT_EQ(got.pairs_considered, want.pairs_considered) << where;
  EXPECT_EQ(got.pruned_role, want.pruned_role) << where;
  EXPECT_EQ(got.pruned_strl, want.pruned_strl) << where;
  EXPECT_EQ(got.pruned_segl, want.pruned_segl) << where;
  EXPECT_EQ(got.pruned_segi, want.pruned_segi) << where;
  EXPECT_EQ(got.pruned_segd, want.pruned_segd) << where;
  EXPECT_EQ(got.empty_overlap, want.empty_overlap) << where;
  EXPECT_EQ(got.emitted, want.emitted) << where;
}

TEST(MultiprocTest, DigestsIdenticalAcrossRunnersAlgorithms) {
  const Corpus corpus = testing::RandomCorpus(48, 60, 0.8, 8.0, 11);
  const double theta = 0.6;

  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    std::optional<uint32_t> reference;
    std::optional<size_t> reference_pairs;
    // Counters of the first runner's run.
    std::optional<FsJoinReport> reference_report;
    std::optional<BaselineReport> reference_baseline;
    // Baselines: candidates and every job's shuffle match the first runner.
    auto expect_same_baseline = [&](const BaselineReport& report,
                                    RunnerKind runner) {
      if (!reference_baseline) reference_baseline = report;
      const std::string where = report.algorithm + " runner=" +
                                mr::RunnerKindName(runner);
      EXPECT_EQ(report.candidate_pairs, reference_baseline->candidate_pairs)
          << where;
      ASSERT_EQ(report.jobs.size(), reference_baseline->jobs.size()) << where;
      for (size_t j = 0; j < report.jobs.size(); ++j) {
        EXPECT_EQ(report.jobs[j].shuffle_records,
                  reference_baseline->jobs[j].shuffle_records)
            << where << " job " << report.jobs[j].job_name;
      }
    };
    for (RunnerKind runner : kAllRunners) {
      JoinResultSet pairs;
      std::string cell;
      switch (algorithm) {
        case 0: {
          FsJoinConfig config;
          config.theta = theta;
          config.num_vertical_partitions = 4;
          config.num_horizontal_partitions = 1;
          config.exec = SmallExec(runner);
          auto out = FsJoin(config).Run(corpus);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          pairs = std::move(out->pairs);
          cell = "fsjoin";
          if (!reference_report) {
            reference_report = out->report;
            EXPECT_GT(out->report.filters.pairs_considered, 0u);
          }
          const std::string where =
              std::string("fsjoin runner=") + mr::RunnerKindName(runner);
          ExpectSameFilterCounters(out->report.filters,
                                   reference_report->filters, where);
          EXPECT_EQ(out->report.candidate_pairs,
                    reference_report->candidate_pairs)
              << where;
          break;
        }
        case 1: {
          BaselineConfig config;
          config.theta = theta;
          config.exec = SmallExec(runner);
          auto out = RunVernicaJoin(corpus, config);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          expect_same_baseline(out->report, runner);
          pairs = std::move(out->pairs);
          cell = "vernica";
          break;
        }
        case 2: {
          BaselineConfig config;
          config.theta = theta;
          config.exec = SmallExec(runner);
          auto out = RunVSmartJoin(corpus, config);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          expect_same_baseline(out->report, runner);
          pairs = std::move(out->pairs);
          cell = "vsmart";
          break;
        }
        default: {
          MassJoinConfig config;
          config.theta = theta;
          config.exec = SmallExec(runner);
          config.length_group = 2;
          auto out = RunMassJoin(corpus, config);
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          expect_same_baseline(out->report, runner);
          pairs = std::move(out->pairs);
          cell = "massjoin";
          break;
        }
      }
      const uint32_t digest = check::ResultDigest(pairs);
      if (!reference) {
        reference = digest;
        reference_pairs = pairs.size();
        EXPECT_GT(pairs.size(), 0u) << cell << ": degenerate corpus";
      }
      EXPECT_EQ(digest, *reference)
          << cell << " runner=" << mr::RunnerKindName(runner);
      EXPECT_EQ(pairs.size(), *reference_pairs);
    }
  }
}

// ---- Fault injection: killed tasks are re-executed -------------------

class PassThroughMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    out->Emit(record.key, record.value);
    return Status::OK();
  }
};

class CountReducer : public mr::Reducer {
 public:
  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    out->Emit(key, std::to_string(values.size()));
    return Status::OK();
  }
};

mr::JobConfig CountJob() {
  mr::JobConfig config;
  config.name = "count";
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 3;
  config.mapper_factory = [] { return std::make_unique<PassThroughMapper>(); };
  config.reducer_factory = [] { return std::make_unique<CountReducer>(); };
  return config;
}

mr::Dataset CountInput() {
  mr::Dataset input;
  for (int i = 0; i < 40; ++i) {
    std::string key = "k";
    key += std::to_string(i % 7);
    input.push_back({std::move(key), "x"});
  }
  return input;
}

TEST(MultiprocTest, KilledReduceTaskIsReExecutedWithoutDoubleCounting) {
  const mr::Dataset input = CountInput();

  mr::Dataset clean_output;
  mr::JobMetrics clean_metrics;
  {
    mr::EngineOptions options;
    options.runner = RunnerKind::kInline;
    mr::Engine engine(options);
    ASSERT_TRUE(
        engine.Run(CountJob(), input, &clean_output, &clean_metrics).ok());
  }

  // Kill reduce task 1's first attempt: the child writes a torn .dat and
  // dies with a non-protocol exit code. The scheduler must detect it and
  // re-execute to the same result.
  ScopedFaultHook hook([](const TaskSpec& spec) {
    return spec.kind == TaskKind::kReduce && spec.task_index == 1 &&
           spec.attempt == 0;
  });
  mr::EngineOptions options;
  options.runner = RunnerKind::kSubprocess;
  options.task_retries = 2;
  mr::Engine engine(options);
  mr::Dataset output;
  mr::JobMetrics metrics;
  const Status st = engine.Run(CountJob(), input, &output, &metrics);
  ASSERT_TRUE(st.ok()) << st.ToString();

  ExpectDatasetsEqual(output, clean_output);
  // Exactly one logical task ran twice; metrics describe the final
  // successful attempt only, so the aggregates match the clean run.
  ASSERT_EQ(metrics.reduce_tasks.size(), clean_metrics.reduce_tasks.size());
  EXPECT_EQ(metrics.reduce_tasks[1].attempts, 2u);
  for (size_t t = 0; t < metrics.reduce_tasks.size(); ++t) {
    if (t != 1) {
      EXPECT_EQ(metrics.reduce_tasks[t].attempts, 1u);
    }
  }
  EXPECT_EQ(metrics.map_output_records, clean_metrics.map_output_records);
  EXPECT_EQ(metrics.shuffle_records, clean_metrics.shuffle_records);
  EXPECT_EQ(metrics.shuffle_bytes, clean_metrics.shuffle_bytes);
  EXPECT_EQ(metrics.reduce_output_records,
            clean_metrics.reduce_output_records);
  EXPECT_EQ(metrics.reduce_output_bytes, clean_metrics.reduce_output_bytes);
}

TEST(MultiprocTest, RetryBudgetExhaustionFailsTheJob) {
  ScopedFaultHook hook([](const TaskSpec& spec) {
    return spec.kind == TaskKind::kReduce && spec.task_index == 0;
  });
  mr::EngineOptions options;
  options.runner = RunnerKind::kSubprocess;
  options.task_retries = 1;
  mr::Engine engine(options);
  mr::Dataset output;
  mr::JobMetrics metrics;
  const Status st = engine.Run(CountJob(), CountInput(), &output, &metrics);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("failed after 2 attempt(s)"),
            std::string::npos)
      << st.ToString();
}

// A task body's own error is deterministic, so the subprocess runner runs
// it once instead of re-forking it for every retry: V-Smart-Join past its
// emission limit fails its first attempt with the body's status.
TEST(MultiprocTest, TaskBodyErrorIsNotRetried) {
  const Corpus corpus = testing::RandomCorpus(300, 100, 1.2, 15.0, 908);
  BaselineConfig config;
  config.theta = 0.8;
  config.exec = SmallExec(RunnerKind::kSubprocess);
  config.exec.num_map_tasks = 4;
  config.exec.num_reduce_tasks = 4;
  config.exec.emission_limit = 5000;
  auto out = RunVSmartJoin(corpus, config);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted)
      << out.status().ToString();
  EXPECT_NE(out.status().message().find("after 1 attempt(s)"),
            std::string::npos)
      << out.status().ToString();
}

TEST(MultiprocTest, KilledFilteringTaskReRunsToIdenticalFsJoinResult) {
  const Corpus corpus = testing::RandomCorpus(40, 50, 0.8, 8.0, 5);
  FsJoinConfig config;
  config.theta = 0.6;
  config.num_vertical_partitions = 4;
  config.exec = SmallExec(RunnerKind::kSubprocess);

  auto clean = FsJoin(config).Run(corpus);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  ScopedFaultHook hook([](const TaskSpec& spec) {
    return spec.job_name == "filtering" && spec.kind == TaskKind::kReduce &&
           spec.task_index == 0 && spec.attempt == 0;
  });
  auto faulted = FsJoin(config).Run(corpus);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  EXPECT_EQ(check::ResultDigest(faulted->pairs),
            check::ResultDigest(clean->pairs));
  // The re-run task's side-channel deltas (filter counters) merged exactly
  // once: the shared counters equal the clean run's.
  EXPECT_EQ(faulted->report.filters.emitted, clean->report.filters.emitted);
  EXPECT_EQ(faulted->report.filters.pairs_considered,
            clean->report.filters.pairs_considered);
  ASSERT_GT(faulted->report.filtering_job.reduce_tasks.size(), 0u);
  EXPECT_EQ(faulted->report.filtering_job.reduce_tasks[0].attempts, 2u);
}

// ---- Task interchange files across a real process boundary -----------

mr::TaskOutput SampleOutput() {
  mr::TaskOutput out;
  for (int i = 0; i < 100; ++i) {
    out.records.push_back(
        {"key" + std::to_string(i), "value-" + std::to_string(i * 3)});
  }
  out.metrics.input_records = 100;
  out.metrics.input_bytes = 1234;
  out.metrics.output_records = 100;
  out.metrics.max_group_bytes = 77;
  out.side_state = std::string("side\0bytes", 10);
  return out;
}

/// Writes SampleOutput() under `base` in a forked child; returns the
/// child's exit code (0 on success).
int WriteOutputInChild(const std::string& base) {
  const pid_t pid = fork();
  if (pid == 0) {
    const Status st = mr::WriteTaskOutputFiles(base, SampleOutput());
    _exit(st.ok() ? 0 : 1);
  }
  int wait_status = 0;
  waitpid(pid, &wait_status, 0);
  return WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class InterchangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = store::TempSpillDir::Create("", "fsjoin-multiproc");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_.emplace(std::move(dir).value());
    base_ = dir_->path() + "/task-t0-a0";
    ASSERT_EQ(WriteOutputInChild(base_), 0);
  }

  std::optional<store::TempSpillDir> dir_;
  std::string base_;
};

TEST_F(InterchangeTest, ChildWrittenOutputReadsBackByteIdentical) {
  mr::TaskOutput read;
  const Status st = mr::ReadTaskOutputFiles(base_, &read);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const mr::TaskOutput expected = SampleOutput();
  ExpectDatasetsEqual(read.records, expected.records);
  EXPECT_EQ(read.side_state, expected.side_state);
  EXPECT_EQ(read.metrics.input_records, expected.metrics.input_records);
  EXPECT_EQ(read.metrics.input_bytes, expected.metrics.input_bytes);
  EXPECT_EQ(read.metrics.output_records, expected.metrics.output_records);
  EXPECT_EQ(read.metrics.max_group_bytes, expected.metrics.max_group_bytes);
}

TEST_F(InterchangeTest, EveryBitFlipInChildOutputIsDetected) {
  const std::string good = Slurp(base_ + ".dat");
  ASSERT_GT(good.size(), store::kRunFooterBytes);
  for (size_t i = 0; i < good.size(); i += 7) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Dump(base_ + ".dat", bad);
    mr::TaskOutput read;
    const Status st = mr::ReadTaskOutputFiles(base_, &read);
    ASSERT_FALSE(st.ok()) << "flip at offset " << i << " went unnoticed";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST_F(InterchangeTest, TruncationsOfChildOutputAreDetected) {
  const std::string good = Slurp(base_ + ".dat");
  for (size_t keep :
       {good.size() - 1, good.size() - store::kRunFooterBytes,
        good.size() / 2, store::kRunFooterBytes, size_t{1}}) {
    Dump(base_ + ".dat", good.substr(0, keep));
    mr::TaskOutput read;
    const Status st = mr::ReadTaskOutputFiles(base_, &read);
    ASSERT_FALSE(st.ok()) << "truncation to " << keep << " went unnoticed";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST_F(InterchangeTest, ShortResultFileIsCorruption) {
  Dump(base_ + ".res", "tiny");
  mr::TaskOutput read;
  const Status st = mr::ReadTaskOutputFiles(base_, &read);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(InterchangeTest, AppendedGarbageIsDetected) {
  const std::string good = Slurp(base_ + ".dat");
  const std::string body =
      good.substr(0, good.size() - store::kRunFooterBytes);
  const std::string footer = good.substr(good.size() - store::kRunFooterBytes);
  Dump(base_ + ".dat", body + body + footer);
  mr::TaskOutput read;
  const Status st = mr::ReadTaskOutputFiles(base_, &read);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(InterchangeTest, MissingFilesAreIoErrors) {
  std::filesystem::remove(base_ + ".dat");
  mr::TaskOutput read;
  Status st = mr::ReadTaskOutputFiles(base_, &read);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();

  // Rewrite, then drop the result file instead.
  ASSERT_EQ(WriteOutputInChild(base_), 0);
  std::filesystem::remove(base_ + ".res");
  st = mr::ReadTaskOutputFiles(base_, &read);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
}

// ---- Scratch-directory lifetime across processes ---------------------

size_t EntriesUnder(const std::string& dir) {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    n += 1;
  }
  return n;
}

TEST(MultiprocTest, CrashedChildLeavesNoStrayScratchFiles) {
  auto base = store::TempSpillDir::Create("", "fsjoin-scratch-base");
  ASSERT_TRUE(base.ok());

  // Success path: one task crashes once, the job retries and succeeds —
  // the job's scratch subdirectory (torn attempt files included) is gone.
  {
    ScopedFaultHook hook([](const TaskSpec& spec) {
      return spec.kind == TaskKind::kReduce && spec.task_index == 1 &&
             spec.attempt == 0;
    });
    mr::EngineOptions options;
    options.runner = RunnerKind::kSubprocess;
    options.task_retries = 2;
    options.spill_dir = base->path();
    mr::Engine engine(options);
    mr::Dataset output;
    mr::JobMetrics metrics;
    ASSERT_TRUE(engine.Run(CountJob(), CountInput(), &output, &metrics).ok());
  }
  EXPECT_EQ(EntriesUnder(base->path()), 0u);

  // Failure path: the task crashes on every attempt, the job fails — the
  // scratch subdirectory must still be removed by the parent.
  {
    ScopedFaultHook hook([](const TaskSpec& spec) {
      return spec.kind == TaskKind::kReduce && spec.task_index == 1;
    });
    mr::EngineOptions options;
    options.runner = RunnerKind::kSubprocess;
    options.task_retries = 1;
    options.spill_dir = base->path();
    mr::Engine engine(options);
    mr::Dataset output;
    mr::JobMetrics metrics;
    ASSERT_FALSE(engine.Run(CountJob(), CountInput(), &output, &metrics).ok());
  }
  EXPECT_EQ(EntriesUnder(base->path()), 0u);
}

TEST(MultiprocTest, ChildProcessCannotRemoveParentScratch) {
  auto dir = store::TempSpillDir::Create("", "fsjoin-owner");
  ASSERT_TRUE(dir.ok());
  std::ofstream(dir->path() + "/keep.txt") << "payload";

  const pid_t pid = fork();
  if (pid == 0) {
    // Inherited handle: cleanup in the child must be a no-op (the pid
    // guard), both explicitly and via destructor at scope exit.
    dir->RemoveNow();
    _exit(0);
  }
  int wait_status = 0;
  waitpid(pid, &wait_status, 0);
  ASSERT_TRUE(WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0);

  EXPECT_TRUE(std::filesystem::exists(dir->path() + "/keep.txt"))
      << "child removed the parent's scratch";
  const std::string path = dir->path();
  dir->RemoveNow();
  EXPECT_FALSE(std::filesystem::exists(path));
}

// A fork-mode child that wedges before reaching task code — the real-world
// case is a COW-copied allocator lock inherited from a parent thread that
// was mid-malloc at fork() time — must not hang the job behind a blocking
// waitpid. The runner kills the child at the attempt deadline and surfaces
// a retryable error for the scheduler's budget to absorb.
TEST(SubprocessRunnerTest, WedgedForkChildIsKilledAtAttemptDeadline) {
  auto dir = store::TempSpillDir::Create("", "fsjoin-multiproc");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();

  ASSERT_EQ(setenv("FSJOIN_TASK_TIMEOUT_MS", "300", /*overwrite=*/1), 0);

  mr::TaskSpec spec;
  spec.job_name = "wedged";
  spec.kind = mr::TaskKind::kMap;
  spec.output_base = dir->path() + "/task-t0";
  // No factory name: forces fork mode, so the child runs this closure.
  const mr::TaskBody body = [](const mr::TaskSpec&, mr::TaskOutput*) -> Status {
    while (true) ::pause();
    return Status::OK();  // unreachable
  };

  mr::SubprocessRunner runner(/*num_threads=*/0);
  mr::TaskOutput out;
  const auto start = std::chrono::steady_clock::now();
  const Status st = runner.RunAttempt(spec, body, mr::TaskSideChannel{}, &out);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_EQ(unsetenv("FSJOIN_TASK_TIMEOUT_MS"), 0);

  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("timed out"), std::string::npos)
      << st.ToString();
  EXPECT_LT(elapsed_ms, 10'000)
      << "runner waited past the deadline on a wedged child";
}

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The attempt wait wakes when the child exits. The back-off poll checks at
// 25.4 ms and next at 51 ms, so it sees a child that exits ~32 ms in about
// 19 ms late. The best of three attempts must return within 10 ms of the
// child's own exit stamp: the slack covers the kernel's exit teardown,
// which a sanitizer build slows to a few ms (steady_clock is system-wide,
// so the stamps are comparable).
TEST(SubprocessRunnerTest, ChildExitIsSeenWhenItHappens) {
  auto dir = store::TempSpillDir::Create("", "fsjoin-multiproc");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  const std::string stamp_path = dir->path() + "/exit-stamp";

  mr::TaskSpec spec;
  spec.job_name = "prompt";
  spec.kind = mr::TaskKind::kMap;
  spec.output_base = dir->path() + "/task-t0";
  const mr::TaskBody body = [&](const mr::TaskSpec&, mr::TaskOutput*) -> Status {
    std::this_thread::sleep_for(std::chrono::milliseconds(32));
    std::ofstream(stamp_path) << SteadyNowNanos();
    _exit(0);
  };

  mr::SubprocessRunner runner(/*num_threads=*/0);
  double best_lag_ms = 1e9;
  for (int attempt = 0; attempt < 3; ++attempt) {
    spec.attempt = static_cast<uint32_t>(attempt);
    mr::TaskOutput out;
    // The child exits before writing task output, so the attempt itself
    // fails; only when it returns matters here.
    (void)runner.RunAttempt(spec, body, mr::TaskSideChannel{}, &out);
    const int64_t returned = SteadyNowNanos();
    int64_t exited = 0;
    std::ifstream(stamp_path) >> exited;
    ASSERT_GT(exited, 0) << "child wrote no exit stamp";
    best_lag_ms = std::min(best_lag_ms, (returned - exited) / 1e6);
  }
  EXPECT_LT(best_lag_ms, 10.0);
}

TEST(SubprocessRunnerTest, MalformedTimeoutEnvIsReportedNotDefaulted) {
  auto dir = store::TempSpillDir::Create("", "fsjoin-multiproc");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  mr::TaskSpec spec;
  spec.job_name = "env";
  spec.kind = mr::TaskKind::kMap;
  spec.output_base = dir->path() + "/task-t0";
  const mr::TaskBody body = [](const mr::TaskSpec&, mr::TaskOutput*) {
    return Status::OK();
  };
  mr::SubprocessRunner runner(/*num_threads=*/0);
  for (const char* bad : {"abc", "0", "-5", "300ms", "99999999999999"}) {
    ASSERT_EQ(setenv("FSJOIN_TASK_TIMEOUT_MS", bad, /*overwrite=*/1), 0);
    mr::TaskOutput out;
    const Status st =
        runner.RunAttempt(spec, body, mr::TaskSideChannel{}, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find("FSJOIN_TASK_TIMEOUT_MS"), std::string::npos)
        << st.ToString();
  }
  ASSERT_EQ(unsetenv("FSJOIN_TASK_TIMEOUT_MS"), 0);
}

// ---- Bounded child waits (util/child_process.h) ----------------------

// Both the pidfd wait and its portable back-off fallback keep one contract.
// The parameter names the wait under test.
class ChildWaitTest : public ::testing::TestWithParam<std::string> {
 protected:
  Result<ChildWait> Wait(int pid, std::chrono::steady_clock::time_point deadline,
                         int* status) {
    return GetParam() == "pidfd" ? WaitChildUntil(pid, deadline, status)
                                 : WaitChildByBackoff(pid, deadline, status);
  }
};

TEST_P(ChildWaitTest, PausedChildIsKilledAtItsDeadlineAndReportedTimedOut) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    while (true) ::pause();
  }
  const auto start = std::chrono::steady_clock::now();
  int status = 0;
  Result<ChildWait> waited =
      Wait(pid, start + std::chrono::milliseconds(100), &status);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(*waited, ChildWait::kTimedOut);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << status;
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // Reaped: the pid is no longer our child.
  EXPECT_EQ(waitpid(pid, &status, WNOHANG), -1);
}

TEST_P(ChildWaitTest, ExitedChildIsReapedWithItsStatus) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(7);
  int status = 0;
  Result<ChildWait> waited = Wait(
      pid, std::chrono::steady_clock::now() + std::chrono::seconds(30),
      &status);
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(*waited, ChildWait::kExited);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 7) << status;
  EXPECT_EQ(waitpid(pid, &status, WNOHANG), -1);
}

INSTANTIATE_TEST_SUITE_P(Waits, ChildWaitTest,
                         ::testing::Values("pidfd", "backoff"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fsjoin

#ifndef FSJOIN_MR_RUNNER_H_
#define FSJOIN_MR_RUNNER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "mr/job.h"
#include "mr/task.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fsjoin::mr {

/// How a stage's tasks are executed. The data plane (TaskSpec in, TaskOutput
/// out) is identical across runners, so results are byte-identical; runners
/// differ only in *where* a task body runs and what failure isolation the
/// scheduler can rely on.
enum class RunnerKind : uint32_t {
  kInline = 0,      ///< caller's thread, one task at a time
  kThreads = 1,     ///< ThreadPool workers (the seed engine's path)
  kSubprocess = 2,  ///< forked children / re-execed --worker-task processes
  kCluster = 3,     ///< socket RPC workers (net/cluster_runner.h)
};

const char* RunnerKindName(RunnerKind kind);
Result<RunnerKind> RunnerKindFromName(std::string_view name);

/// Executes task attempts for the scheduler. Implementations are owned by
/// one engine/pipeline at a time and reused across its stages.
class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  virtual const char* name() const = 0;

  /// True when task bodies run in another process: inputs must be reachable
  /// through files (the engine writes transport runs) and shared-context
  /// mutations only travel through the TaskSideChannel.
  virtual bool isolated() const { return false; }

  /// True when a lost attempt may be re-executed. In-process runners
  /// return false: user reducers mutate shared driver context directly, so
  /// a half-run attempt cannot be safely repeated. Subprocess attempts are
  /// hermetic (side effects die with the child) and retryable.
  virtual bool retryable() const { return false; }

  /// True when tasks run on networked workers that can hold retained map
  /// output: the engine switches to the streaming network shuffle
  /// (TaskSpec::retain_shuffle / shuffle_sources) instead of shipping map
  /// partitions back through the coordinator.
  virtual bool distributed() const { return false; }

  /// Called once after a job's last stage completes (success or failure);
  /// distributed runners release the job's retained shuffle partitions.
  virtual void FinishJob(const std::string& job_name) { (void)job_name; }

  /// Runs fn(i) for i in [0, n), with whatever concurrency the runner has.
  /// Also used by the engine for its parent-side shuffle phase.
  virtual void ParallelRun(size_t n,
                           const std::function<void(size_t)>& fn) = 0;

  /// The worker threads task bodies run on, when they are threads of this
  /// process; null otherwise. A join's coordinator-side steps run on it
  /// too, and a task body may fan out onto it with the chunked
  /// ThreadPool::ParallelFor (never the plain one, which waits on the
  /// whole pool), so idle workers help a slow task. Not owned.
  virtual ThreadPool* pool() { return nullptr; }

  /// Executes one attempt of one task. `side` is only consulted by
  /// isolated runners (see TaskSideChannel); the captured bytes come back
  /// in out->side_state for the scheduler to merge. An attempt lost before
  /// the task could report (crash, kill, timeout, dead worker) returns
  /// StatusCode::kUnavailable; any other error is the task's own, final.
  virtual Status RunAttempt(const TaskSpec& spec, const TaskBody& body,
                            const TaskSideChannel& side, TaskOutput* out) = 0;
};

/// Runs every task inline on the calling thread.
class InlineRunner : public TaskRunner {
 public:
  const char* name() const override { return "inline"; }
  void ParallelRun(size_t n, const std::function<void(size_t)>& fn) override;
  Status RunAttempt(const TaskSpec& spec, const TaskBody& body,
                    const TaskSideChannel& side, TaskOutput* out) override;
};

/// Runs tasks on an owned ThreadPool — exactly the seed engine's execution
/// model (num_threads == 0 still means "inline on the caller", preserving
/// deterministic-debug mode).
class ThreadPoolRunner : public TaskRunner {
 public:
  explicit ThreadPoolRunner(size_t num_threads) : pool_(num_threads) {}

  const char* name() const override { return "threads"; }
  void ParallelRun(size_t n, const std::function<void(size_t)>& fn) override;
  /// Null with no worker threads: inline runs stay serial.
  ThreadPool* pool() override {
    return pool_.num_threads() > 0 ? &pool_ : nullptr;
  }
  Status RunAttempt(const TaskSpec& spec, const TaskBody& body,
                    const TaskSideChannel& side, TaskOutput* out) override;

 private:
  ThreadPool pool_;
};

/// Runs each task attempt in its own child process — the "distributed
/// runtime minus the socket". Two transports, chosen per task:
///
///   exec mode — when the spec names a registered task factory and the
///     hosting binary opted in via WorkerTaskMainIfRequested (mr/worker.h),
///     the spec is serialized to disk and the current binary is re-execed
///     with `--worker-task <spec>`; the worker resolves the factory by
///     name and reads its input from run files. Nothing of the parent's
///     address space is assumed — this is the full closure-free protocol a
///     socket transport would use.
///
///   fork mode — otherwise the child runs the stage's TaskBody closure over
///     a copy-on-write snapshot of the parent (as a multiprocessing fork
///     worker would). Shared-context deltas travel via the TaskSideChannel.
///
/// Either way the child writes its results through WriteTaskOutputFiles
/// (CRC32C-framed run files) and exits without running destructors
/// (_exit), and the parent re-reads them. A crashed, killed or timed-out
/// child is detected by exit status, deadline or run-file corruption and
/// surfaces as a retryable Unavailable error; a task body's own failure,
/// persisted by the child, is final.
class SubprocessRunner : public TaskRunner {
 public:
  /// `num_threads` bounds how many children run concurrently (0 = one at
  /// a time, forked from the calling thread).
  explicit SubprocessRunner(size_t num_threads);

  const char* name() const override { return "subprocess"; }
  bool isolated() const override { return true; }
  bool retryable() const override { return true; }
  void ParallelRun(size_t n, const std::function<void(size_t)>& fn) override;
  Status RunAttempt(const TaskSpec& spec, const TaskBody& body,
                    const TaskSideChannel& side, TaskOutput* out) override;

 private:
  ThreadPool pool_;
  std::string argv0_;  ///< /proc/self/exe at construction; "" if unknown
};

std::unique_ptr<TaskRunner> MakeTaskRunner(RunnerKind kind,
                                           size_t num_threads);

/// Serializes fork() against parent-side merges of shared context, so a
/// child never inherits a context mutex in the locked state (a COW-copied
/// locked mutex would deadlock the child forever).
std::mutex& ProcessForkMutex();

/// Test hook: a task attempt for which the hook returns true "crashes" —
/// the child scribbles a torn .dat file and dies with a non-protocol exit
/// code, exercising the scheduler's detect-and-retry path. Cleared by
/// passing nullptr. The hook runs in the child (and is consulted for both
/// fork- and exec-mode tasks before the exec).
void SetSubprocessTaskFaultHook(std::function<bool(const TaskSpec&)> hook);

/// Whether this binary routed main() through WorkerTaskMainIfRequested and
/// can therefore be safely re-execed in --worker-task mode. Binaries that
/// never installed the hook still get subprocess isolation via fork mode.
bool WorkerModeAvailable();
void SetWorkerModeAvailable(bool available);

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_RUNNER_H_

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "mr/runner.h"
#include "util/child_process.h"
#include "util/string_util.h"

namespace fsjoin::mr {

namespace {

std::function<bool(const TaskSpec&)>& FaultHook() {
  static std::function<bool(const TaskSpec&)>* hook =
      new std::function<bool(const TaskSpec&)>();
  return *hook;
}

std::atomic<bool> g_worker_mode_available{false};

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path);
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
  const bool ok = written == bytes.size() && std::fclose(file) == 0;
  return ok ? Status::OK() : Status::IoError("short write to " + path);
}

#ifndef _WIN32
/// Leaves a torn, unreadable .dat behind — what a worker killed mid-write
/// leaves on a real cluster — then dies with a non-protocol exit code.
[[noreturn]] void DieMidWrite(const std::string& base) {
  std::FILE* file = std::fopen((base + ".dat").c_str(), "wb");
  if (file != nullptr) {
    std::fputs("torn partial task output", file);
    std::fflush(file);
  }
  _exit(3);
}

/// Wall-clock ceiling on one child attempt. A fork-mode child can inherit a
/// COW-copied allocator lock from a parent thread that was mid-malloc at
/// fork() time (ProcessForkMutex serializes fork against context merges, not
/// against allocation on other scheduler threads) and deadlock before its
/// first task instruction; a blocking waitpid would then wedge the whole job.
/// Past the ceiling the child is killed and the attempt fails over to the
/// scheduler's retry budget — the subprocess twin of the cluster runner's
/// heartbeat death detection. A malformed FSJOIN_TASK_TIMEOUT_MS is an error,
/// not a silent fall-back to the default.
Result<int64_t> AttemptTimeoutMs() {
  const char* env = std::getenv("FSJOIN_TASK_TIMEOUT_MS");
  if (env == nullptr || *env == '\0') return int64_t{60'000};
  Result<int64_t> ms = ParseInt64(env, 1, INT32_MAX);
  if (!ms.ok()) {
    return Status::InvalidArgument("FSJOIN_TASK_TIMEOUT_MS: " +
                                   ms.status().message());
  }
  return ms;
}

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "stopped with status " + std::to_string(status);
}
#endif  // !_WIN32

}  // namespace

std::mutex& ProcessForkMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

void SetSubprocessTaskFaultHook(std::function<bool(const TaskSpec&)> hook) {
  FaultHook() = std::move(hook);
}

bool WorkerModeAvailable() {
  return g_worker_mode_available.load(std::memory_order_relaxed);
}

void SetWorkerModeAvailable(bool available) {
  g_worker_mode_available.store(available, std::memory_order_relaxed);
}

SubprocessRunner::SubprocessRunner(size_t num_threads) : pool_(num_threads) {
#ifndef _WIN32
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    argv0_ = buf;
  }
#endif
}

void SubprocessRunner::ParallelRun(size_t n,
                                   const std::function<void(size_t)>& fn) {
  pool_.ParallelFor(n, fn);
}

#ifdef _WIN32

Status SubprocessRunner::RunAttempt(const TaskSpec&, const TaskBody&,
                                    const TaskSideChannel&, TaskOutput*) {
  return Status::Unimplemented("subprocess runner requires fork()");
}

#else  // !_WIN32

Status SubprocessRunner::RunAttempt(const TaskSpec& spec_in,
                                    const TaskBody& body,
                                    const TaskSideChannel& side,
                                    TaskOutput* out) {
  if (spec_in.output_base.empty()) {
    return Status::Internal("subprocess task '" + spec_in.job_name +
                            "' has no output_base");
  }
  FSJOIN_ASSIGN_OR_RETURN(const int64_t timeout_ms, AttemptTimeoutMs());
  TaskSpec spec = spec_in;
  // Per-attempt file namespace: a retried attempt never reads the torn
  // leftovers of its predecessor.
  spec.output_base += "-a" + std::to_string(spec_in.attempt);
  const std::string& base = spec.output_base;

  // Exec mode needs three things: a factory name, its registration in this
  // (and therefore the re-execed) binary, and a main() that routes through
  // WorkerTaskMainIfRequested — otherwise re-running the binary would
  // re-run its whole program. Anything less falls back to fork mode.
  const bool exec_mode = !spec.factory.empty() && HasTaskFactory(spec.factory) &&
                         WorkerModeAvailable() && !argv0_.empty();

  pid_t pid = -1;
  if (exec_mode) {
    const std::string spec_path = base + ".spec";
    std::string bytes;
    spec.EncodeTo(&bytes);
    FSJOIN_RETURN_NOT_OK(WriteFileBytes(spec_path, bytes));
    const char* argv[] = {argv0_.c_str(), "--worker-task", spec_path.c_str(),
                          nullptr};
    std::lock_guard<std::mutex> lock(ProcessForkMutex());
    pid = fork();
    if (pid == 0) {
      if (FaultHook() && FaultHook()(spec)) DieMidWrite(base);
      execv(argv[0], const_cast<char* const*>(argv));
      _exit(127);
    }
  } else {
    std::lock_guard<std::mutex> lock(ProcessForkMutex());
    pid = fork();
    if (pid == 0) {
      // Forked child. The parent's pool threads do not exist here and its
      // context mutexes are guaranteed unlocked (fork is serialized against
      // merges). Never unwind into parent-owned destructors: _exit only.
      if (FaultHook() && FaultHook()(spec)) DieMidWrite(base);
      if (side.reset) side.reset();
      TaskOutput child_out;
      Status st = body(spec, &child_out);
      if (st.ok() && side.capture) child_out.side_state = side.capture();
      if (st.ok()) st = WriteTaskOutputFiles(base, child_out);
      if (st.ok()) _exit(0);
      WriteTaskError(base, st);
      _exit(2);
    }
  }
  if (pid < 0) {
    return Status::Internal("fork failed for task '" + spec.job_name + "/" +
                            TaskKindName(spec.kind) + std::to_string(spec.task_index) +
                            "': " + std::strerror(errno));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  int status = 0;
  FSJOIN_ASSIGN_OR_RETURN(ChildWait waited,
                          WaitChildUntil(pid, deadline, &status));
  if (waited == ChildWait::kTimedOut) {
    return Status::Internal(
        "task '" + spec.job_name + "/" + TaskKindName(spec.kind) +
        std::to_string(spec.task_index) + "' attempt " +
        std::to_string(spec.attempt) + " timed out after " +
        std::to_string(timeout_ms) + " ms; child killed");
  }

  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    return ReadTaskOutputFiles(base, out);
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 2) {
    // Protocol error exit: the child persisted its real Status.
    Status persisted;
    if (ReadTaskError(base, &persisted).ok()) return persisted;
  }
  return Status::Internal(
      "task '" + spec.job_name + "/" + TaskKindName(spec.kind) +
      std::to_string(spec.task_index) + "' attempt " +
      std::to_string(spec.attempt) + " subprocess " +
      DescribeWaitStatus(status));
}

#endif  // _WIN32

}  // namespace fsjoin::mr

#ifndef FSJOIN_NET_CLUSTER_RUNNER_H_
#define FSJOIN_NET_CLUSTER_RUNNER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "mr/runner.h"
#include "net/socket.h"
#include "util/endpoint.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fsjoin::net {

/// Cluster topology and liveness knobs for ClusterTaskRunner::Create.
struct ClusterOptions {
  /// Dial mode: pre-started fsjoin_worker processes to connect to.
  std::vector<Endpoint> workers;
  /// Spawn mode: fork/exec this many loopback workers from the current
  /// binary (requires a main() routed through WorkerServeMainIfRequested).
  /// Exactly one of workers/spawn_local_workers must be set.
  int spawn_local_workers = 0;
  /// Liveness probe interval: while waiting on a busy worker the
  /// coordinator probes every heartbeat_ms and declares the worker dead
  /// after kMaxMissedHeartbeats unanswered probes.
  int heartbeat_ms = 2000;
  /// Coordinator-side concurrency (input-run streaming, fallback
  /// subprocess tasks). The dispatch pool is always at least as wide as
  /// the worker count, so every worker can hold a task.
  size_t num_threads = 0;
  /// Connect/handshake timeout per worker.
  int timeout_ms = 10000;
};

inline constexpr int kMaxMissedHeartbeats = 3;

/// TaskRunner executing tasks on socket-RPC workers (DESIGN.md §5j).
///
/// Remote-capable specs — retain_shuffle map tasks and shuffle-source
/// reduce tasks, which the engine only emits for factory-named jobs — are
/// dispatched to workers over the framed RPC protocol (net/frame.h), with
/// map input streamed from the coordinator's run files and reduce input
/// pulled worker-to-worker over the network shuffle. Closure-only specs
/// (jobs without a registered factory: FS-Join's filtering job and the
/// baselines' own join jobs) fall back to an internal SubprocessRunner:
/// same isolation contract, local transport.
///
/// Failure model: a worker is dead when its connection errors or it misses
/// kMaxMissedHeartbeats probes. The coordinator then re-runs the dead
/// worker's retained map tasks on survivors (it kept their specs, and
/// their input runs live in the job scratch dir until the job ends),
/// repairs the location table, and fails the in-flight task with a
/// retryable Unavailable error — the scheduler's ordinary retry budget
/// covers the rest, and metrics still merge exactly once because only the
/// final successful attempt reaches on_done. A task error a worker reports
/// without a lost shuffle endpoint is the task's own, and final.
class ClusterTaskRunner : public mr::TaskRunner {
 public:
  static Result<std::unique_ptr<ClusterTaskRunner>> Create(
      const ClusterOptions& options);

  /// Sends kShutdown to live workers and reaps spawned ones, killing any
  /// still running 5 s later.
  ~ClusterTaskRunner() override;

  const char* name() const override { return "cluster"; }
  bool isolated() const override { return true; }
  bool retryable() const override { return true; }
  bool distributed() const override { return true; }
  void ParallelRun(size_t n, const std::function<void(size_t)>& fn) override;
  Status RunAttempt(const mr::TaskSpec& spec, const mr::TaskBody& body,
                    const mr::TaskSideChannel& side,
                    mr::TaskOutput* out) override;
  /// Broadcasts kShuffleRelease and drops the job's location table.
  void FinishJob(const std::string& job_name) override;

  /// Workers still answering (for tests and diagnostics).
  size_t alive_workers() const;

 private:
  struct WorkerConn {
    Socket control;
    std::string shuffle_endpoint;  ///< "host:port" of its shuffle server
    bool alive = false;
    bool busy = false;
    int64_t child_pid = -1;  ///< spawned workers only
  };

  using TaskKey = std::pair<std::string, uint32_t>;  // (job, map task)

  ClusterTaskRunner(const ClusterOptions& options, size_t worker_count);

  Status Init();
  Status AttachWorker(size_t index, Socket control,
                      const std::string& shuffle_host);

  Result<size_t> AcquireWorker();
  void ReleaseWorker(size_t w);

  /// Runs one remote-capable spec: acquire, dispatch, post-mortem
  /// bookkeeping (death recovery, location recording).
  Status RunRemote(const mr::TaskSpec& spec, mr::TaskOutput* out);

  /// One dispatch round-trip on worker `w` (held busy by the caller):
  /// kDispatchTask + input streams, then the probe/receive loop until
  /// kTaskResult/kTaskError. Sets *worker_died on connection loss or
  /// heartbeat timeout; sets *lost_endpoint from a kTaskError that blamed
  /// a dead shuffle source.
  Status DispatchToWorker(size_t w, const mr::TaskSpec& spec,
                          mr::TaskOutput* out, std::string* lost_endpoint,
                          bool* worker_died);

  /// Marks `w` dead (idempotent) and synchronously re-runs its retained
  /// map tasks on survivors. `held_by_caller` says the calling thread
  /// currently holds `w` busy and owns its socket.
  void HandleWorkerDeath(size_t w, bool held_by_caller);
  Status RedispatchRetained(mr::TaskSpec spec);
  void DropLocation(const TaskKey& key);

  /// Waits out any in-flight death recovery, then resolves every shuffle
  /// source of `spec` to its holder's live endpoint.
  Result<mr::TaskSpec> ResolveSources(const mr::TaskSpec& spec);

  int WorkerByShuffleEndpoint(const std::string& endpoint) const;

  ClusterOptions options_;
  ThreadPool pool_;
  std::unique_ptr<mr::SubprocessRunner> fallback_;
  std::string argv0_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WorkerConn> workers_;
  int recovering_ = 0;
  std::map<TaskKey, size_t> locations_;       ///< retained map -> worker
  std::map<TaskKey, mr::TaskSpec> retained_;  ///< specs for re-dispatch
};

}  // namespace fsjoin::net

#endif  // FSJOIN_NET_CLUSTER_RUNNER_H_

// End-to-end tests of the networked cluster runtime (ctest label
// `cluster`): record streams crossing real sockets with their trailer
// cross-checks; result-digest identity between the cluster runner (four
// spawned loopback workers) and the inline runner for FS-Join and all
// three baselines; the verification job's pinned counters on every runner;
// kill-a-worker fault injection on the verification job for both
// task kinds (a map death re-runs the task, a reduce death additionally
// re-creates the dead worker's retained shuffle partitions on survivors)
// with exactly-once metrics; heartbeat-timeout death detection against a
// worker that registers and then goes silent; and the cluster-simulator
// cross-check feeding measured 4-worker task costs back into the cost
// model of mr/cluster_sim.h.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "check/invariants.h"
#include "core/fsjoin.h"
#include "core/jobs.h"
#include "mr/cluster_sim.h"
#include "mr/engine.h"
#include "mr/runner.h"
#include "mr/task.h"
#include "net/cluster_runner.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/stream.h"
#include "sim/serial_join.h"
#include "test_util.h"
#include "util/endpoint.h"
#include "util/status.h"

namespace fsjoin {
namespace {

using mr::RunnerKind;
using mr::TaskKind;

/// Sets FSJOIN_WORKER_FAULT for one test and always clears it. Spawned
/// workers inherit the environment, so this must be constructed before the
/// cluster runner (i.e. before the join config's Run / Engine build).
class ScopedWorkerFault {
 public:
  explicit ScopedWorkerFault(const std::string& value) {
    ::setenv("FSJOIN_WORKER_FAULT", value.c_str(), 1);
  }
  ~ScopedWorkerFault() { ::unsetenv("FSJOIN_WORKER_FAULT"); }
};

exec::ExecConfig SmallExec(RunnerKind runner) {
  exec::ExecConfig config;
  config.runner = runner;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 3;
  config.num_threads = 2;
  if (runner == RunnerKind::kCluster) {
    config.spawn_local_workers = 4;
  }
  return config;
}

// ---- Record streams over real sockets --------------------------------

TEST(ClusterStreamTest, RecordStreamRoundTripsOverSocketPair) {
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  net::Socket writer_sock = std::move(pair->first);
  net::Socket reader_sock = std::move(pair->second);

  // Enough payload to force several chunks (target is 256 KiB per chunk).
  const size_t kRecords = 9000;
  const std::string filler(100, 'x');
  std::thread writer([&] {
    net::ChunkStreamWriter writer(&writer_sock, net::MsgType::kShuffleChunk,
                                  net::MsgType::kShuffleEnd);
    for (size_t i = 0; i < kRecords; ++i) {
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(writer.Add(key, filler).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  });

  net::FrameRecordStream stream(&reader_sock, net::MsgType::kShuffleChunk,
                                net::MsgType::kShuffleEnd);
  size_t got = 0;
  bool has = false;
  std::string_view key, value;
  for (;;) {
    const Status st = stream.Next(&has, &key, &value);
    ASSERT_TRUE(st.ok()) << st.ToString();
    if (!has) break;
    EXPECT_EQ(key, "key" + std::to_string(got));
    EXPECT_EQ(value, filler);
    ++got;
  }
  writer.join();
  EXPECT_EQ(got, kRecords);
  EXPECT_EQ(stream.records(), kRecords);
}

TEST(ClusterStreamTest, TaskErrorFrameFailsTheStreamWithItsStatus) {
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  net::TaskErrorMsg err;
  err.error = Status::NotFound("no retained partition for job 'j'");
  std::string payload;
  err.EncodeTo(&payload);
  ASSERT_TRUE(
      net::SendFrame(&pair->first, net::MsgType::kTaskError, payload).ok());

  net::FrameRecordStream stream(&pair->second, net::MsgType::kShuffleChunk,
                                net::MsgType::kShuffleEnd);
  bool has = false;
  std::string_view key, value;
  const Status st = stream.Next(&has, &key, &value);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  EXPECT_NE(st.message().find("no retained partition"), std::string::npos);
}

TEST(ClusterStreamTest, TrailerCountMismatchIsCorruption) {
  // A lost chunk frame cannot be caught by per-frame CRCs; the trailer's
  // running totals must catch it instead.
  auto pair = net::Socket::Pair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  std::string chunk;
  net::AppendChunkRecord(&chunk, "k1", "v1");
  net::AppendChunkRecord(&chunk, "k2", "v2");
  ASSERT_TRUE(
      net::SendFrame(&pair->first, net::MsgType::kShuffleChunk, chunk).ok());
  net::StreamTrailer trailer;
  trailer.records = 3;  // lies: only 2 were sent
  trailer.payload_bytes = chunk.size();
  trailer.chunks = 1;
  std::string payload;
  trailer.EncodeTo(&payload);
  ASSERT_TRUE(
      net::SendFrame(&pair->first, net::MsgType::kShuffleEnd, payload).ok());

  net::FrameRecordStream stream(&pair->second, net::MsgType::kShuffleChunk,
                                net::MsgType::kShuffleEnd);
  bool has = false;
  std::string_view key, value;
  Status st = Status::OK();
  while (st.ok()) {
    st = stream.Next(&has, &key, &value);
    if (st.ok() && !has) break;
  }
  ASSERT_FALSE(st.ok()) << "trailer mismatch went unnoticed";
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// ---- Spawn-local cluster bring-up ------------------------------------

TEST(ClusterRunnerTest, SpawnsWorkersAndReportsThemAlive) {
  net::ClusterOptions options;
  options.spawn_local_workers = 3;
  auto runner = net::ClusterTaskRunner::Create(options);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_EQ((*runner)->alive_workers(), 3u);
  EXPECT_STREQ((*runner)->name(), "cluster");
  EXPECT_TRUE((*runner)->distributed());
  EXPECT_TRUE((*runner)->retryable());
  EXPECT_TRUE((*runner)->isolated());
}

TEST(ClusterRunnerTest, CreateRejectsBadTopologyAndHeartbeat) {
  {
    net::ClusterOptions options;  // neither workers nor spawn
    auto runner = net::ClusterTaskRunner::Create(options);
    ASSERT_FALSE(runner.ok());
    EXPECT_NE(runner.status().message().find("exactly one"),
              std::string::npos);
  }
  {
    net::ClusterOptions options;
    options.spawn_local_workers = 2;
    options.workers.push_back(Endpoint{"localhost", 9000});
    auto runner = net::ClusterTaskRunner::Create(options);
    ASSERT_FALSE(runner.ok());
  }
  {
    net::ClusterOptions options;
    options.spawn_local_workers = 2;
    options.heartbeat_ms = 10;
    auto runner = net::ClusterTaskRunner::Create(options);
    ASSERT_FALSE(runner.ok());
    EXPECT_NE(runner.status().message().find("heartbeat_ms"),
              std::string::npos);
  }
}

// ---- Digest identity: cluster vs inline, 4 algorithms ------------------

JoinResultSet RunAlgorithm(int algorithm, const Corpus& corpus,
                           const exec::ExecConfig& exec_config,
                           std::optional<RecordId> rs_boundary = std::nullopt) {
  const double theta = 0.6;
  switch (algorithm) {
    case 0: {
      FsJoinConfig config;
      config.theta = theta;
      config.num_vertical_partitions = 4;
      config.num_horizontal_partitions = 1;
      config.rs_boundary = rs_boundary;
      config.exec = exec_config;
      auto out = FsJoin(config).Run(corpus);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    case 1: {
      BaselineConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = rs_boundary;
      auto out = RunVernicaJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    case 2: {
      BaselineConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = rs_boundary;
      auto out = RunVSmartJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    default: {
      MassJoinConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = rs_boundary;
      config.length_group = 2;
      auto out = RunMassJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
  }
}

TEST(ClusterRunnerTest, DigestsIdenticalToInlineAcrossAlgorithms) {
  const Corpus corpus = testing::RandomCorpus(48, 60, 0.8, 8.0, 11);
  const char* names[] = {"fsjoin", "vernica", "vsmart", "massjoin"};

  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    const JoinResultSet reference =
        RunAlgorithm(algorithm, corpus, SmallExec(RunnerKind::kInline));
    ASSERT_GT(reference.size(), 0u) << names[algorithm];
    const uint32_t reference_digest = check::ResultDigest(reference);
    const JoinResultSet pairs =
        RunAlgorithm(algorithm, corpus, SmallExec(RunnerKind::kCluster));
    EXPECT_EQ(check::ResultDigest(pairs), reference_digest) << names[algorithm];
    EXPECT_EQ(pairs.size(), reference.size());
  }
}

// R-S mode over the socket workers: the side-tagged fragment joins must
// survive network shuffle byte-identically. The inline reference is itself
// pinned to the serial BruteForceJoinRS oracle so a cluster/inline match
// can't hide a shared wrong answer.
TEST(ClusterRunnerTest, RsDigestsIdenticalToInlineAcrossAlgorithms) {
  const Corpus corpus = testing::RandomCorpus(48, 60, 0.8, 8.0, 11);
  const RecordId boundary = 20;
  const char* names[] = {"fsjoin", "vernica", "vsmart", "massjoin"};
  const uint32_t oracle_digest = check::ResultDigest(BruteForceJoinRS(
      testing::OrderedView(corpus), boundary, SimilarityFunction::kJaccard,
      0.6));

  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    const JoinResultSet reference = RunAlgorithm(
        algorithm, corpus, SmallExec(RunnerKind::kInline), boundary);
    ASSERT_GT(reference.size(), 0u) << names[algorithm];
    EXPECT_EQ(check::ResultDigest(reference), oracle_digest)
        << names[algorithm];
    const JoinResultSet pairs = RunAlgorithm(
        algorithm, corpus, SmallExec(RunnerKind::kCluster), boundary);
    EXPECT_EQ(check::ResultDigest(pairs), oracle_digest) << names[algorithm];
    EXPECT_EQ(pairs.size(), reference.size());
  }
}

// ---- Verification counters across runners ------------------------------

// The verification job runs from its "core.verification" payload in
// re-execed processes and on cluster workers, and its candidate count is
// the sum of its reduce tasks' key groups. Both must leave the pinned
// verification row and candidate count as they are on every runner.
TEST(ClusterRunnerTest, VerificationPinsIdenticalAcrossRunners) {
  // MetricsRegressionTest's corpus and config (jobs_test.cc), whose
  // verification row is pinned there.
  const Corpus corpus = testing::MetricsRegressionCorpus();
  for (RunnerKind runner : {RunnerKind::kInline, RunnerKind::kThreads,
                            RunnerKind::kSubprocess, RunnerKind::kCluster}) {
    const std::string where = mr::RunnerKindName(runner);
    FsJoinConfig config;
    config.theta = 0.8;
    config.num_vertical_partitions = 6;
    config.num_horizontal_partitions = 2;
    config.exec.runner = runner;
    config.exec.num_map_tasks = 4;
    config.exec.num_reduce_tasks = 5;
    config.exec.num_threads = runner == RunnerKind::kThreads ? 4 : 0;
    if (runner == RunnerKind::kCluster) config.exec.spawn_local_workers = 3;
    Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
    ASSERT_TRUE(out.ok()) << where << ": " << out.status().ToString();

    const mr::JobMetrics& ver = out->report.verification_job;
    uint64_t max_group = 0;
    for (const mr::TaskMetrics& t : ver.reduce_tasks) {
      max_group = std::max(max_group, t.max_group_bytes);
    }
    EXPECT_EQ(ver.map_input_records, 5628u) << where;
    EXPECT_EQ(ver.map_input_bytes, 61908u) << where;
    EXPECT_EQ(ver.map_output_records, 5628u) << where;
    EXPECT_EQ(ver.map_output_bytes, 61908u) << where;
    EXPECT_EQ(ver.shuffle_records, 5628u) << where;
    EXPECT_EQ(ver.shuffle_bytes, 61908u) << where;
    EXPECT_EQ(ver.reduce_input_groups, 4471u) << where;
    EXPECT_EQ(ver.reduce_output_records, 71u) << where;
    EXPECT_EQ(ver.reduce_output_bytes, 1136u) << where;
    EXPECT_EQ(max_group, 66u) << where;
    EXPECT_EQ(out->report.candidate_pairs, 4471u) << where;
    EXPECT_EQ(out->report.result_pairs, 71u) << where;
  }
}

// ---- Kill-a-worker fault injection ------------------------------------

/// Runs FS-Join with 4 spawned cluster workers.
Result<FsJoinOutput> ClusterFsJoin(const Corpus& corpus) {
  FsJoinConfig config;
  config.theta = 0.6;
  config.num_vertical_partitions = 4;
  config.num_horizontal_partitions = 1;
  config.exec = SmallExec(RunnerKind::kCluster);
  return FsJoin(config).Run(corpus);
}

TEST(ClusterFaultTest, KilledMapWorkerTaskLandsExactlyOnceOnSurvivor) {
  const Corpus corpus = testing::RandomCorpus(40, 50, 0.8, 8.0, 5);

  auto clean = ClusterFsJoin(corpus);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // The worker executing the verification job's map task 1 (attempt 0)
  // _Exit(3)s mid-task. The coordinator must see the dead connection, fail
  // the attempt retryably, and the scheduler re-runs it on a survivor —
  // the bumped attempt number keeps the fault from re-firing.
  ScopedWorkerFault fault("verification:map:1:0");
  auto faulted = ClusterFsJoin(corpus);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  EXPECT_EQ(check::ResultDigest(faulted->pairs),
            check::ResultDigest(clean->pairs));
  const mr::JobMetrics& job = faulted->report.verification_job;
  ASSERT_GT(job.map_tasks.size(), 1u);
  EXPECT_EQ(job.map_tasks[1].attempts, 2u);
  for (size_t t = 0; t < job.map_tasks.size(); ++t) {
    if (t != 1) {
      EXPECT_EQ(job.map_tasks[t].attempts, 1u) << "map " << t;
    }
  }
  // Exactly-once metrics merge: aggregates match the clean cluster run in
  // spite of the re-executed attempt.
  const mr::JobMetrics& clean_job = clean->report.verification_job;
  EXPECT_EQ(job.map_output_records, clean_job.map_output_records);
  EXPECT_EQ(job.shuffle_records, clean_job.shuffle_records);
  EXPECT_EQ(job.reduce_output_records, clean_job.reduce_output_records);
}

TEST(ClusterFaultTest, KilledReduceWorkerRecoversRetainedMapOutput) {
  const Corpus corpus = testing::RandomCorpus(40, 50, 0.8, 8.0, 7);

  auto clean = ClusterFsJoin(corpus);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // The worker dies mid-reduce, taking its retained map partitions with
  // it. Recovery must re-run those map tasks on survivors (internally,
  // without burning scheduler attempts) before the retried reduce
  // re-resolves its shuffle sources.
  ScopedWorkerFault fault("verification:reduce:1:0");
  auto faulted = ClusterFsJoin(corpus);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  EXPECT_EQ(check::ResultDigest(faulted->pairs),
            check::ResultDigest(clean->pairs));
  const mr::JobMetrics& job = faulted->report.verification_job;
  ASSERT_GT(job.reduce_tasks.size(), 1u);
  // The killed reduce re-ran; sibling reduces that were fetching from the
  // dead worker's shuffle server at that moment may legitimately have
  // burned an attempt too, so only the faulted task's count is exact.
  EXPECT_GE(job.reduce_tasks[1].attempts, 2u);
  for (size_t t = 0; t < job.map_tasks.size(); ++t) {
    EXPECT_EQ(job.map_tasks[t].attempts, 1u)
        << "internal map re-runs must not count as scheduler attempts";
  }
  const mr::JobMetrics& clean_job = clean->report.verification_job;
  EXPECT_EQ(job.shuffle_records, clean_job.shuffle_records);
  EXPECT_EQ(job.reduce_output_records, clean_job.reduce_output_records);
}

// ---- Heartbeat-timeout death detection --------------------------------

/// A worker that completes the handshake and then never answers anything
/// again — the failure mode heartbeats exist for (process alive, stuck).
class SilentWorker {
 public:
  Status Start() {
    FSJOIN_ASSIGN_OR_RETURN(listener_, net::Listener::Listen("127.0.0.1", 0));
    port_ = listener_.port();
    thread_ = std::thread([this] { Run(); });
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  ~SilentWorker() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Run() {
    Result<net::Socket> conn = listener_.Accept(/*timeout_ms=*/10000);
    if (!conn.ok()) return;
    net::HelloMsg hello;
    hello.pid = static_cast<uint64_t>(::getpid());
    hello.shuffle_port = 1;  // never served; nothing will fetch from us
    std::string payload;
    hello.EncodeTo(&payload);
    if (!net::SendFrame(&*conn, net::MsgType::kHello, payload).ok()) return;
    // Drain frames without ever answering, until the coordinator gives up
    // on us and closes the connection.
    for (;;) {
      net::Frame frame;
      if (!net::RecvFrame(&*conn, &frame).ok()) return;
    }
  }

  net::Listener listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClusterFaultTest, SilentWorkerIsDeclaredDeadAfterMissedHeartbeats) {
  SilentWorker worker;
  ASSERT_TRUE(worker.Start().ok());

  net::ClusterOptions options;
  options.workers.push_back(Endpoint{"127.0.0.1", worker.port()});
  options.heartbeat_ms = 60;
  auto runner = net::ClusterTaskRunner::Create(options);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  ASSERT_EQ((*runner)->alive_workers(), 1u);

  mr::TaskSpec spec;
  spec.job_name = "hbtest";
  spec.kind = TaskKind::kMap;
  spec.task_index = 0;
  spec.num_partitions = 1;
  spec.factory = "core.verification";
  spec.retain_shuffle = true;  // remote-capable: must go to the worker
  mr::TaskOutput out;
  const Status st =
      (*runner)->RunAttempt(spec, mr::TaskBody{}, mr::TaskSideChannel{}, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("died"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("heartbeats"), std::string::npos)
      << st.ToString();
  EXPECT_EQ((*runner)->alive_workers(), 0u);

  // With every worker dead, further remote attempts fail fast.
  mr::TaskOutput out2;
  const Status st2 =
      (*runner)->RunAttempt(spec, mr::TaskBody{}, mr::TaskSideChannel{}, &out2);
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.message().find("no alive cluster workers"), std::string::npos)
      << st2.ToString();
}

// ---- Direct engine runs over the network shuffle ----------------------

Result<std::unique_ptr<net::ClusterTaskRunner>> SpawnWorkers(int n) {
  net::ClusterOptions options;
  options.spawn_local_workers = n;
  return net::ClusterTaskRunner::Create(options);
}

Status RunVerificationJob(mr::TaskRunner* runner, const mr::Dataset& input,
                          mr::Dataset* output, mr::JobMetrics* metrics) {
  mr::EngineOptions options;
  options.runner = runner == nullptr ? RunnerKind::kInline
                                     : RunnerKind::kCluster;
  options.external_runner = runner;
  mr::Engine engine(options);
  // 30 map tasks: every reduce fans 30 fetch connections into one shuffle
  // server when a single worker hosts all map output, which regresses into
  // multi-second TCP-retransmission stalls if the listener backlog ever
  // drops below that fan-in again (socket.h Listener::Listen).
  return engine.Run(
      MakeVerificationJobConfig(SimilarityFunction::kJaccard, 0.6, 30, 30),
      input, output, metrics);
}

TEST(ClusterRunnerTest, NetworkShuffleMatchesInlineEngineByteForByte) {
  const mr::Dataset input = testing::RandomPartialOverlaps(120, 13);

  mr::Dataset inline_out;
  mr::JobMetrics inline_metrics;
  ASSERT_TRUE(
      RunVerificationJob(nullptr, input, &inline_out, &inline_metrics).ok());

  auto runner = SpawnWorkers(4);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  mr::Dataset cluster_out;
  mr::JobMetrics cluster_metrics;
  const Status st =
      RunVerificationJob(runner->get(), input, &cluster_out, &cluster_metrics);
  ASSERT_TRUE(st.ok()) << st.ToString();

  ASSERT_EQ(cluster_out.size(), inline_out.size());
  for (size_t i = 0; i < cluster_out.size(); ++i) {
    EXPECT_EQ(cluster_out[i].key, inline_out[i].key) << "record " << i;
    EXPECT_EQ(cluster_out[i].value, inline_out[i].value) << "record " << i;
  }
  EXPECT_EQ(cluster_metrics.shuffle_records, inline_metrics.shuffle_records);
  EXPECT_EQ(cluster_metrics.reduce_output_records,
            inline_metrics.reduce_output_records);
  EXPECT_EQ((*runner)->alive_workers(), 4u);
}

// Shutdown wakes each worker's shuffle-server accept thread at once, so
// tearing the cluster down costs a few process exits. An accept loop that
// polled for its stop flag would add up to one poll period per worker.
TEST(ClusterRunnerTest, ShutdownAfterNetworkShuffleIsPrompt) {
  auto runner = SpawnWorkers(3);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  mr::Dataset out;
  mr::JobMetrics metrics;
  ASSERT_TRUE(RunVerificationJob(runner->get(),
                                 testing::RandomPartialOverlaps(120, 13), &out,
                                 &metrics)
                  .ok());
  ASSERT_GT(metrics.shuffle_records, 0u);

  const auto start = std::chrono::steady_clock::now();
  runner->reset();  // the ClusterTaskRunner destructor
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(100))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms to shut down 3 workers";
}

// FsJoinReport::total_wall_ms covers the whole Run, including the cluster
// runner's worker spawn and shutdown.
TEST(ClusterRunnerTest, ReportedWallCoversTheWholeClusterJoin) {
  const Corpus corpus = testing::RandomCorpus(200, 80, 0.8, 8.0, 3);
  const auto start = std::chrono::steady_clock::now();
  auto out = ClusterFsJoin(corpus);
  const double outer_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GE(out->report.total_wall_ms, 0.8 * outer_ms)
      << "reported " << out->report.total_wall_ms << " ms of " << outer_ms;
}

// ---- Cluster-simulator cross-check (measured vs predicted scaling) ----

TEST(ClusterSimCrossCheckTest, PredictedSpeedupTracksMeasuredSpeedup) {
  // A workload heavy enough that per-task time is measurable over the
  // dispatch overhead on a loopback cluster.
  const mr::Dataset input = testing::RandomPartialOverlaps(600, 17);

  auto one = SpawnWorkers(1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  mr::Dataset out1;
  mr::JobMetrics metrics1;
  ASSERT_TRUE(RunVerificationJob(one->get(), input, &out1, &metrics1).ok());

  auto four = SpawnWorkers(4);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  mr::Dataset out4;
  mr::JobMetrics metrics4;
  ASSERT_TRUE(RunVerificationJob(four->get(), input, &out4, &metrics4).ok());

  const double measured_speedup =
      static_cast<double>(std::max<int64_t>(metrics1.total_wall_micros, 1)) /
      static_cast<double>(std::max<int64_t>(metrics4.total_wall_micros, 1));

  // Feed the 4-worker run's measured per-task costs into the cost model,
  // with the per-task overhead estimated from the serialized 1-worker run
  // (total wall minus task-body wall, spread over the tasks — on one
  // worker everything is dispatch + body, end to end).
  const size_t num_tasks = metrics1.map_tasks.size() +
                           metrics1.reduce_tasks.size();
  ASSERT_GT(num_tasks, 0u);
  const double body_micros = static_cast<double>(metrics1.map_wall_micros +
                                                 metrics1.reduce_wall_micros);
  const double overhead_micros = std::max(
      1.0, (static_cast<double>(metrics1.total_wall_micros) - body_micros) /
               static_cast<double>(num_tasks));
  mr::ClusterCostModel model;
  model.slots_per_node = 1;  // one simulated slot == one loopback worker
  model.per_task_overhead_micros = overhead_micros;
  model.network_micros_per_byte = 0.0;  // loopback shuffle is ~free

  const mr::SimulatedJobTime sim1 = mr::SimulateJob(metrics4, 1, model);
  const mr::SimulatedJobTime sim4 = mr::SimulateJob(metrics4, 4, model);
  ASSERT_GT(sim4.total_ms, 0.0);
  const double predicted_speedup = sim1.total_ms / sim4.total_ms;

  // The simulator is deterministic: more nodes can only help, and four
  // single-slot nodes can at best quadruple throughput.
  EXPECT_GE(predicted_speedup, 1.0);
  EXPECT_LE(predicted_speedup, 4.0 + 1e-9);
  // Sanity band against the (noisy) measured wall-clock ratio: the
  // prediction must be the same order of magnitude. The band is wide on
  // purpose — CI machines are loaded and the corpus is small.
  EXPECT_GT(measured_speedup, predicted_speedup / 10.0);
  EXPECT_LT(measured_speedup, predicted_speedup * 10.0);
}

}  // namespace
}  // namespace fsjoin

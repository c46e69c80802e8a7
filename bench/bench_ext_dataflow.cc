// FS-Join's execution runtime on the MapReduce engine, in three sections:
// the task runner (inline, thread pool, forked subprocess), cluster scaling
// over loopback socket workers, and R-S joins at three |R|:|S| ratios. Every
// cell of a section must reproduce the same ResultDigest; the columns show
// where the wall time goes.
//
// Row names keep an "mr" component ("email/mr/inline",
// "wiki/rs1:10/mr") so scripts/bench_diff.py matches them against older
// BENCH_*.json files.
//
// Flags: --warmup=N --repeat=N --json[=PATH]

#include <cstdio>
#include <iostream>
#include <optional>

#include "bench_util.h"
#include "check/invariants.h"
#include "mr/runner.h"
#include "mr/worker.h"
#include "net/worker.h"
#include "sim/join_result.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace fsjoin::bench {
namespace {

uint64_t ShuffleBytes(const FsJoinReport& report) {
  uint64_t bytes = 0;
  for (const mr::JobMetrics& j : report.AllJobs()) bytes += j.shuffle_bytes;
  return bytes;
}

void Run(const BenchOptions& options) {
  const double theta = 0.8;

  // Runner comparison: the same jobs on the inline, thread-pool, and
  // forked-subprocess task runners. Scheduling and process overhead is the
  // quantity under test. Its rows are the --json output (BENCH_runtime.json
  // by default); the later sections write their own sibling files.
  PrintBanner("Runtime — task-runner overhead: inline vs thread-pool vs "
              "forked subprocess",
              "same jobs, same digests; the delta is pure scheduling, "
              "fork/exec, and run-file interchange cost");
  constexpr mr::RunnerKind kRunnerMenu[] = {mr::RunnerKind::kInline,
                                            mr::RunnerKind::kThreads,
                                            mr::RunnerKind::kSubprocess};
  std::vector<BenchRecord> runtime_records;
  for (Workload& w : AllWorkloads(0.25)) {
    std::printf("\n[%s] %zu records, theta = %.2f\n", w.name.c_str(),
                w.corpus.NumRecords(), theta);
    TablePrinter table({"runner", "wall (ms)", "shuffle", "results", "digest"});
    std::optional<uint32_t> reference_digest;
    for (mr::RunnerKind runner : kRunnerMenu) {
      FsJoinConfig config = DefaultFsConfig(theta);
      config.exec.runner = runner;
      std::optional<Result<FsJoinOutput>> result;
      double wall_micros = MinWallMicros(options, [&] {
        result.emplace(FsJoin(config).Run(w.corpus));
      });
      Result<FsJoinOutput>& out = *result;
      if (!out.ok()) {
        std::printf("FAIL: %s\n", out.status().ToString().c_str());
        continue;
      }
      const uint64_t shuffle = ShuffleBytes(out->report);
      const uint32_t digest = check::ResultDigest(out->pairs);
      if (!reference_digest) reference_digest = digest;
      const bool same = digest == *reference_digest;
      table.AddRow({mr::RunnerKindName(runner),
                    StrFormat("%.0f", wall_micros / 1000.0),
                    HumanBytes(shuffle),
                    WithThousandsSep(out->pairs.size()),
                    same ? StrFormat("%08x", digest)
                         : StrFormat("%08x MISMATCH!", digest)});

      BenchRecord record;
      record.name = StrFormat("%s/mr/%s", w.name.c_str(),
                              mr::RunnerKindName(runner));
      record.wall_micros = wall_micros;
      record.shuffle_bytes = shuffle;
      runtime_records.push_back(std::move(record));
    }
    table.Print(std::cout);
  }
  WriteBenchJson(options, "runtime", runtime_records);

  // Cluster scaling: the same jobs on the socket-RPC cluster runner with
  // 1, 2 and 4 spawned loopback workers (DESIGN.md §5j). The quantity
  // under test is the networked runtime's overhead and scaling — RPC
  // framing, input streaming, and the worker-to-worker network shuffle —
  // against the inline runner's zero-cost baseline. Records into its own
  // JSON (BENCH_cluster.json).
  PrintBanner("Runtime — cluster scaling: inline vs 1/2/4 loopback socket "
              "workers",
              "same jobs, same digests; the delta is RPC dispatch, "
              "stream framing, and network-shuffle cost");
  std::vector<BenchRecord> cluster_records;
  for (Workload& w : AllWorkloads(0.25)) {
    std::printf("\n[%s] %zu records, theta = %.2f\n", w.name.c_str(),
                w.corpus.NumRecords(), theta);
    TablePrinter table(
        {"runner", "workers", "wall (ms)", "shuffle", "results", "digest"});
    std::optional<uint32_t> reference_digest;
    for (int workers : {0, 1, 2, 4}) {
      FsJoinConfig config = DefaultFsConfig(theta);
      if (workers == 0) {
        config.exec.runner = mr::RunnerKind::kInline;
      } else {
        config.exec.runner = mr::RunnerKind::kCluster;
        config.exec.spawn_local_workers = workers;
      }
      std::optional<Result<FsJoinOutput>> result;
      double wall_micros = MinWallMicros(options, [&] {
        result.emplace(FsJoin(config).Run(w.corpus));
      });
      Result<FsJoinOutput>& out = *result;
      if (!out.ok()) {
        std::printf("FAIL: %s\n", out.status().ToString().c_str());
        continue;
      }
      const uint64_t shuffle = ShuffleBytes(out->report);
      const uint32_t digest = check::ResultDigest(out->pairs);
      if (!reference_digest) reference_digest = digest;
      const bool same = digest == *reference_digest;
      table.AddRow({workers == 0 ? "inline" : "cluster",
                    workers == 0 ? "-" : StrFormat("%d", workers),
                    StrFormat("%.0f", wall_micros / 1000.0),
                    HumanBytes(shuffle), WithThousandsSep(out->pairs.size()),
                    same ? StrFormat("%08x", digest)
                         : StrFormat("%08x MISMATCH!", digest)});

      BenchRecord record;
      record.name =
          workers == 0
              ? StrFormat("%s/inline", w.name.c_str())
              : StrFormat("%s/cluster%d", w.name.c_str(), workers);
      record.wall_micros = wall_micros;
      record.shuffle_bytes = shuffle;
      cluster_records.push_back(std::move(record));
    }
    table.Print(std::cout);
  }
  BenchOptions cluster_options = options;
  if (!options.json_path.empty()) {
    cluster_options.json_path = "BENCH_cluster.json";
  }
  WriteBenchJson(cluster_options, "cluster", cluster_records);

  // R-S two-collection joins: the same corpus split at three |R|:|S|
  // ratios. The quantity under test is the side-tagged fragment join's
  // cost shape — the probe x build pair space shrinks from n^2/2 toward
  // n_r * n_s, so the skewed ratios should be cheaper than 1:1 at equal
  // total input. Records into its own JSON (BENCH_rs.json).
  PrintBanner("Runtime — R-S two-collection joins by |R|:|S| ratio",
              "same merged corpus, boundary moved; probe x build pair "
              "space and wall time per ratio");
  std::vector<BenchRecord> rs_records;
  for (Workload& w : AllWorkloads(0.25)) {
    const uint64_t n = w.corpus.NumRecords();
    struct Ratio {
      const char* name;
      RecordId boundary;
    };
    const Ratio kRatios[] = {
        {"1:1", static_cast<RecordId>(n / 2)},
        {"1:10", static_cast<RecordId>(n / 11)},
        {"10:1", static_cast<RecordId>(n - n / 11)},
    };
    std::printf("\n[%s] %zu records, theta = %.2f\n", w.name.c_str(),
                w.corpus.NumRecords(), theta);
    TablePrinter table({"ratio", "wall (ms)", "shuffle", "candidates",
                        "results", "digest"});
    for (const Ratio& ratio : kRatios) {
      FsJoinConfig config = DefaultFsConfig(theta);
      config.rs_boundary = ratio.boundary;
      std::optional<Result<FsJoinOutput>> result;
      double wall_micros = MinWallMicros(options, [&] {
        result.emplace(FsJoin(config).Run(w.corpus));
      });
      Result<FsJoinOutput>& out = *result;
      if (!out.ok()) {
        std::printf("FAIL: %s\n", out.status().ToString().c_str());
        continue;
      }
      const uint64_t shuffle = ShuffleBytes(out->report);
      table.AddRow({ratio.name, StrFormat("%.0f", wall_micros / 1000.0),
                    HumanBytes(shuffle),
                    WithThousandsSep(out->report.candidate_pairs),
                    WithThousandsSep(out->pairs.size()),
                    StrFormat("%08x", check::ResultDigest(out->pairs))});

      BenchRecord record;
      record.name = StrFormat("%s/rs%s/mr", w.name.c_str(), ratio.name);
      record.wall_micros = wall_micros;
      record.shuffle_bytes = shuffle;
      rs_records.push_back(std::move(record));
    }
    table.Print(std::cout);
  }
  BenchOptions rs_options = options;
  if (!options.json_path.empty()) {
    rs_options.json_path = "BENCH_rs.json";
  }
  WriteBenchJson(rs_options, "rs", rs_records);
}

}  // namespace
}  // namespace fsjoin::bench

int main(int argc, char** argv) {
  // Subprocess-runner children re-exec this binary in --worker-task mode,
  // and the cluster runner spawns it in --worker-serve mode.
  if (const int code = fsjoin::mr::WorkerTaskMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  if (const int code = fsjoin::net::WorkerServeMainIfRequested(argc, argv);
      code >= 0) {
    return code;
  }
  fsjoin::bench::Run(
      fsjoin::bench::ParseBenchOptions("runtime", argc, argv));
  return 0;
}

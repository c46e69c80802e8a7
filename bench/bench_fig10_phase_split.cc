// Figure 10: filtering-phase vs verification-phase time as the number of
// horizontal partitions grows (per dataset, the paper uses different
// partition counts per corpus). Expected shapes: the filtering phase
// dominates end-to-end time (the filters leave verification little work),
// and more horizontal partitions shrink the dominant filtering phase. The
// paper's job 1, the token order, is a driver phase here (built from the
// dictionary's document frequencies), so its column is the measured wall of
// that build, not a simulated job.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace fsjoin::bench {
namespace {

void Run(const BenchOptions& options) {
  PrintBanner(
      "Figure 10 — filtering vs verification time by horizontal partitions",
      "filtering dominates; more horizontal partitions reduce it");

  std::vector<BenchRecord> records;
  const uint32_t partition_counts[] = {0, 4, 8, 16};
  for (Workload& w : AllWorkloads(1.0)) {
    std::printf("\n[%s] %zu records, theta = 0.8\n", w.name.c_str(),
                w.corpus.NumRecords());
    // Memory-constrained model: horizontal partitioning exists to keep
    // fragments inside reducer memory (§V-A). Budget = half the
    // unpartitioned max fragment (the paper's regime).
    mr::ClusterCostModel model;
    {
      Result<FsJoinOutput> probe = FsJoin(DefaultFsConfig(0.8)).Run(w.corpus);
      uint64_t max_fragment = 1;
      if (probe.ok()) {
        for (const mr::TaskMetrics& task :
             probe->report.filtering_job.reduce_tasks) {
          max_fragment = std::max(max_fragment, task.max_group_bytes);
        }
      }
      model.reduce_memory_bytes = max_fragment / 2;
    }
    TablePrinter table({"h-partitions", "order build (ms)",
                        "filter sim10 (ms)", "verify sim10 (ms)", "total (ms)",
                        "filter share"});
    for (uint32_t t : partition_counts) {
      FsJoinConfig config = DefaultFsConfig(0.8);
      config.num_horizontal_partitions = t;
      Result<FsJoinOutput> fs = Status::Internal("not run");
      const double wall_micros =
          MinWallMicros(options, [&] { fs = FsJoin(config).Run(w.corpus); });
      if (!fs.ok()) {
        std::printf("FAIL: %s\n", fs.status().ToString().c_str());
        continue;
      }
      double filter_ms =
          SimulatedMs({fs->report.filtering_job}, kDefaultNodes, model);
      double verify_ms =
          SimulatedMs({fs->report.verification_job}, kDefaultNodes, model);
      const double order_ms =
          fs->report.ordering_job.total_wall_micros / 1000.0;
      table.AddRow(
          {t == 0 ? "off" : std::to_string(t), StrFormat("%.2f", order_ms),
           StrFormat("%.0f", filter_ms),
           StrFormat("%.0f", verify_ms),
           StrFormat("%.0f", filter_ms + verify_ms),
           StrFormat("%.0f%%", 100.0 * filter_ms / (filter_ms + verify_ms))});
      BenchRecord record;
      record.name = w.name + "/h=" + (t == 0 ? "off" : std::to_string(t));
      record.wall_micros = wall_micros;
      record.shuffle_bytes = fs->report.filtering_job.shuffle_bytes +
                             fs->report.verification_job.shuffle_bytes;
      record.peak_group_bytes =
          std::max(MaxGroupBytes(fs->report.filtering_job),
                   MaxGroupBytes(fs->report.verification_job));
      record.simulated_ms = filter_ms + verify_ms;
      records.push_back(std::move(record));
    }
    table.Print(std::cout);
  }
  WriteBenchJson(options, "fig10_phase_split", records);
}

}  // namespace
}  // namespace fsjoin::bench

int main(int argc, char** argv) {
  fsjoin::bench::Run(
      fsjoin::bench::ParseBenchOptions("fig10_phase_split", argc, argv));
  return 0;
}

// Ablation: does the paper's Lemma 5 cost model predict reality? For a
// sweep of fragment counts we print the model's estimated cost next to the
// measured filtering-phase time; the model's *ordering* of configurations
// should match the measurements in the reduce-dominated regime.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/cost_model.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace fsjoin::bench {
namespace {

void Run() {
  PrintBanner("Ablation — Lemma 5 cost model vs measurement",
              "the model's quadratic-over-N reduce term tracks the "
              "measured loop-join filter phase");

  // The model prices the *loop join* (as the paper's appendix does), so
  // measure that variant; a modest sample keeps the quadratic affordable.
  Workload w = MakeWorkload("pubmed", 0.15);
  CorpusStats stats = ComputeStats(w.corpus);
  CostModelParams params;
  std::printf("workload: %zu pubmed-like records, theta = 0.8, loop join\n\n",
              w.corpus.NumRecords());

  TablePrinter table({"fragments", "model reduce cost", "model total",
                      "measured filter wall (ms)", "measured total (ms)"});
  for (uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    FsJoinConfig config = DefaultFsConfig(0.8);
    config.num_vertical_partitions = n;
    config.join_method = JoinMethod::kLoop;
    Result<FsJoinOutput> fs = FsJoin(config).Run(w.corpus);
    if (!fs.ok()) {
      std::printf("FAIL: %s\n", fs.status().ToString().c_str());
      continue;
    }
    CostEstimate estimate = EstimateFsJoinCost(stats, n, params);
    table.AddRow(
        {std::to_string(n), StrFormat("%.3g", estimate.reduce),
         StrFormat("%.3g", estimate.Total()),
         StrFormat("%.0f", static_cast<double>(
                               fs->report.filtering_job.reduce_wall_micros) /
                               1000.0),
         StrFormat("%.0f", fs->report.total_wall_ms)});
  }
  table.Print(std::cout);
  std::printf(
      "\nconfig sized by the paper's rules for this corpus on a "
      "10-worker/64MB cluster: "
      "%s\n",
      AutoTuneConfig(stats, 10, 64ull << 20, 0.8).Summary().c_str());
}

}  // namespace
}  // namespace fsjoin::bench

int main() {
  fsjoin::bench::Run();
  return 0;
}

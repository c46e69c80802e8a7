// Tuning tour: how FS-Join's knobs (pivot strategy, join method,
// horizontal partitioning, filters) change the cost profile on one
// workload, with both measured engine costs and simulated cluster time.
//
//   ./cluster_tuning [num_records]

#include <cstdio>
#include <iostream>

#include "core/fsjoin.h"
#include "mr/cluster_sim.h"
#include "text/generator.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

void RunOne(const fsjoin::Corpus& corpus, const std::string& label,
            fsjoin::FsJoinConfig config, fsjoin::TablePrinter* table) {
  fsjoin::Result<fsjoin::FsJoinOutput> result =
      fsjoin::FsJoin(config).Run(corpus);
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", label.c_str(),
                 result.status().ToString().c_str());
    return;
  }
  const fsjoin::FsJoinReport& rep = result->report;
  fsjoin::mr::ClusterCostModel model;
  fsjoin::mr::SimulatedJobTime sim =
      fsjoin::mr::SimulatePipeline(rep.JoinJobs(), 10, model);
  table->AddRow({
      label,
      fsjoin::StrFormat("%.0f", rep.total_wall_ms),
      fsjoin::StrFormat("%.0f", sim.total_ms),
      fsjoin::WithThousandsSep(rep.candidate_pairs),
      fsjoin::WithThousandsSep(rep.result_pairs),
      fsjoin::HumanBytes(rep.filtering_job.shuffle_bytes +
                         rep.verification_job.shuffle_bytes),
      fsjoin::StrFormat("%.2f", rep.filtering_job.ReduceSkew()),
  });
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  if (argc > 1) {
    // Up to 100x the generator's 20,000-record base corpus.
    fsjoin::Result<int64_t> records =
        fsjoin::ParseInt64(argv[1], 1, 2'000'000);
    if (!records.ok()) {
      std::fprintf(stderr, "bad num_records: %s\nusage: %s [num_records]\n",
                   records.status().message().c_str(), argv[0]);
      return 2;
    }
    scale = static_cast<double>(*records) / 20000.0;
  }
  fsjoin::Corpus corpus =
      fsjoin::GenerateCorpus(fsjoin::PubMedLikeConfig(scale));
  std::printf("workload: %zu pubmed-like records, theta = 0.8\n\n",
              corpus.NumRecords());

  fsjoin::FsJoinConfig base;
  base.theta = 0.8;
  base.num_vertical_partitions = 30;
  base.exec.num_map_tasks = 30;
  base.exec.num_reduce_tasks = 30;

  fsjoin::TablePrinter table({"configuration", "wall ms", "sim10 ms",
                              "candidates", "results", "shuffle",
                              "reduce skew"});

  RunOne(corpus, "default (prefix, even-tf, all filters)", base, &table);

  fsjoin::FsJoinConfig loop = base;
  loop.join_method = fsjoin::JoinMethod::kLoop;
  RunOne(corpus, "loop join", loop, &table);

  fsjoin::FsJoinConfig random_pivots = base;
  random_pivots.pivot_strategy = fsjoin::PivotStrategy::kRandom;
  RunOne(corpus, "random pivots", random_pivots, &table);

  fsjoin::FsJoinConfig no_filters = base;
  no_filters.use_segment_length_filter = false;
  no_filters.use_segment_intersection_filter = false;
  no_filters.use_segment_difference_filter = false;
  RunOne(corpus, "StrL filter only", no_filters, &table);

  fsjoin::FsJoinConfig horizontal = base;
  horizontal.num_horizontal_partitions = 20;
  RunOne(corpus, "with horizontal partitioning (t=20)", horizontal, &table);

  table.Print(std::cout);
  return 0;
}

// Table I: framework comparison — the qualitative table quantified. For
// each algorithm we measure the properties the paper tabulates: record
// duplication in the signature/partition job, reduce-side load balance,
// number of MapReduce jobs (the token order is built on the driver from
// the dictionary, so no algorithm counts an ordering job), and total
// shuffle volume.

#include <cstdio>
#include <iostream>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "bench_util.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace fsjoin::bench {
namespace {

void AddRow(TablePrinter* table, const std::string& name, size_t jobs,
            double duplication, double skew, uint64_t shuffle_bytes,
            uint64_t results) {
  table->AddRow({name, std::to_string(jobs), StrFormat("%.2fx", duplication),
                 StrFormat("%.2f", skew), HumanBytes(shuffle_bytes),
                 WithThousandsSep(results)});
}

double MaxReduceSkew(const std::vector<mr::JobMetrics>& jobs,
                     const std::string& from_stage) {
  double skew = 1.0;
  bool seen = from_stage.empty();
  for (const mr::JobMetrics& j : jobs) {
    if (!seen && j.job_name != from_stage) continue;
    seen = true;
    skew = std::max(skew, j.ReduceSkew());
  }
  return skew;
}

uint64_t TotalShuffle(const std::vector<mr::JobMetrics>& jobs) {
  uint64_t total = 0;
  for (const mr::JobMetrics& j : jobs) total += j.shuffle_bytes;
  return total;
}

void Run() {
  PrintBanner("Table I — framework comparison, quantified",
              "FS-Join: no signature duplication + load-balance guarantee; "
              "the baselines duplicate records and skew");

  const double theta = 0.8;
  Workload w = MakeWorkload("pubmed", 0.25);
  std::printf("workload: %zu pubmed-like records, theta = %.2f\n\n",
              w.corpus.NumRecords(), theta);

  TablePrinter table({"algorithm", "MR jobs", "record duplication",
                      "max reduce skew", "total shuffle", "results"});

  Result<FsJoinOutput> fs = FsJoin(DefaultFsConfig(theta)).Run(w.corpus);
  if (fs.ok()) {
    // FS-Join's map output is segments: record *bytes* are never copied,
    // so duplication is map-output bytes over input bytes.
    double dup =
        static_cast<double>(fs->report.filtering_job.map_output_bytes) /
        static_cast<double>(fs->report.filtering_job.map_input_bytes);
    AddRow(&table, "FS-Join", fs->report.JoinJobs().size(), dup,
           MaxReduceSkew(fs->report.JoinJobs(), "filtering"),
           TotalShuffle(fs->report.JoinJobs()), fs->report.result_pairs);
  }

  auto add_baseline = [&](Result<BaselineOutput> r, size_t input_records) {
    if (!r.ok()) return;
    const BaselineReport& rep = r->report;
    const mr::JobMetrics* sig = rep.SignatureJob();
    if (sig == nullptr) return;
    double dup = static_cast<double>(sig->map_output_bytes) /
                 static_cast<double>(sig->map_input_bytes);
    (void)input_records;
    AddRow(&table, rep.algorithm, rep.jobs.size(), dup,
           MaxReduceSkew(rep.jobs, rep.signature_stage),
           TotalShuffle(rep.jobs), rep.result_pairs);
  };
  add_baseline(RunVernicaJoin(w.corpus, DefaultBaselineConfig(theta)),
               w.corpus.NumRecords());
  MassJoinConfig mj;
  static_cast<BaselineConfig&>(mj) = DefaultBaselineConfig(theta);
  add_baseline(RunMassJoin(w.corpus, mj), w.corpus.NumRecords());
  add_baseline(RunVSmartJoin(w.corpus, DefaultBaselineConfig(theta)),
               w.corpus.NumRecords());

  table.Print(std::cout);
  std::printf(
      "\n(duplication = signature-job map-output bytes / input bytes; "
      "FS-Join emits each token exactly once per horizontal group)\n");
}

}  // namespace
}  // namespace fsjoin::bench

int main() {
  fsjoin::bench::Run();
  return 0;
}

// Figure 7: all four algorithms on the SMALL datasets (random samples of
// the large ones), where MassJoin and V-Smart-Join can complete. Expected
// shapes: FS-Join and RIDPairsPPJoin close to each other and well ahead of
// MassJoin-Merge; Merge+Light between; V-Smart worst on Email/Wiki and
// insensitive to theta.

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

void Run() {
  PrintBanner("Figure 7 — comparison with state-of-the-art (small datasets)",
              "FS-Join ~ RIDPairsPPJoin << MassJoin variants; V-Smart-Join "
              "worst and theta-insensitive");

  const double thetas[] = {0.75, 0.80, 0.85, 0.90, 0.95};
  for (Workload& w : AllWorkloads(0.1)) {  // paper: small random samples
    std::printf("\n[%s-small] %zu records\n", w.name.c_str(),
                w.corpus.NumRecords());
    TablePrinter table({"theta", "FS-Join", "PPJoin", "Merge", "Merge+Light",
                        "V-Smart", "(sim10 ms)"});
    for (double theta : thetas) {
      Result<FsJoinOutput> fs = FsJoin(DefaultFsConfig(theta)).Run(w.corpus);
      Result<BaselineOutput> pp =
          RunVernicaJoin(w.corpus, DefaultBaselineConfig(theta));
      MassJoinConfig merge_cfg;
      static_cast<BaselineConfig&>(merge_cfg) = DefaultBaselineConfig(theta);
      merge_cfg.length_group = 1;
      Result<BaselineOutput> merge = RunMassJoin(w.corpus, merge_cfg);
      MassJoinConfig light_cfg = merge_cfg;
      light_cfg.length_group = 8;
      Result<BaselineOutput> light = RunMassJoin(w.corpus, light_cfg);
      Result<BaselineOutput> vsmart =
          RunVSmartJoin(w.corpus, DefaultBaselineConfig(theta));

      // Every baseline job is a join job: the prefix-based baselines build
      // their token order on the driver, like FS-Join, so all columns cover
      // the same work.
      auto cell = [&](const Result<BaselineOutput>& r) {
        if (!r.ok()) return std::string("DNF");
        return StrFormat("%.0f", SimulatedMs(r->report.jobs, kDefaultNodes));
      };
      table.AddRow({StrFormat("%.2f", theta),
                    fs.ok() ? StrFormat("%.0f", SimulatedMs(
                                                    fs->report.JoinJobs(),
                                                    kDefaultNodes))
                            : "FAIL",
                    cell(pp), cell(merge), cell(light), cell(vsmart), ""});
    }
    table.Print(std::cout);
  }
}

}  // namespace
}  // namespace fsjoin::bench

int main() {
  fsjoin::bench::Run();
  return 0;
}

#include "check/runner.h"

#include <utility>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "core/fsjoin.h"

namespace fsjoin::check {

namespace {

RunOutcome FromBaseline(BaselineOutput output) {
  RunOutcome outcome;
  outcome.pairs = std::move(output.pairs);
  outcome.reported_result_pairs = output.report.result_pairs;
  if (!output.report.jobs.empty()) {
    outcome.final_reduce_output_records =
        output.report.jobs.back().reduce_output_records;
  } else {
    outcome.final_reduce_output_records = outcome.pairs.size();
  }
  outcome.jobs = std::move(output.report.jobs);
  return outcome;
}

}  // namespace

Result<RunOutcome> RunPoint(const Corpus& corpus, const LatticePoint& point) {
  switch (point.algorithm) {
    case Algorithm::kFsJoin: {
      FsJoinConfig config = point.fsjoin;
      config.rs_boundary = point.rs_boundary;
      config.collect_partial_overlaps = true;
      FSJOIN_ASSIGN_OR_RETURN(FsJoinOutput output,
                              FsJoin(config).Run(corpus));
      RunOutcome outcome;
      outcome.pairs = std::move(output.pairs);
      outcome.jobs = output.report.JoinJobs();
      outcome.has_filters = true;
      outcome.filters = output.report.filters;
      outcome.partials = std::move(output.partial_overlaps);
      outcome.candidate_pairs = output.report.candidate_pairs;
      outcome.reported_result_pairs = output.report.result_pairs;
      outcome.final_reduce_output_records =
          output.report.verification_job.reduce_output_records;
      return outcome;
    }
    case Algorithm::kVernica: {
      BaselineConfig config = point.baseline;
      config.rs_boundary = point.rs_boundary;
      FSJOIN_ASSIGN_OR_RETURN(BaselineOutput output,
                              RunVernicaJoin(corpus, config));
      return FromBaseline(std::move(output));
    }
    case Algorithm::kVSmart: {
      BaselineConfig config = point.baseline;
      config.rs_boundary = point.rs_boundary;
      FSJOIN_ASSIGN_OR_RETURN(BaselineOutput output,
                              RunVSmartJoin(corpus, config));
      return FromBaseline(std::move(output));
    }
    case Algorithm::kMassJoin: {
      MassJoinConfig config;
      static_cast<BaselineConfig&>(config) = point.baseline;
      config.rs_boundary = point.rs_boundary;
      config.length_group = point.massjoin_length_group;
      FSJOIN_ASSIGN_OR_RETURN(BaselineOutput output,
                              RunMassJoin(corpus, config));
      return FromBaseline(std::move(output));
    }
  }
  return Status::InvalidArgument("unknown algorithm");
}

}  // namespace fsjoin::check

#include "core/fsjoin.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "core/jobs.h"
#include "core/pivots.h"
#include "exec/backend.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace fsjoin {

std::vector<mr::JobMetrics> FsJoinReport::AllJobs() const {
  return {ordering_job, filtering_job, verification_job};
}

std::vector<mr::JobMetrics> FsJoinReport::JoinJobs() const {
  return {filtering_job, verification_job};
}

std::string FsJoinReport::Summary() const {
  std::ostringstream os;
  os << config.Summary() << "\n";
  os << StrFormat(
      "  pivots: %zu vertical, %zu horizontal | candidates: %s | results: "
      "%s\n",
      pivots.size(), length_pivots.size(),
      WithThousandsSep(candidate_pairs).c_str(),
      WithThousandsSep(result_pairs).c_str());
  os << StrFormat(
      "  filters: considered=%s role=%s strl=%s segl=%s segi=%s segd=%s "
      "empty=%s emitted=%s\n",
      WithThousandsSep(filters.pairs_considered).c_str(),
      WithThousandsSep(filters.pruned_role).c_str(),
      WithThousandsSep(filters.pruned_strl).c_str(),
      WithThousandsSep(filters.pruned_segl).c_str(),
      WithThousandsSep(filters.pruned_segi).c_str(),
      WithThousandsSep(filters.pruned_segd).c_str(),
      WithThousandsSep(filters.empty_overlap).c_str(),
      WithThousandsSep(filters.emitted).c_str());
  os << StrFormat(
      "  shuffle: filtering %s (dup %.2fx), verification %s | kernel %s | "
      "wall %.1f ms",
      HumanBytes(filtering_job.shuffle_bytes).c_str(),
      filtering_job.DuplicationFactor(),
      HumanBytes(verification_job.shuffle_bytes).c_str(),
      filtering_job.join_kernel.empty() ? "?"
                                        : filtering_job.join_kernel.c_str(),
      total_wall_ms);
  uint64_t spilled = 0;
  uint32_t runs = 0;
  for (const mr::JobMetrics& j : AllJobs()) {
    spilled += j.spilled_bytes;
    runs += j.spill_runs;
  }
  if (runs > 0) {
    os << StrFormat("\n  spill: %s in %u runs", HumanBytes(spilled).c_str(),
                    runs);
  }
  return os.str();
}

Result<FsJoinOutput> FsJoin::Run(const Corpus& corpus) const {
  FSJOIN_RETURN_NOT_OK(config_.Validate());
  WallTimer timer;
  // The backend and its runner are released inside RunJobs, so their
  // teardown (a cluster runner's worker shutdown) is inside the wall.
  FSJOIN_ASSIGN_OR_RETURN(FsJoinOutput output, RunJobs(corpus));
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

Result<FsJoinOutput> FsJoin::RunJobs(const Corpus& corpus) const {
  exec::MapReduceBackend backend(config_.exec);

  FsJoinOutput output;
  output.report.config = config_;

  mr::Dataset input = MakeCorpusDataset(corpus);

  // --- Job 1: ordering ----------------------------------------------------
  auto filtering_ctx = std::make_shared<FilteringContext>();
  filtering_ctx->config = config_;
  FSJOIN_ASSIGN_OR_RETURN(
      filtering_ctx->order,
      RunOrderingJob(&backend, input, corpus.dictionary.size()));
  output.report.ordering_job = backend.history().back();

  // --- Pivot selection (driver-side, like the paper's setup() phase) ----
  if (config_.exec.parallel_fragment_join) {
    // One pool for the whole run: morsels steal work across fragments, so
    // a skewed fragment is consumed by every worker. With num_threads == 0
    // ParallelFor runs inline (deterministic-debug mode).
    filtering_ctx->join_pool =
        std::make_unique<ThreadPool>(config_.exec.num_threads);
  }
  // Validate guarantees at least one fragment.
  filtering_ctx->pivots =
      SelectPivots(*filtering_ctx->order, config_.pivot_strategy,
                   config_.num_vertical_partitions - 1, config_.seed);
  if (config_.num_horizontal_partitions > 0) {
    // Record sizes are ordering-invariant, so length pivots come straight
    // from the corpus token counts — no OrderedRecord materialization.
    std::vector<uint32_t> lengths;
    lengths.reserve(corpus.records.size());
    for (const Record& rec : corpus.records) {
      lengths.push_back(static_cast<uint32_t>(rec.tokens.size()));
    }
    filtering_ctx->horizontal = HorizontalScheme(
        SelectLengthPivotsFromLengths(std::move(lengths),
                                      config_.num_horizontal_partitions,
                                      config_.function, config_.theta),
        config_.function, config_.theta);
  }
  output.report.pivots = filtering_ctx->pivots;
  output.report.length_pivots = filtering_ctx->horizontal.pivots();

  // --- Job 2: filtering ---------------------------------------------------
  // The input's last reader: it moves into a temporary, freed as soon as
  // the job returns.
  FSJOIN_ASSIGN_OR_RETURN(
      mr::Dataset partials,
      backend.Run(MakeFilteringJobConfig(filtering_ctx),
                  mr::Dataset(std::move(input))));
  output.report.filtering_job = backend.history().back();

  // --- Job 3: verification ------------------------------------------------
  auto verification_ctx = std::make_shared<VerificationContext>();
  verification_ctx->config = config_;
  FSJOIN_ASSIGN_OR_RETURN(
      mr::Dataset results,
      backend.Run(MakeVerificationJobConfig(verification_ctx),
                  mr::Dataset(std::move(partials))));
  output.report.verification_job = backend.history().back();
  FSJOIN_ASSIGN_OR_RETURN(output.pairs, DecodeJoinResults(results));

  // Self-describing A/B runs: record which kernel pipeline the filtering
  // reducers actually used, with the ISA the auto mode resolved to.
  output.report.filtering_job.join_kernel = StrFormat(
      "%s[%s]",
      exec::KernelModeName(exec::ResolveKernelMode(config_.exec.kernel)),
      SimdIsaName(DetectedSimdIsa()));
  output.report.filters = filtering_ctx->totals;
  output.report.candidate_pairs = verification_ctx->candidate_pairs;
  output.report.result_pairs = output.pairs.size();
  if (config_.collect_partial_overlaps) {
    output.partial_overlaps = std::move(filtering_ctx->captured_partials);
    // Reducer completion order depends on threading; sort canonically so the
    // capture is deterministic for a fixed corpus and config.
    std::sort(output.partial_overlaps.begin(), output.partial_overlaps.end(),
              [](const PartialOverlap& x, const PartialOverlap& y) {
                if (x.a != y.a) return x.a < y.a;
                if (x.b != y.b) return x.b < y.b;
                if (x.overlap != y.overlap) return x.overlap < y.overlap;
                if (x.size_a != y.size_a) return x.size_a < y.size_a;
                return x.size_b < y.size_b;
              });
  }
  return output;
}

Corpus MergeJoinInput(const JoinInput& input) {
  Corpus merged;
  merged.records.reserve(input.r.records.size() + input.s.records.size());
  // R's dictionary first, whole: the union mapping is the identity on R, so
  // probe-side token ids survive the merge unchanged even when the
  // vocabularies are disjoint. Frequencies are recounted over both sides.
  merged.dictionary = input.r.dictionary;
  merged.dictionary.ClearFrequencies();
  for (const Record& rec : input.r.records) {
    Record copy;
    copy.id = static_cast<RecordId>(merged.records.size());
    copy.tokens = rec.tokens;  // sorted unique by Corpus invariant
    for (TokenId t : copy.tokens) merged.dictionary.AddFrequency(t, 1);
    merged.records.push_back(std::move(copy));
  }
  // S tokens are interned at their first sight in this scan, so merged ids
  // follow S's record order, not its dictionary order.
  TokenRemap remap(input.s.dictionary, merged.dictionary);
  for (const Record& rec : input.s.records) {
    Record copy;
    copy.id = static_cast<RecordId>(merged.records.size());
    copy.tokens.reserve(rec.tokens.size());
    for (TokenId t : rec.tokens) copy.tokens.push_back(remap(t));
    std::sort(copy.tokens.begin(), copy.tokens.end());
    copy.tokens.erase(std::unique(copy.tokens.begin(), copy.tokens.end()),
                      copy.tokens.end());
    for (TokenId t : copy.tokens) merged.dictionary.AddFrequency(t, 1);
    merged.records.push_back(std::move(copy));
  }
  return merged;
}

Result<FsJoinOutput> FsJoin::Run(const JoinInput& input) const {
  FsJoinConfig config = config_;
  config.rs_boundary = static_cast<RecordId>(input.r.records.size());
  FSJOIN_RETURN_NOT_OK(config.Validate());
  // The wall covers the merge and the merged corpus's release too.
  WallTimer timer;
  FSJOIN_ASSIGN_OR_RETURN(
      FsJoinOutput output,
      FsJoin(std::move(config)).RunJobs(MergeJoinInput(input)));
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

Result<FsJoinOutput> FsJoinRS(const Corpus& r, const Corpus& s,
                              FsJoinConfig config) {
  return FsJoin(std::move(config)).Run(JoinInput{r, s});
}

}  // namespace fsjoin

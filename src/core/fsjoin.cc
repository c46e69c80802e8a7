#include "core/fsjoin.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/jobs.h"
#include "core/pivots.h"
#include "exec/backend.h"
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
      "  shuffle: filtering %s (dup %.2fx), verification %s | wall %.1f ms",
      HumanBytes(filtering_job.shuffle_bytes).c_str(),
      filtering_job.DuplicationFactor(),
      HumanBytes(verification_job.shuffle_bytes).c_str(), total_wall_ms);
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
  // The backend and its runner are released inside the lambda, so their
  // teardown (a cluster runner's worker shutdown) is inside the wall.
  FSJOIN_ASSIGN_OR_RETURN(FsJoinOutput output,
                          ([&]() -> Result<FsJoinOutput> {
                            exec::MapReduceBackend backend(config_.exec);
                            return RunJobs(corpus, backend);
                          }()));
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

Result<FsJoinOutput> FsJoin::RunJobs(const Corpus& corpus,
                                     exec::MapReduceBackend& backend) const {
  FsJoinOutput output;
  output.report.config = config_;

  mr::Dataset input = MakeCorpusDataset(corpus, backend.pool());

  // --- Global order (driver-side) ----------------------------------------
  // The dictionary already holds every token's document frequency, so the
  // order is a counting sort of those, not a job that counts them again
  // (DESIGN.md, documented deviations). The report keeps the build's wall
  // as its "ordering" row, with no tasks and no bytes.
  auto filtering_ctx = std::make_shared<FilteringContext>();
  filtering_ctx->config = config_;
  WallTimer order_timer;
  filtering_ctx->order =
      std::make_shared<const GlobalOrder>(GlobalOrder::FromCorpus(corpus));
  output.report.ordering_job.job_name = "ordering";
  output.report.ordering_job.total_wall_micros = order_timer.ElapsedMicros();

  // The reducers' own pool: a worker that runs out of fragments steals
  // morsels of a skewed one. Null (serial joins) off the thread runner.
  filtering_ctx->join_pool = backend.pool();

  // --- Pivot selection (driver-side, like the paper's setup() phase) ----
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

  // --- Job 1: filtering ---------------------------------------------------
  // The input's last reader: it moves into a temporary, freed as soon as
  // the job returns.
  FSJOIN_ASSIGN_OR_RETURN(
      mr::Dataset partials,
      backend.Run(MakeFilteringJobConfig(filtering_ctx),
                  mr::Dataset(std::move(input))));
  output.report.filtering_job = backend.history().back();

  // --- Job 2: verification ------------------------------------------------
  FSJOIN_ASSIGN_OR_RETURN(
      mr::Dataset results,
      backend.Run(MakeVerificationJobConfig(config_.function, config_.theta,
                                            config_.exec.num_map_tasks,
                                            config_.exec.num_reduce_tasks),
                  mr::Dataset(std::move(partials))));
  output.report.verification_job = backend.history().back();
  FSJOIN_ASSIGN_OR_RETURN(output.pairs, DecodeJoinResults(results));

  output.report.filters = filtering_ctx->totals;
  output.report.candidate_pairs =
      output.report.verification_job.reduce_input_groups;
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

Corpus MergeJoinInput(const JoinInput& input, ThreadPool* pool) {
  ThreadPool inline_pool(0);
  ThreadPool& workers = pool != nullptr ? *pool : inline_pool;
  const Corpus& r = input.r;
  const Corpus& s = input.s;
  const size_t num_r = r.records.size();
  const size_t num_s = s.records.size();
  const size_t s_vocab = s.dictionary.size();

  // First sight of every S token: the first S record that holds it.
  constexpr uint32_t kNone = ~uint32_t{0};  // no record, no merged id yet
  std::vector<uint32_t> first(s_vocab, kNone);
  workers.ParallelFor(num_s, kCorpusRecordGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const uint32_t rec = static_cast<uint32_t>(i);
      for (TokenId t : s.records[i].tokens) {
        std::atomic_ref<uint32_t> seen(first[t]);
        uint32_t cur = seen.load(std::memory_order_relaxed);
        while (rec < cur && !seen.compare_exchange_weak(
                                cur, rec, std::memory_order_relaxed)) {
        }
      }
    }
  });

  // Map every seen S token R knows to R's id (a read-only lookup); the
  // rest stay kNone in `ids` until they are appended below.
  std::vector<TokenId> ids(s_vocab, kNone);
  constexpr size_t kTokenGrain = 4096;
  workers.ParallelFor(s_vocab, kTokenGrain, [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      if (first[t] == kNone) continue;
      if (std::optional<TokenId> id =
              r.dictionary.Find(s.dictionary.TokenString(t))) {
        ids[t] = *id;
      }
    }
  });

  // New tokens in first-sight order, (first record, S id): a counting sort
  // by first record over the ids in ascending order.
  std::vector<uint32_t> bucket(num_s + 1, 0);
  for (size_t t = 0; t < s_vocab; ++t) {
    if (first[t] != kNone && ids[t] == kNone) ++bucket[first[t] + 1];
  }
  for (size_t i = 0; i < num_s; ++i) bucket[i + 1] += bucket[i];
  std::vector<TokenId> fresh(bucket[num_s]);
  for (size_t t = 0; t < s_vocab; ++t) {
    if (first[t] != kNone && ids[t] == kNone) {
      fresh[bucket[first[t]]++] = static_cast<TokenId>(t);
    }
  }

  // R's dictionary first, whole: the union mapping is the identity on R, so
  // probe-side token ids survive the merge unchanged even when the
  // vocabularies are disjoint. Both sides' dictionaries hold document
  // frequencies, so the union's are their sums: R's as they are, S's added
  // once per shared token and carried over for fresh ones, with no pass
  // over the records.
  Corpus merged;
  merged.dictionary = r.dictionary;
  const TokenId base = static_cast<TokenId>(merged.dictionary.size());
  for (size_t t = 0; t < s_vocab; ++t) {
    if (ids[t] == kNone) continue;
    const uint64_t f = s.dictionary.Frequency(static_cast<TokenId>(t));
    merged.dictionary.AddFrequency(ids[t], f);
  }
  for (size_t i = 0; i < fresh.size(); ++i) {
    ids[fresh[i]] = base + static_cast<TokenId>(i);
  }
  merged.dictionary.AppendDistinct(
      fresh.size(),
      [&](size_t i) { return s.dictionary.TokenString(fresh[i]); },
      [&](size_t i) { return s.dictionary.Frequency(fresh[i]); }, workers);

  // R records are copied as they are; S records are remapped and re-sorted
  // (the map is one-to-one, so no duplicate arises) with ids offset by |R|.
  merged.records.resize(num_r + num_s);
  workers.ParallelFor(num_r + num_s, kCorpusRecordGrain,
                      [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Record& copy = merged.records[i];
      copy.id = static_cast<RecordId>(i);
      if (i < num_r) {
        copy.tokens = r.records[i].tokens;  // sorted unique by invariant
        continue;
      }
      const std::vector<TokenId>& tokens = s.records[i - num_r].tokens;
      copy.tokens.resize(tokens.size());
      for (size_t k = 0; k < tokens.size(); ++k) {
        copy.tokens[k] = ids[tokens[k]];
      }
      std::sort(copy.tokens.begin(), copy.tokens.end());
    }
  });
  return merged;
}

Result<FsJoinOutput> FsJoin::Run(const JoinInput& input) const {
  FsJoinConfig config = config_;
  config.rs_boundary = static_cast<RecordId>(input.r.records.size());
  FSJOIN_RETURN_NOT_OK(config.Validate());
  const FsJoin join(std::move(config));
  // The wall covers the merge, the merged corpus's release and the
  // backend's teardown too.
  WallTimer timer;
  FSJOIN_ASSIGN_OR_RETURN(
      FsJoinOutput output, ([&]() -> Result<FsJoinOutput> {
        exec::MapReduceBackend backend(join.config_.exec);
        // The merge runs on the runner's pool before the first job.
        return join.RunJobs(MergeJoinInput(input, backend.pool()), backend);
      }()));
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

Result<FsJoinOutput> FsJoinRS(const Corpus& r, const Corpus& s,
                              FsJoinConfig config) {
  return FsJoin(std::move(config)).Run(JoinInput{r, s});
}

}  // namespace fsjoin

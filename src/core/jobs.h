#ifndef FSJOIN_CORE_JOBS_H_
#define FSJOIN_CORE_JOBS_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/fragment_join.h"
#include "core/fsjoin_config.h"
#include "core/horizontal.h"
#include "exec/backend.h"
#include "mr/job.h"
#include "mr/kv.h"
#include "sim/global_order.h"
#include "sim/join_result.h"
#include "text/corpus.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fsjoin {

/// ---- Corpus <-> MR dataset ------------------------------------------
/// Input records: key = Fixed32BE(rid), value = varint-coded token vector.

/// Serializes a corpus into the engine's input dataset.
mr::Dataset MakeCorpusDataset(const Corpus& corpus);

/// Parses one input record.
Status DecodeCorpusRecord(const mr::KeyValue& kv, RecordId* rid,
                          std::vector<TokenId>* tokens);

/// ---- Job 1: ordering (token frequency) -------------------------------
/// map:    (rid, tokens) -> one stripe record per non-empty 4096-id stripe
///         of the task's dense per-token counters
/// reduce: sum a stripe's counts -> one summed stripe
///
/// A stripe record's key is the stripe index as Fixed32BE; its value is a
/// varint entry count, then one (id delta, count) varint pair per entry in
/// ascending id order. The first delta is taken from the stripe's first id,
/// each later one from the previous entry's id, so ids strictly ascend.

/// Token ids per ordering stripe record.
inline constexpr uint32_t kOrderingStripeWidth = 4096;

/// One decoded stripe entry: a token id and its (partial) set frequency.
struct StripeEntry {
  TokenId id = 0;
  uint64_t count = 0;

  bool operator==(const StripeEntry&) const = default;
};

/// Encodes one stripe record. `entries` must ascend strictly by id and lie
/// inside the stripe.
void EncodeOrderingStripe(uint32_t stripe,
                          const std::vector<StripeEntry>& entries,
                          std::string* key, std::string* value);

/// Decodes one stripe record into its index and `entries` (cleared first).
/// A malformed key, a truncated value, trailing bytes, ids that do not
/// ascend or leave the stripe and ids at or above `vocab_size` are each a
/// non-OK Status.
Status DecodeOrderingStripe(std::string_view key, std::string_view value,
                            size_t vocab_size, uint32_t* stripe,
                            std::vector<StripeEntry>* entries);

/// Job config of the ordering job. `vocab_size` bounds the token ids and
/// travels in the task payload, so re-execed and cluster workers get it.
mr::JobConfig MakeOrderingJobConfig(uint32_t num_map_tasks,
                                    uint32_t num_reduce_tasks,
                                    size_t vocab_size);

/// Builds the global ordering from the ordering job's output. `vocab_size`
/// is the dictionary size (tokens with no output record get frequency 0).
Result<GlobalOrder> BuildGlobalOrderFromJobOutput(const mr::Dataset& output,
                                                  size_t vocab_size);

/// Runs the ordering job over `input` on `backend` (task counts from its
/// config) and builds the global ordering from the job's output. The job's
/// metrics land in backend->history().
Result<std::shared_ptr<const GlobalOrder>> RunOrderingJob(
    exec::MapReduceBackend* backend, const mr::Dataset& input,
    size_t vocab_size);

/// ---- Job 2: filtering (vertical partition + fragment join) ----------
/// map:    (rid, tokens) -> ((h, v), segment) per horizontal group h and
///         non-empty vertical segment v  — duplicate-free in v.
/// reduce: fragment join -> ((rid_a, rid_b), (overlap, |a|, |b|))

/// Read-only state shared by all filtering tasks (the paper distributes the
/// ordering and pivots via Hadoop's distributed cache; we share memory) plus
/// mutex-guarded filter counters aggregated across reducers.
struct FilteringContext {
  FsJoinConfig config;
  std::shared_ptr<const GlobalOrder> order;
  std::vector<TokenRank> pivots;
  HorizontalScheme horizontal;

  /// Morsel pool for parallel fragment joins, shared by every filtering
  /// reducer of the run so morsels steal work across fragments (created by
  /// the driver when config.exec.parallel_fragment_join is set; null =
  /// serial joins).
  std::unique_ptr<ThreadPool> join_pool;

  std::mutex mu;
  FilterCounters totals;
  /// Capture sink for config.collect_partial_overlaps (mu-guarded; order is
  /// arbitrary — the driver sorts canonically before handing it out).
  std::vector<PartialOverlap> captured_partials;
};

mr::JobConfig MakeFilteringJobConfig(
    const std::shared_ptr<FilteringContext>& context);

/// Routes (h, v) fragment keys to reducers round-robin so fragment loads
/// are directly visible as per-reducer input sizes.
class FragmentPartitioner : public mr::Partitioner {
 public:
  explicit FragmentPartitioner(uint32_t num_vertical)
      : num_vertical_(num_vertical) {}
  uint32_t Partition(std::string_view key,
                     uint32_t num_partitions) const override;

 private:
  uint32_t num_vertical_;
};

/// ---- Job 3: verification (overlap aggregation) -----------------------
/// map:    identity
/// reduce: sum partial overlaps; emit (pair, similarity) when >= theta.

/// Passes every record through unchanged (the verification job's map; the
/// MassJoin verify job reuses it).
class IdentityMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    out->Emit(record.key, record.value);
    return Status::OK();
  }
};

/// Shared verification counters.
struct VerificationContext {
  FsJoinConfig config;
  std::mutex mu;
  uint64_t candidate_pairs = 0;  ///< distinct pairs aggregated
};

mr::JobConfig MakeVerificationJobConfig(
    const std::shared_ptr<VerificationContext>& context);

/// Parses the verification job's output into join results.
Result<JoinResultSet> DecodeJoinResults(const mr::Dataset& output);

/// Encodes one partial overlap the way the filtering reducer does (exposed
/// for the baselines, which reuse the verification job).
void EncodePartialOverlap(const PartialOverlap& partial, std::string* key,
                          std::string* value);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_JOBS_H_

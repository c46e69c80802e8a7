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

/// Records per chunk when a join encodes or merges a corpus on the run's
/// pool. A corpus of at most this many records (a 256-record window) runs
/// inline on the calling thread and pays no fork-join.
inline constexpr size_t kCorpusRecordGrain = 1024;

/// Serializes a corpus into the engine's input dataset, in chunks of
/// kCorpusRecordGrain records on `pool` (null = inline on the caller).
mr::Dataset MakeCorpusDataset(const Corpus& corpus,
                              ThreadPool* pool = nullptr);

/// Parses one input record.
Status DecodeCorpusRecord(const mr::KeyValue& kv, RecordId* rid,
                          std::vector<TokenId>* tokens);

/// ---- Filtering job (vertical partition + fragment join) ----------
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

  /// Fragment of every rank of `order` along `pivots` (FragmentTable), so
  /// the mapper splits a record with one lookup per token instead of a
  /// binary search. MakeFilteringJobConfig builds it; 4 bytes per token,
  /// 1.24 MB on a 310k-token vocabulary.
  std::vector<uint32_t> fragment_of_rank;

  /// Morsel pool for the fragment joins: the thread-pool runner's own
  /// pool, on which the filtering reducers themselves run, so a worker that
  /// finishes its fragments steals morsels of a straggler. Borrowed from
  /// the backend (MapReduceBackend::pool); null = serial joins, as on the
  /// inline, subprocess and cluster runners.
  ThreadPool* join_pool = nullptr;

  std::mutex mu;
  FilterCounters totals;
  /// Capture sink for config.collect_partial_overlaps (mu-guarded; order is
  /// arbitrary — the driver sorts canonically before handing it out).
  std::vector<PartialOverlap> captured_partials;
};

/// Job config of the filtering job. Builds context->fragment_of_rank from
/// the context's order and pivots first.
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

/// ---- Verification job (overlap aggregation) ---------------------------
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

/// Job config of the verification job. Its operators depend only on the
/// similarity function and theta, which travel in the task payload of the
/// registered "core.verification" factory, so its tasks also run in
/// re-execed worker processes and on cluster workers. Each reduce group is
/// one candidate pair: the job's JobMetrics::reduce_input_groups counts
/// them.
mr::JobConfig MakeVerificationJobConfig(SimilarityFunction function,
                                        double theta, uint32_t num_map_tasks,
                                        uint32_t num_reduce_tasks);

/// Parses the verification job's output into join results.
Result<JoinResultSet> DecodeJoinResults(const mr::Dataset& output);

/// Encodes one partial overlap the way the filtering reducer does (exposed
/// for the baselines, which reuse the verification job).
void EncodePartialOverlap(const PartialOverlap& partial, std::string* key,
                          std::string* value);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_JOBS_H_

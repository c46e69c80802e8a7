#ifndef FSJOIN_MR_SHUFFLE_H_
#define FSJOIN_MR_SHUFFLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mr/job.h"
#include "mr/kv.h"
#include "mr/metrics.h"
#include "store/memory_budget.h"
#include "store/record_stream.h"
#include "util/status.h"

namespace fsjoin::mr {

/// The shuffle data plane: arena-backed record batches sorted by a
/// fixed-width key tag and reduced through windows over the sorted arena
/// (see DESIGN.md "Shuffle data layout"). With spilling enabled the shard
/// writes key-sorted run files once a MemoryBudget trips and the reduce
/// side streams a k-way merge instead (DESIGN.md §5e).

/// First 8 key bytes as a big-endian integer, zero-padded for shorter keys.
/// Comparing tags equals comparing the keys' first 8 bytes bytewise, so a
/// sort on (tag, full-key-on-tie) orders keys exactly like bytewise
/// comparison — and every FS-Join key is a 4- or 8-byte big-endian prefix,
/// so ties beyond the tag are almost always true key equality.
uint64_t KeyTag(std::string_view key);

/// Everything shuffled to one reduce task: the arenas moved from each map
/// task plus a sort index of (tag, key length, buffer, entry) references.
/// Sorting moves small references and compares integers; record bytes never
/// move, and keys at most 8 bytes long (every core FS-Join key) are ordered
/// without touching the arena at all.
///
/// External shuffle: after EnableSpill(), every AddBuffer() charges the
/// buffer's payload bytes against the budget; when a charge reports
/// over-budget the shard sorts what it holds and writes it to a run file,
/// freeing the arenas. Because each run is written in key order and runs
/// are numbered in buffer-arrival order, a k-way merge that breaks key
/// ties on run index reproduces exactly the order SortByKey() would have
/// produced in memory.
class ShuffleShard {
 public:
  ShuffleShard() = default;
  ShuffleShard(ShuffleShard&& other) noexcept;
  ShuffleShard& operator=(ShuffleShard&& other) noexcept;
  ShuffleShard(const ShuffleShard&) = delete;
  ShuffleShard& operator=(const ShuffleShard&) = delete;
  ~ShuffleShard();

  /// Arms spill-to-disk: arena payload bytes are charged to `budget` as
  /// buffers arrive and runs are written into `dir` (named
  /// "<file_prefix>-run<N>.run") whenever a charge trips. Must be called
  /// before the first AddBuffer().
  void EnableSpill(store::MemoryBudget* budget, std::string dir,
                   std::string file_prefix);

  /// Takes ownership of one map task's partition buffer. Empty buffers are
  /// dropped. Must not be called after SortByKey(). Only spill-path I/O
  /// can fail; without EnableSpill() the status is always OK.
  Status AddBuffer(KvBuffer buffer);

  /// With at least one run on disk and records still in memory, spills the
  /// remainder so the shard's records live entirely in key-sorted runs
  /// (the remainder holds the newest arrivals, so it becomes the
  /// highest-numbered run and the merge tie-break keeps arrival order).
  /// No-op for purely in-memory shards. Call after the last AddBuffer().
  Status Seal();

  /// Total records added, in memory or spilled.
  size_t NumRecords() const { return total_records_; }
  /// Total key+value bytes added, in memory or spilled.
  uint64_t PayloadBytes() const { return payload_bytes_; }

  /// True once any run has been written; the reduce side must then merge
  /// run_paths() instead of indexing records.
  bool spilled() const { return !run_paths_.empty(); }
  const std::vector<std::string>& run_paths() const { return run_paths_; }
  /// Key+value bytes written to run files / number of runs.
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  uint32_t spill_runs() const {
    return static_cast<uint32_t>(run_paths_.size());
  }

  /// Sorts the index by key (bytewise order). Ties on equal keys keep
  /// buffer-arrival then append order — the same order the seed engine's
  /// stable_sort over concatenated buffers produced.
  void SortByKey();

  /// Key/value of the i-th record in index order (sorted after SortByKey).
  /// Only valid for records still in memory, i.e. for any i only when
  /// !spilled().
  std::string_view key(size_t i) const {
    const Ref& r = refs_[i];
    return buffers_[r.buffer].key(r.index);
  }
  std::string_view value(size_t i) const {
    const Ref& r = refs_[i];
    return buffers_[r.buffer].value(r.index);
  }
  uint64_t RecordBytes(size_t i) const {
    const Ref& r = refs_[i];
    return buffers_[r.buffer].RecordBytes(r.index);
  }

  /// The underlying arenas (for tests asserting zero-copy).
  const std::vector<KvBuffer>& buffers() const { return buffers_; }

 private:
  struct Ref {
    uint64_t tag;
    uint32_t buffer;
    uint32_t index;
    uint32_t key_len;
  };

  bool RefLess(const Ref& a, const Ref& b) const;

  /// Sorts the in-memory records, writes them as the next run file and
  /// releases their arenas and budget charge.
  Status SpillNow();

  std::vector<KvBuffer> buffers_;
  std::vector<Ref> refs_;
  uint64_t payload_bytes_ = 0;
  uint64_t total_records_ = 0;

  store::MemoryBudget* budget_ = nullptr;
  std::string spill_dir_;
  std::string spill_prefix_;
  std::vector<std::string> run_paths_;
  uint64_t live_bytes_ = 0;  // payload bytes currently charged to budget_
  uint64_t spilled_bytes_ = 0;
};

/// Runs `reducer` over the key groups of a sorted shard. Values are
/// string_views into the shard's arenas — zero per-value copies. When
/// `metrics` is non-null, raises its max_group_bytes to the largest group's
/// key+value byte size and adds the groups to its input_groups.
/// A spilled shard is reduced by streaming a loser-tree merge of its run
/// files instead; the reducer cannot tell the difference.
Status ReduceShard(Reducer* reducer, const ShuffleShard& shard, Emitter* out,
                   TaskMetrics* metrics = nullptr);

/// Runs `reducer` over the key groups of an already-merged sorted record
/// stream (run-file merge or any other RecordStream). Group values are
/// accumulated in one arena per group, so the Reduce() call sees the same
/// zero-copy span-of-views API as the in-memory path.
Status ReduceMergedStream(Reducer* reducer, store::RecordStream* stream,
                          Emitter* out, TaskMetrics* metrics = nullptr);

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_SHUFFLE_H_

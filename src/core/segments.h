#ifndef FSJOIN_CORE_SEGMENTS_H_
#define FSJOIN_CORE_SEGMENTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/global_order.h"
#include "util/status.h"

namespace fsjoin {

/// One segment of a record inside a fragment, together with the side
/// information the segment-aware filters need (§V-A): the full string
/// length |s|, the number of tokens before the segment |s^h| and after it
/// |s^e| (derived), and the segment tokens themselves (sorted ranks).
struct SegmentRecord {
  RecordId rid = 0;
  uint32_t record_size = 0;  ///< |s|
  uint32_t head = 0;         ///< |s^h|
  std::vector<TokenRank> tokens;

  /// |s^e| = |s| - |s^h| - |segment|.
  uint32_t Tail() const {
    return record_size - head - static_cast<uint32_t>(tokens.size());
  }
};

/// Non-owning view of one segment — the common currency of the filters and
/// join kernels, cheap enough to build per candidate pair. Backed either by
/// a SegmentRecord or by one row of a SegmentBatch.
struct SegmentView {
  RecordId rid = 0;
  uint32_t record_size = 0;   ///< |s|
  uint32_t head = 0;          ///< |s^h|
  const TokenRank* tokens = nullptr;
  uint32_t num_tokens = 0;

  /// |s^e| = |s| - |s^h| - |segment|.
  uint32_t Tail() const { return record_size - head - num_tokens; }
};

inline SegmentView ViewOf(const SegmentRecord& record) {
  return SegmentView{record.rid, record.record_size, record.head,
                     record.tokens.data(),
                     static_cast<uint32_t>(record.tokens.size())};
}

/// Columnar storage for all segments of one fragment: a single flat token
/// arena plus per-segment offset/rid/size/head columns. Built once per
/// fragment from the shuffled rows, then joined in place — the join kernels
/// index rows instead of chasing one heap-allocated token vector per
/// segment (see DESIGN.md §5d).
///
/// Seal() finalizes the batch: it precomputes a 64-bit word-packed bucket
/// bitmap per segment (sim/set_ops.h) under a fragment-local (base, shift)
/// mapping, enabling the one-AND empty-overlap reject in the join kernel.
class SegmentBatch {
 public:
  SegmentBatch() { offsets_.push_back(0); }

  /// Pre-sizes the columns (`num_tokens` counts tokens across segments).
  void Reserve(size_t num_segments, size_t num_tokens);

  /// Appends one segment; `tokens` must be sorted ascending.
  void Append(RecordId rid, uint32_t record_size, uint32_t head,
              const TokenRank* tokens, size_t num_tokens);
  void Append(const SegmentRecord& record);

  /// Decodes an EncodeSegment payload straight into the arena — the
  /// shuffle-value fast path with no per-segment token vector. On any
  /// error the batch is left as it was before the call.
  Status AppendEncoded(std::string_view data);

  /// Finalizes the batch: computes the per-segment bucket bitmaps. Must be
  /// called before joining; appending afterwards unseals the batch.
  void Seal();
  bool sealed() const { return sealed_; }

  uint32_t size() const { return static_cast<uint32_t>(rids_.size()); }
  bool empty() const { return rids_.empty(); }
  size_t total_tokens() const { return arena_.size(); }

  RecordId rid(uint32_t i) const { return rids_[i]; }
  uint32_t record_size(uint32_t i) const { return record_sizes_[i]; }
  uint32_t head(uint32_t i) const { return heads_[i]; }
  uint32_t length(uint32_t i) const {
    return static_cast<uint32_t>(offsets_[i + 1] - offsets_[i]);
  }
  uint32_t Tail(uint32_t i) const {
    return record_sizes_[i] - heads_[i] - length(i);
  }
  const TokenRank* tokens(uint32_t i) const {
    return arena_.data() + offsets_[i];
  }
  /// Word-packed bucket bitmap of segment i (valid once sealed).
  uint64_t bitmap(uint32_t i) const { return bitmaps_[i]; }

  SegmentView View(uint32_t i) const {
    return SegmentView{rids_[i], record_sizes_[i], heads_[i], tokens(i),
                       length(i)};
  }

  /// R-S joins: tags every row with its side (probe R = rid < boundary,
  /// build S = rid >= boundary) and caches the two row-index lists the
  /// side-aware join loops iterate — probes never meet probes, builds never
  /// meet builds, so no same-side pair is ever formed. Call after Seal();
  /// appending afterwards clears the tagging along with the seal.
  void TagSides(RecordId boundary);
  bool side_tagged() const { return side_tagged_; }
  /// True iff row i is on the probe (R) side. Valid once side-tagged.
  bool is_probe(uint32_t i) const { return probe_side_[i] != 0; }
  const std::vector<uint32_t>& probe_rows() const { return probe_rows_; }
  const std::vector<uint32_t>& build_rows() const { return build_rows_; }

  /// Builds and seals a batch from row-oriented segments.
  static SegmentBatch FromRecords(const std::vector<SegmentRecord>& records);

 private:
  std::vector<TokenRank> arena_;  ///< all segment tokens, back to back
  std::vector<uint64_t> offsets_;  ///< arena offsets, size() + 1 entries
  std::vector<RecordId> rids_;
  std::vector<uint32_t> record_sizes_;
  std::vector<uint32_t> heads_;
  std::vector<uint64_t> bitmaps_;  ///< filled by Seal()
  // Side columns, filled by TagSides() for R-S fragments; empty on
  // self-join batches (the side machinery costs nothing unless asked for).
  std::vector<uint8_t> probe_side_;
  std::vector<uint32_t> probe_rows_;
  std::vector<uint32_t> build_rows_;
  bool sealed_ = false;
  bool side_tagged_ = false;
};

/// One non-empty segment of a split record: its fragment id and its run
/// [begin, end) in SegmentSplitter::ranks(). `begin` is also the segment's
/// head |s^h|, since the runs tile the record in ascending rank order.
struct SegmentRun {
  uint32_t fragment = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Splits a record's ranks along the pivot boundaries: segment `v` spans
/// ranks [pivots[v-1], pivots[v]). One counting pass finds each rank's
/// fragment, a scatter groups the ranks by fragment, and each group is
/// sorted on its own, so a record costs F small sorts instead of one full
/// sort. The buffers are reused across calls: after warm-up a split
/// allocates nothing. This is the one split routine; the filtering mapper
/// calls it per record with a FragmentTable and SplitIntoSegments wraps its
/// result.
class SegmentSplitter {
 public:
  /// Splits `ranks` (any order, no repeats) along `pivots`, finding each
  /// rank's fragment by binary search over the pivots (O(log F)).
  void Split(const TokenRank* ranks, size_t n,
             const std::vector<TokenRank>& pivots);

  /// As above, with each rank's fragment read from `fragment_of_rank`
  /// (FragmentTable's layout) in O(1). Every rank must index the table, and
  /// no entry may reach `num_fragments`.
  void Split(const TokenRank* ranks, size_t n,
             const uint32_t* fragment_of_rank, uint32_t num_fragments);

  /// The record's ranks in ascending order: the runs, back to back.
  const std::vector<TokenRank>& ranks() const { return ranks_; }
  /// The non-empty segments in ascending fragment order.
  const std::vector<SegmentRun>& runs() const { return runs_; }

 private:
  template <typename FragmentOf>
  void SplitBy(const TokenRank* ranks, size_t n, uint32_t num_fragments,
               FragmentOf fragment_of);

  std::vector<TokenRank> ranks_;
  std::vector<SegmentRun> runs_;
  std::vector<uint32_t> fragment_of_;  ///< per input rank
  std::vector<uint32_t> counts_;       ///< per fragment; all 0 between calls
};

/// The fragment of every rank below `num_ranks` along `pivots` (sorted
/// ascending): entry r is SegmentOfRank(pivots, r). One linear sweep of the
/// ranks beside the pivots; 4 bytes per rank.
std::vector<uint32_t> FragmentTable(const std::vector<TokenRank>& pivots,
                                    size_t num_ranks);

/// A record's split into segments, one SegmentRecord per non-empty segment
/// (tests and benches; the mapper uses SegmentSplitter directly).
struct SegmentSplit {
  /// Parallel arrays: fragment id of each emitted segment.
  std::vector<uint32_t> fragment_ids;
  std::vector<SegmentRecord> segments;
};

/// Splits an ordered record (tokens sorted ascending by rank) along the
/// pivot boundaries. The union of emitted segments is exactly the record,
/// segments are pairwise disjoint, and head counts are consistent — the
/// duplicate-free property at the heart of FS-Join.
SegmentSplit SplitIntoSegments(const OrderedRecord& record,
                               const std::vector<TokenRank>& pivots);

/// Serializes a segment into an MR value: the header varints rid,
/// record_size, head and token count, then the tokens as an ascending-gap
/// run (the first rank, then each later rank's strictly positive gap).
/// The tokens must ascend strictly.
void EncodeSegment(const SegmentView& segment, std::string* out);
void EncodeSegment(const SegmentRecord& segment, std::string* out);

/// Parses a value produced by EncodeSegment. A truncated value, a varint
/// wider than 32 bits, a zero gap, a rank past 2^32 - 1 and trailing bytes
/// are each an error.
Status DecodeSegment(std::string_view data, SegmentRecord* segment);

/// Number of tokens an EncodeSegment payload holds, read from its header
/// alone; 0 when the header is malformed or claims more tokens than the
/// payload has bytes (SegmentBatch::AppendEncoded then reports the error).
/// Summed over a fragment's values it sizes SegmentBatch::Reserve.
uint64_t EncodedSegmentTokens(std::string_view data);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_SEGMENTS_H_

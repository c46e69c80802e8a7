#ifndef FSJOIN_CORE_SEGMENTS_H_
#define FSJOIN_CORE_SEGMENTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/global_order.h"
#include "sim/set_ops.h"
#include "util/status.h"

namespace fsjoin {

/// Physical representation Seal() picks per segment, Roaring-style. The
/// sorted token array is ALWAYS kept in the arena (filters, encoding and the
/// scalar kernels read it regardless); kBitset/kRuns additionally
/// materialize the alternate form so the join can dispatch the cheapest
/// (container x container) kernel. Bitsets live on the absolute 64-bit word
/// grid (word w covers ranks [64w, 64w + 64)), so bitsets from different
/// batches — the two sides of a fragment join — always agree on alignment.
enum class SegContainer : uint8_t {
  kArray,   ///< sorted rank array (the arena window) — always available
  kBitset,  ///< dense: word-grid bitset, popcount intersection
  kRuns,    ///< clustered: maximal consecutive-rank runs, interval merge
};

const char* SegContainerName(SegContainer c);

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
/// mapping, enabling the one-AND empty-overlap reject in the join kernels,
/// and classifies each segment into a physical container (SegContainer
/// above) for the (container x container) kernel dispatch.
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
  /// shuffle-value fast path with no per-segment token vector.
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

  /// Physical container Seal() chose for segment i (valid once sealed).
  /// Dense segments (few grid words per token) become kBitset, clustered
  /// ones (few runs per token) kRuns, everything else stays kArray.
  SegContainer container(uint32_t i) const { return containers_[i]; }

  /// Bitset window of a kBitset segment on the absolute word grid: word w of
  /// the window is grid word bitset_word0(i) + w.
  const uint64_t* bitset_words(uint32_t i) const {
    return bitset_arena_.data() + bitset_offsets_[i];
  }
  uint32_t bitset_word0(uint32_t i) const { return bitset_word0_[i]; }
  uint32_t bitset_num_words(uint32_t i) const { return bitset_num_words_[i]; }

  /// Run list of a kRuns segment.
  const TokenRun* runs(uint32_t i) const {
    return runs_arena_.data() + run_offsets_[i];
  }
  uint32_t num_runs(uint32_t i) const { return run_counts_[i]; }

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
  // Container columns, filled by Seal(). The bitset/run arenas are shared
  // across segments; the per-segment offset columns carve out windows. For
  // segments of another container kind the columns hold zeros.
  std::vector<SegContainer> containers_;
  std::vector<uint64_t> bitset_arena_;
  std::vector<uint32_t> bitset_offsets_;
  std::vector<uint32_t> bitset_word0_;
  std::vector<uint32_t> bitset_num_words_;
  std::vector<TokenRun> runs_arena_;
  std::vector<uint32_t> run_offsets_;
  std::vector<uint32_t> run_counts_;
  // Side columns, filled by TagSides() for R-S fragments; empty on
  // self-join batches (the side machinery costs nothing unless asked for).
  std::vector<uint8_t> probe_side_;
  std::vector<uint32_t> probe_rows_;
  std::vector<uint32_t> build_rows_;
  bool sealed_ = false;
  bool side_tagged_ = false;
};

/// A record's split into segments: segment `v` spans ranks
/// [pivots[v-1], pivots[v]). Only non-empty segments are materialized.
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

/// Serializes a SegmentRecord into an MR value.
void EncodeSegment(const SegmentRecord& segment, std::string* out);

/// Parses a value produced by EncodeSegment.
Status DecodeSegment(std::string_view data, SegmentRecord* segment);

/// Number of tokens an EncodeSegment payload holds, read from its header
/// alone; 0 when the header is malformed or claims more tokens than the
/// payload has bytes (SegmentBatch::AppendEncoded then reports the error).
/// Summed over a fragment's values it sizes SegmentBatch::Reserve.
uint64_t EncodedSegmentTokens(std::string_view data);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_SEGMENTS_H_

#include "core/segments.h"

#include <algorithm>

#include "core/pivots.h"
#include "sim/set_ops.h"
#include "util/serde.h"

namespace fsjoin {

namespace {

/// Reads an EncodeSegment header. A token count above the bytes left is
/// malformed (each token takes at least one byte), so it is rejected before
/// anything is sized from it.
Status DecodeSegmentHeader(Decoder* dec, uint32_t* rid, uint32_t* record_size,
                           uint32_t* head, uint64_t* num_tokens) {
  FSJOIN_RETURN_NOT_OK(dec->GetVarint32(rid));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint32(record_size));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint32(head));
  FSJOIN_RETURN_NOT_OK(dec->GetVarint64(num_tokens));
  if (*num_tokens > dec->remaining()) {
    return Status::OutOfRange("truncated segment token vector");
  }
  return Status::OK();
}

}  // namespace

void SegmentBatch::Reserve(size_t num_segments, size_t num_tokens) {
  arena_.reserve(num_tokens);
  offsets_.reserve(num_segments + 1);
  rids_.reserve(num_segments);
  record_sizes_.reserve(num_segments);
  heads_.reserve(num_segments);
}

void SegmentBatch::Append(RecordId rid, uint32_t record_size, uint32_t head,
                          const TokenRank* tokens, size_t num_tokens) {
  arena_.insert(arena_.end(), tokens, tokens + num_tokens);
  offsets_.push_back(arena_.size());
  rids_.push_back(rid);
  record_sizes_.push_back(record_size);
  heads_.push_back(head);
  sealed_ = false;
}

void SegmentBatch::Append(const SegmentRecord& record) {
  Append(record.rid, record.record_size, record.head, record.tokens.data(),
         record.tokens.size());
}

Status SegmentBatch::AppendEncoded(std::string_view data) {
  Decoder dec(data);
  uint32_t rid = 0, record_size = 0, head = 0;
  uint64_t num_tokens = 0;
  FSJOIN_RETURN_NOT_OK(
      DecodeSegmentHeader(&dec, &rid, &record_size, &head, &num_tokens));
  // No exact-size reserve here: resize keeps the arena's geometric growth.
  // Callers that know the fragment's size call Reserve() once up front.
  const size_t start = arena_.size();
  arena_.resize(start + num_tokens);
  Status st = dec.GetAscendingVarint32Run(arena_.data() + start, num_tokens);
  if (st.ok() && !dec.done()) {
    st = Status::Internal("trailing bytes after segment record");
  }
  if (!st.ok()) {
    arena_.resize(start);  // leave the batch as it was before the call
    return st;
  }
  offsets_.push_back(arena_.size());
  rids_.push_back(rid);
  record_sizes_.push_back(record_size);
  heads_.push_back(head);
  sealed_ = false;
  return Status::OK();
}

void SegmentBatch::Seal() {
  bitmaps_.assign(size(), 0);
  // Fragment-local bucket mapping: all segments of a batch live inside one
  // pivot interval, so anchoring the 64 buckets at the observed rank range
  // keeps them information-dense (a corpus-global mapping would collapse a
  // fragment onto a handful of buckets).
  uint32_t lo = 0, hi = 0;
  bool any = false;
  for (uint32_t i = 0; i < size(); ++i) {
    const uint32_t len = length(i);
    if (len == 0) continue;
    const TokenRank* t = tokens(i);  // sorted ascending
    if (!any) {
      lo = t[0];
      hi = t[len - 1];
      any = true;
    } else {
      lo = std::min(lo, t[0]);
      hi = std::max(hi, t[len - 1]);
    }
  }
  if (any) {
    const uint32_t shift =
        BitmapShiftForSpan(static_cast<uint64_t>(hi) - lo + 1);
    for (uint32_t i = 0; i < size(); ++i) {
      bitmaps_[i] = TokenBitmap(tokens(i), length(i), lo, shift);
    }
  }
  sealed_ = true;
  side_tagged_ = false;
  probe_side_.clear();
  probe_rows_.clear();
  build_rows_.clear();
}

void SegmentBatch::TagSides(RecordId boundary) {
  probe_side_.assign(size(), 0);
  probe_rows_.clear();
  build_rows_.clear();
  for (uint32_t i = 0; i < size(); ++i) {
    if (rids_[i] < boundary) {
      probe_side_[i] = 1;
      probe_rows_.push_back(i);
    } else {
      build_rows_.push_back(i);
    }
  }
  side_tagged_ = true;
}

SegmentBatch SegmentBatch::FromRecords(
    const std::vector<SegmentRecord>& records) {
  SegmentBatch batch;
  size_t total = 0;
  for (const SegmentRecord& r : records) total += r.tokens.size();
  batch.Reserve(records.size(), total);
  for (const SegmentRecord& r : records) batch.Append(r);
  batch.Seal();
  return batch;
}

void SegmentSplitter::Split(const TokenRank* ranks, size_t n,
                            const std::vector<TokenRank>& pivots) {
  if (counts_.size() < pivots.size() + 1) counts_.resize(pivots.size() + 1);
  // Counting pass: each rank's fragment, and the touched fragments in
  // first-touch order.
  fragment_of_.resize(n);
  runs_.clear();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t f = SegmentOfRank(pivots, ranks[i]);
    fragment_of_[i] = f;
    if (counts_[f]++ == 0) runs_.push_back(SegmentRun{f, 0, 0});
  }
  std::sort(runs_.begin(), runs_.end(),
            [](const SegmentRun& a, const SegmentRun& b) {
              return a.fragment < b.fragment;
            });
  // Lay the runs out in fragment order; counts_ becomes each run's write
  // cursor.
  uint32_t offset = 0;
  for (SegmentRun& run : runs_) {
    run.begin = offset;
    offset += counts_[run.fragment];
    run.end = offset;
    counts_[run.fragment] = run.begin;
  }
  ranks_.resize(n);
  for (size_t i = 0; i < n; ++i) ranks_[counts_[fragment_of_[i]]++] = ranks[i];
  for (const SegmentRun& run : runs_) {
    std::sort(ranks_.begin() + run.begin, ranks_.begin() + run.end);
    counts_[run.fragment] = 0;
  }
}

SegmentSplit SplitIntoSegments(const OrderedRecord& record,
                               const std::vector<TokenRank>& pivots) {
  SegmentSplitter splitter;
  splitter.Split(record.tokens.data(), record.tokens.size(), pivots);
  SegmentSplit split;
  for (const SegmentRun& run : splitter.runs()) {
    SegmentRecord seg;
    seg.rid = record.id;
    seg.record_size = static_cast<uint32_t>(record.tokens.size());
    seg.head = run.begin;
    seg.tokens.assign(splitter.ranks().begin() + run.begin,
                      splitter.ranks().begin() + run.end);
    split.fragment_ids.push_back(run.fragment);
    split.segments.push_back(std::move(seg));
  }
  return split;
}

void EncodeSegment(const SegmentView& segment, std::string* out) {
  PutVarint32(out, segment.rid);
  PutVarint32(out, segment.record_size);
  PutVarint32(out, segment.head);
  PutVarint64(out, segment.num_tokens);
  PutAscendingVarint32Run(out, segment.tokens, segment.num_tokens);
}

void EncodeSegment(const SegmentRecord& segment, std::string* out) {
  EncodeSegment(ViewOf(segment), out);
}

uint64_t EncodedSegmentTokens(std::string_view data) {
  Decoder dec(data);
  uint32_t rid = 0, record_size = 0, head = 0;
  uint64_t num_tokens = 0;
  if (!DecodeSegmentHeader(&dec, &rid, &record_size, &head, &num_tokens)
           .ok()) {
    return 0;
  }
  return num_tokens;
}

Status DecodeSegment(std::string_view data, SegmentRecord* segment) {
  Decoder dec(data);
  uint64_t num_tokens = 0;
  FSJOIN_RETURN_NOT_OK(DecodeSegmentHeader(&dec, &segment->rid,
                                           &segment->record_size,
                                           &segment->head, &num_tokens));
  segment->tokens.resize(num_tokens);
  FSJOIN_RETURN_NOT_OK(
      dec.GetAscendingVarint32Run(segment->tokens.data(), num_tokens));
  if (!dec.done()) {
    return Status::Internal("trailing bytes after segment record");
  }
  return Status::OK();
}

}  // namespace fsjoin

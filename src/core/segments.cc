#include "core/segments.h"

#include <algorithm>

#include "core/pivots.h"
#include "sim/set_ops.h"
#include "util/serde.h"

namespace fsjoin {

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
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&rid));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&record_size));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&head));
  uint64_t num_tokens = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&num_tokens));
  if (num_tokens > dec.remaining()) {
    // Each token takes at least one byte, so this is malformed.
    return Status::OutOfRange("truncated segment token vector");
  }
  // No exact-size reserve here: it would defeat the arena's geometric
  // growth and copy the whole arena on every append. Callers that know the
  // fragment's size call Reserve() once up front.
  const size_t start = arena_.size();
  for (uint64_t i = 0; i < num_tokens; ++i) {
    uint32_t token = 0;
    Status st = dec.GetVarint32(&token);
    if (!st.ok()) {
      arena_.resize(start);  // leave the batch as it was before the call
      return st;
    }
    arena_.push_back(token);
  }
  if (!dec.done()) {
    arena_.resize(start);
    return Status::Internal("trailing bytes after segment record");
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

SegmentSplit SplitIntoSegments(const OrderedRecord& record,
                               const std::vector<TokenRank>& pivots) {
  SegmentSplit split;
  const std::vector<TokenRank>& tokens = record.tokens;
  size_t i = 0;
  while (i < tokens.size()) {
    const uint32_t fragment = SegmentOfRank(pivots, tokens[i]);
    // End of this fragment's rank range (exclusive); the last fragment is
    // unbounded.
    size_t j = i;
    if (fragment < pivots.size()) {
      const TokenRank limit = pivots[fragment];
      while (j < tokens.size() && tokens[j] < limit) ++j;
    } else {
      j = tokens.size();
    }
    SegmentRecord seg;
    seg.rid = record.id;
    seg.record_size = static_cast<uint32_t>(tokens.size());
    seg.head = static_cast<uint32_t>(i);
    seg.tokens.assign(tokens.begin() + i, tokens.begin() + j);
    split.fragment_ids.push_back(fragment);
    split.segments.push_back(std::move(seg));
    i = j;
  }
  return split;
}

void EncodeSegment(const SegmentRecord& segment, std::string* out) {
  PutVarint32(out, segment.rid);
  PutVarint32(out, segment.record_size);
  PutVarint32(out, segment.head);
  PutUint32Vector(out, segment.tokens);
}

uint64_t EncodedSegmentTokens(std::string_view data) {
  Decoder dec(data);
  uint32_t rid = 0, record_size = 0, head = 0;
  uint64_t num_tokens = 0;
  if (!dec.GetVarint32(&rid).ok() || !dec.GetVarint32(&record_size).ok() ||
      !dec.GetVarint32(&head).ok() || !dec.GetVarint64(&num_tokens).ok() ||
      num_tokens > dec.remaining()) {
    return 0;
  }
  return num_tokens;
}

Status DecodeSegment(std::string_view data, SegmentRecord* segment) {
  Decoder dec(data);
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&segment->rid));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&segment->record_size));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&segment->head));
  FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&segment->tokens));
  if (!dec.done()) {
    return Status::Internal("trailing bytes after segment record");
  }
  return Status::OK();
}

}  // namespace fsjoin

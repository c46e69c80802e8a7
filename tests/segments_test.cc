// Vertical segmentation (Definitions 5-6): segments must partition the
// record exactly (disjoint cover, consistent head/tail counts), land in the
// right fragment, and round-trip through the MR serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/pivots.h"
#include "core/segments.h"
#include "sim/set_ops.h"
#include "test_util.h"
#include "util/random.h"
#include "util/serde.h"

namespace fsjoin {
namespace {

OrderedRecord MakeRecord(RecordId id, std::vector<TokenRank> tokens) {
  return OrderedRecord{id, std::move(tokens)};
}

TEST(SegmentsTest, PaperExampleSplit) {
  // Tokens {B=1,C=2,I=8,J=9,K=10} with pivots at ranks {3, 6, 9}
  // (like Figure 2's pivots {C, F, I} in dictionary order).
  OrderedRecord s1 = MakeRecord(0, {1, 2, 8, 9, 10});
  SegmentSplit split = SplitIntoSegments(s1, {3, 6, 9});
  ASSERT_EQ(split.segments.size(), 3u);
  EXPECT_EQ(split.fragment_ids[0], 0u);  // {1, 2}
  EXPECT_EQ(split.segments[0].tokens, (std::vector<TokenRank>{1, 2}));
  EXPECT_EQ(split.fragment_ids[1], 2u);  // {8}
  EXPECT_EQ(split.segments[1].tokens, (std::vector<TokenRank>{8}));
  EXPECT_EQ(split.fragment_ids[2], 3u);  // {9, 10}
  EXPECT_EQ(split.segments[2].tokens, (std::vector<TokenRank>{9, 10}));
  // Head/tail bookkeeping.
  EXPECT_EQ(split.segments[0].head, 0u);
  EXPECT_EQ(split.segments[0].Tail(), 3u);
  EXPECT_EQ(split.segments[1].head, 2u);
  EXPECT_EQ(split.segments[1].Tail(), 2u);
  EXPECT_EQ(split.segments[2].head, 3u);
  EXPECT_EQ(split.segments[2].Tail(), 0u);
}

TEST(SegmentsTest, EmptySegmentsAreSkipped) {
  OrderedRecord rec = MakeRecord(3, {0, 100});
  SegmentSplit split = SplitIntoSegments(rec, {10, 20, 30});
  ASSERT_EQ(split.segments.size(), 2u);
  EXPECT_EQ(split.fragment_ids[0], 0u);
  EXPECT_EQ(split.fragment_ids[1], 3u);
}

TEST(SegmentsTest, NoPivotsSingleSegment) {
  OrderedRecord rec = MakeRecord(1, {5, 9, 42});
  SegmentSplit split = SplitIntoSegments(rec, {});
  ASSERT_EQ(split.segments.size(), 1u);
  EXPECT_EQ(split.fragment_ids[0], 0u);
  EXPECT_EQ(split.segments[0].tokens.size(), 3u);
  EXPECT_EQ(split.segments[0].head, 0u);
  EXPECT_EQ(split.segments[0].Tail(), 0u);
}

TEST(SegmentsTest, EmptyRecordNoSegments) {
  SegmentSplit split = SplitIntoSegments(MakeRecord(0, {}), {5, 10});
  EXPECT_TRUE(split.segments.empty());
}

// Property (Definition 5): segments are a disjoint, order-preserving cover
// of the record; every token lands in the fragment SegmentOfRank assigns.
TEST(SegmentsTest, SplitIsDisjointCover) {
  Rng rng(17);
  for (int iter = 0; iter < 300; ++iter) {
    // Random sorted-unique record over ranks < 200 and random pivots.
    std::vector<TokenRank> tokens;
    for (TokenRank r = 0; r < 200; ++r) {
      if (rng.NextBool(0.15)) tokens.push_back(r);
    }
    std::vector<TokenRank> pivots;
    for (TokenRank r = 1; r < 200; ++r) {
      if (rng.NextBool(0.05)) pivots.push_back(r);
    }
    OrderedRecord rec = MakeRecord(7, tokens);
    SegmentSplit split = SplitIntoSegments(rec, pivots);

    std::vector<TokenRank> reassembled;
    uint32_t position = 0;
    for (size_t i = 0; i < split.segments.size(); ++i) {
      const SegmentRecord& seg = split.segments[i];
      EXPECT_EQ(seg.rid, 7u);
      EXPECT_EQ(seg.record_size, tokens.size());
      EXPECT_EQ(seg.head, position);
      EXPECT_FALSE(seg.tokens.empty());
      for (TokenRank t : seg.tokens) {
        EXPECT_EQ(SegmentOfRank(pivots, t), split.fragment_ids[i]);
        reassembled.push_back(t);
      }
      position += seg.tokens.size();
      if (i > 0) {
        EXPECT_GT(split.fragment_ids[i], split.fragment_ids[i - 1]);
      }
    }
    EXPECT_EQ(reassembled, tokens);
  }
}

TEST(SegmentsTest, SerdeRoundTrip) {
  SegmentRecord seg;
  seg.rid = 12345;
  seg.record_size = 50;
  seg.head = 7;
  seg.tokens = {3, 9, 27, 81};
  std::string buf;
  EncodeSegment(seg, &buf);
  SegmentRecord decoded;
  ASSERT_TRUE(DecodeSegment(buf, &decoded).ok());
  EXPECT_EQ(decoded.rid, seg.rid);
  EXPECT_EQ(decoded.record_size, seg.record_size);
  EXPECT_EQ(decoded.head, seg.head);
  EXPECT_EQ(decoded.tokens, seg.tokens);
  EXPECT_EQ(decoded.Tail(), 50u - 7u - 4u);
}

TEST(SegmentsTest, SerdeRejectsCorruption) {
  SegmentRecord seg;
  seg.rid = 1;
  seg.record_size = 3;
  seg.head = 0;
  seg.tokens = {1, 2, 3};
  std::string buf;
  EncodeSegment(seg, &buf);
  SegmentRecord decoded;
  EXPECT_FALSE(
      DecodeSegment(std::string_view(buf).substr(0, buf.size() - 1), &decoded)
          .ok());
  EXPECT_FALSE(DecodeSegment(buf + "x", &decoded).ok());
  EXPECT_FALSE(DecodeSegment("", &decoded).ok());
}

// The splitter takes ranks in any order: bucketing then sorting each bucket
// gives the split of the sorted record, and one splitter reused across
// records and pivot sets keeps giving it.
TEST(SegmentsTest, SplitterMatchesSplitOfSortedRecord) {
  Rng rng(23);
  SegmentSplitter splitter;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<TokenRank> tokens;
    for (TokenRank r = 0; r < 300; ++r) {
      if (rng.NextBool(0.1)) tokens.push_back(r);
    }
    std::vector<TokenRank> pivots;
    const double density = iter % 2 == 0 ? 0.02 : 0.3;
    for (TokenRank r = 1; r < 320; ++r) {
      if (rng.NextBool(density)) pivots.push_back(r);
    }
    const SegmentSplit want = SplitIntoSegments(MakeRecord(4, tokens), pivots);
    std::vector<TokenRank> shuffled = tokens;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    splitter.Split(shuffled.data(), shuffled.size(), pivots);
    EXPECT_EQ(splitter.ranks(), tokens);
    ASSERT_EQ(splitter.runs().size(), want.segments.size());
    for (size_t i = 0; i < want.segments.size(); ++i) {
      const SegmentRun& run = splitter.runs()[i];
      EXPECT_EQ(run.fragment, want.fragment_ids[i]);
      EXPECT_EQ(run.begin, want.segments[i].head);
      EXPECT_EQ(run.end - run.begin, want.segments[i].tokens.size());
    }
  }
}

// Wire format: the header, then the first rank and each later rank's gap.
TEST(SegmentsTest, EncodesRanksAsAscendingGaps) {
  const SegmentRecord seg = {5, 300, 1, {200, 204, 460}};
  std::string buf;
  EncodeSegment(seg, &buf);
  // rid 5, size 300 (ac 02), head 1, n 3, rank 200 (c8 01), gaps 4, 256.
  EXPECT_EQ(buf, std::string("\x05\xac\x02\x01\x03\xc8\x01\x04\x80\x02",
                             10));
}

TEST(SegmentsTest, SerdeRoundTripsEveryRankWidth) {
  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(rng.Next());
    seg.head = static_cast<uint32_t>(rng.NextBounded(1000));
    std::vector<TokenRank> set;
    const int bits = 1 + static_cast<int>(rng.NextBounded(32));
    const size_t n = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      set.push_back(static_cast<TokenRank>(rng.Next() >> (64 - bits)));
    }
    if (iter == 0) set = {0, 0xffffffffu};  // both ends of the rank space
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    seg.tokens = set;
    seg.record_size = seg.head + static_cast<uint32_t>(set.size()) + 3;
    std::string buf;
    EncodeSegment(seg, &buf);
    SegmentRecord decoded;
    ASSERT_TRUE(DecodeSegment(buf, &decoded).ok());
    EXPECT_EQ(decoded.rid, seg.rid);
    EXPECT_EQ(decoded.record_size, seg.record_size);
    EXPECT_EQ(decoded.head, seg.head);
    EXPECT_EQ(decoded.tokens, seg.tokens);
    EXPECT_EQ(EncodedSegmentTokens(buf), seg.tokens.size());
    SegmentBatch batch;
    ASSERT_TRUE(batch.AppendEncoded(buf).ok());
    ASSERT_EQ(batch.length(0), seg.tokens.size());
    EXPECT_TRUE(std::equal(seg.tokens.begin(), seg.tokens.end(),
                           batch.tokens(0)));
  }
}

/// A header for `n` tokens followed by the raw token varints `body`.
std::string SegmentBytes(uint64_t n, const std::vector<uint32_t>& body) {
  std::string buf;
  PutVarint32(&buf, 9);   // rid
  PutVarint32(&buf, 20);  // record_size
  PutVarint32(&buf, 2);   // head
  PutVarint64(&buf, n);
  for (uint32_t v : body) PutVarint32(&buf, v);
  return buf;
}

// Each malformed value is a Status from both decoders, and AppendEncoded
// leaves the batch as it was.
TEST(SegmentsTest, DecodersRejectMalformedValues) {
  const std::string good = SegmentBytes(3, {4, 1, 7});
  const std::vector<std::pair<const char*, std::string>> bad = {
      {"zero gap", SegmentBytes(3, {4, 0, 7})},
      {"sum past 2^32 - 1", SegmentBytes(2, {0xfffffff0u, 0x10})},
      {"varint wider than 32 bits",
       SegmentBytes(1, {}) + std::string("\x80\x80\x80\x80\x10", 5)},
      {"trailing bytes", good + "x"},
      {"fewer tokens than the header claims", SegmentBytes(4, {4, 1, 7})},
      {"truncated", good.substr(0, good.size() - 1)},
      {"empty", ""},
  };
  SegmentBatch batch;
  ASSERT_TRUE(batch.AppendEncoded(good).ok());
  for (const auto& [label, bytes] : bad) {
    SegmentRecord decoded;
    EXPECT_FALSE(DecodeSegment(bytes, &decoded).ok()) << label;
    EXPECT_FALSE(batch.AppendEncoded(bytes).ok()) << label;
    EXPECT_EQ(batch.size(), 1u) << label;
    EXPECT_EQ(batch.total_tokens(), 3u) << label;
  }
  // Every proper prefix of a good value is truncated.
  for (size_t len = 0; len < good.size(); ++len) {
    SegmentRecord decoded;
    EXPECT_FALSE(DecodeSegment(good.substr(0, len), &decoded).ok()) << len;
    EXPECT_FALSE(batch.AppendEncoded(good.substr(0, len)).ok()) << len;
  }
  EXPECT_EQ(batch.total_tokens(), 3u);
  SegmentRecord decoded;
  ASSERT_TRUE(DecodeSegment(good, &decoded).ok());
  EXPECT_EQ(decoded.tokens, (std::vector<TokenRank>{4, 5, 12}));
}

// ---- SegmentBatch (columnar storage) --------------------------------------

TEST(SegmentBatchTest, FromRecordsMatchesRows) {
  Rng rng(31);
  std::vector<SegmentRecord> rows;
  for (int i = 0; i < 12; ++i) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(100 + i);
    seg.head = static_cast<uint32_t>(i % 3);
    for (TokenRank r = 0; r < 40; ++r) {
      if (rng.NextBool(0.25)) seg.tokens.push_back(r);
    }
    if (seg.tokens.empty()) seg.tokens.push_back(0);
    seg.record_size = seg.head + static_cast<uint32_t>(seg.tokens.size()) + 2;
    rows.push_back(std::move(seg));
  }
  SegmentBatch batch = SegmentBatch::FromRecords(rows);
  ASSERT_TRUE(batch.sealed());
  ASSERT_EQ(batch.size(), rows.size());
  size_t total = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.rid(i), rows[i].rid);
    EXPECT_EQ(batch.record_size(i), rows[i].record_size);
    EXPECT_EQ(batch.head(i), rows[i].head);
    EXPECT_EQ(batch.length(i), rows[i].tokens.size());
    EXPECT_EQ(batch.Tail(i), rows[i].Tail());
    SegmentView view = batch.View(i);
    EXPECT_EQ(view.rid, rows[i].rid);
    for (size_t k = 0; k < rows[i].tokens.size(); ++k) {
      EXPECT_EQ(batch.tokens(i)[k], rows[i].tokens[k]);
    }
    total += rows[i].tokens.size();
  }
  EXPECT_EQ(batch.total_tokens(), total);
}

TEST(SegmentBatchTest, AppendEncodedMatchesDecodeSegment) {
  // Shuffle values decode straight into the arena; the columns must agree
  // with the row-oriented DecodeSegment on the same bytes.
  std::vector<SegmentRecord> rows(3);
  rows[0] = {41, 9, 2, {5, 8, 13}};
  rows[1] = {7, 4, 0, {1, 2, 3, 4}};
  rows[2] = {1000000, 123456, 77, {99999}};
  SegmentBatch batch;
  batch.Reserve(rows.size(), 8);
  for (const SegmentRecord& seg : rows) {
    std::string buf;
    EncodeSegment(seg, &buf);
    ASSERT_TRUE(batch.AppendEncoded(buf).ok());
  }
  batch.Seal();
  ASSERT_EQ(batch.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.rid(i), rows[i].rid);
    EXPECT_EQ(batch.record_size(i), rows[i].record_size);
    EXPECT_EQ(batch.head(i), rows[i].head);
    ASSERT_EQ(batch.length(i), rows[i].tokens.size());
    for (size_t k = 0; k < rows[i].tokens.size(); ++k) {
      EXPECT_EQ(batch.tokens(i)[k], rows[i].tokens[k]);
    }
  }
}

TEST(SegmentBatchTest, AppendEncodedRollsBackOnCorruption) {
  SegmentRecord good = {5, 6, 1, {2, 4, 6}};
  std::string buf;
  EncodeSegment(good, &buf);
  SegmentBatch batch;
  // Truncated value: the batch must stay exactly as before the call.
  EXPECT_FALSE(
      batch.AppendEncoded(std::string_view(buf).substr(0, buf.size() - 1))
          .ok());
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.total_tokens(), 0u);
  // Trailing garbage is rejected too.
  EXPECT_FALSE(batch.AppendEncoded(buf + "x").ok());
  EXPECT_TRUE(batch.empty());
  // A good value still appends after failures.
  ASSERT_TRUE(batch.AppendEncoded(buf).ok());
  batch.Seal();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.length(0), 3u);
}

TEST(SegmentBatchTest, EncodedSegmentTokensReadsTheHeader) {
  SegmentRecord seg = {1000000, 123456, 77, {5, 300, 99999}};
  std::string buf;
  EncodeSegment(seg, &buf);
  EXPECT_EQ(EncodedSegmentTokens(buf), 3u);
  // A header claiming more tokens than the payload has bytes, or one cut
  // short, counts as 0 so a reserve never trusts it.
  std::string bad;
  PutVarint32(&bad, 1);
  PutVarint32(&bad, 2);
  PutVarint32(&bad, 0);
  PutVarint64(&bad, uint64_t{1} << 40);
  EXPECT_EQ(EncodedSegmentTokens(bad), 0u);
  EXPECT_EQ(EncodedSegmentTokens(std::string_view(buf).substr(0, 2)), 0u);
  EXPECT_EQ(EncodedSegmentTokens(""), 0u);
}

TEST(SegmentBatchTest, SealedBitmapsAreSound) {
  // Soundness of the word-packed gate: disjoint bitmaps must imply an
  // actually-empty overlap for every pair in the batch.
  Rng rng(91);
  std::vector<SegmentRecord> rows;
  for (int i = 0; i < 30; ++i) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(i);
    for (TokenRank r = 500; r < 700; ++r) {
      if (rng.NextBool(0.05)) seg.tokens.push_back(r);
    }
    if (seg.tokens.empty()) seg.tokens.push_back(500);
    seg.record_size = static_cast<uint32_t>(seg.tokens.size());
    rows.push_back(std::move(seg));
  }
  SegmentBatch batch = SegmentBatch::FromRecords(rows);
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = i + 1; j < batch.size(); ++j) {
      if ((batch.bitmap(i) & batch.bitmap(j)) != 0) continue;
      EXPECT_EQ(SortedOverlap(batch.tokens(i), batch.length(i),
                              batch.tokens(j), batch.length(j)),
                0u);
    }
  }
}

}  // namespace
}  // namespace fsjoin

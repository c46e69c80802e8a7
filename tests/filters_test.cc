// The four filtering lemmas and the per-segment prefix machinery. The key
// property: a filter may NEVER prune a pair whose true similarity reaches
// θ (soundness); each filter must also demonstrably prune something
// (effectiveness).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/filters.h"
#include "core/fragment_join.h"
#include "core/pivots.h"
#include "core/segments.h"
#include "sim/set_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace fsjoin {
namespace {

// Builds random ordered records plus a random pivot split and checks every
// filter on every fragment-coresident segment pair against ground truth.
TEST(FiltersTest, FiltersNeverPruneSimilarPairs) {
  Rng rng(4242);
  const double thetas[] = {0.5, 0.7, 0.8, 0.9};
  const SimilarityFunction fns[] = {SimilarityFunction::kJaccard,
                                    SimilarityFunction::kDice,
                                    SimilarityFunction::kCosine};
  int pruned_checks = 0;
  for (int iter = 0; iter < 200; ++iter) {
    // Two random records over ranks < 60.
    std::vector<TokenRank> a, b;
    for (TokenRank r = 0; r < 60; ++r) {
      if (rng.NextBool(0.35)) a.push_back(r);
      if (rng.NextBool(0.35)) b.push_back(r);
    }
    if (a.empty() || b.empty()) continue;
    std::vector<TokenRank> pivots;
    for (TokenRank r = 1; r < 60; ++r) {
      if (rng.NextBool(0.08)) pivots.push_back(r);
    }
    OrderedRecord ra{0, a}, rb{1, b};
    SegmentSplit sa = SplitIntoSegments(ra, pivots);
    SegmentSplit sb = SplitIntoSegments(rb, pivots);
    const uint64_t true_overlap = SortedOverlap(a, b);

    for (SimilarityFunction fn : fns) {
      for (double theta : thetas) {
        const bool similar =
            PassesThreshold(fn, true_overlap, a.size(), b.size(), theta);
        const bool strl_prunes = StrLengthPrunes(
            fn, theta, static_cast<uint32_t>(a.size()),
            static_cast<uint32_t>(b.size()));
        if (similar) {
          EXPECT_FALSE(strl_prunes);
        }

        // Check the segment filters on every pair of co-fragment segments.
        for (size_t i = 0; i < sa.segments.size(); ++i) {
          for (size_t j = 0; j < sb.segments.size(); ++j) {
            if (sa.fragment_ids[i] != sb.fragment_ids[j]) continue;
            const SegmentRecord& x = sa.segments[i];
            const SegmentRecord& y = sb.segments[j];
            const uint64_t seg_overlap = SortedOverlap(x.tokens, y.tokens);
            const bool segl = SegmentLengthPrunes(fn, theta, x, y);
            const bool segi =
                SegmentIntersectionPrunes(fn, theta, x, y, seg_overlap);
            const bool segd =
                SegmentDifferencePrunes(fn, theta, x, y, seg_overlap);
            if (similar) {
              EXPECT_FALSE(segl) << "SegL pruned a similar pair";
              EXPECT_FALSE(segi) << "SegI pruned a similar pair";
              EXPECT_FALSE(segd) << "SegD pruned a similar pair";
            }
            if (segl || segi || segd) ++pruned_checks;
          }
        }
      }
    }
  }
  // The filters must actually fire on dissimilar data.
  EXPECT_GT(pruned_checks, 100);
}

TEST(FiltersTest, StrLengthMatchesLemma1) {
  // Jaccard, theta 0.8: |s| < 0.8|t| prunes.
  EXPECT_TRUE(StrLengthPrunes(SimilarityFunction::kJaccard, 0.8, 7, 10));
  EXPECT_FALSE(StrLengthPrunes(SimilarityFunction::kJaccard, 0.8, 8, 10));
  EXPECT_FALSE(StrLengthPrunes(SimilarityFunction::kJaccard, 0.8, 10, 10));
  // Symmetric in the arguments.
  EXPECT_TRUE(StrLengthPrunes(SimilarityFunction::kJaccard, 0.8, 10, 7));
}

// The indexed probes apply Lemma 1 only as their posting-list window and do
// not re-check it per pair. That is sound only if no partner size inside the
// window is StrL-pruned. Self join: the partner is no larger than the probe
// and at least PartnerSizeLowerBound. R-S join: the partner lies between
// PartnerSizeLowerBound and PartnerSizeUpperBound, so it holds the self
// window whenever the upper bound reaches the probe. Exhaustive over sizes,
// so a rounding difference at a window edge shows.
TEST(FiltersTest, PartnerWindowNeverStrLengthPrunes) {
  constexpr uint32_t kMaxSize = 1000;
  for (SimilarityFunction fn :
       {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
        SimilarityFunction::kCosine}) {
    for (double theta : {0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}) {
      SCOPED_TRACE(std::string(SimilarityFunctionName(fn)) + "/theta" +
                   std::to_string(theta));
      for (uint32_t probe = 1; probe <= kMaxSize; ++probe) {
        const uint64_t lo = PartnerSizeLowerBound(fn, theta, probe);
        const uint64_t hi = PartnerSizeUpperBound(fn, theta, probe);
        ASSERT_LE(lo, probe);
        ASSERT_GE(hi, probe);
        for (uint64_t partner = std::max<uint64_t>(lo, 1); partner <= hi;
             ++partner) {
          const uint32_t size = static_cast<uint32_t>(partner);
          ASSERT_FALSE(StrLengthPrunes(fn, theta, probe, size))
              << "probe " << probe << " partner " << partner;
          ASSERT_FALSE(StrLengthPrunes(fn, theta, size, probe))
              << "probe " << probe << " partner " << partner;
        }
      }
    }
  }
}

TEST(FiltersTest, SegIStrongerThanSegL) {
  // With the actual overlap available, SegI prunes at least whenever SegL
  // does (SegI uses overlap <= min segment length).
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    SegmentRecord x, y;
    x.record_size = 10 + rng.NextBounded(30);
    y.record_size = 10 + rng.NextBounded(30);
    x.head = rng.NextBounded(5);
    y.head = rng.NextBounded(5);
    uint32_t xs = 1 + rng.NextBounded(x.record_size - x.head);
    uint32_t ys = 1 + rng.NextBounded(y.record_size - y.head);
    if (x.head + xs > x.record_size) xs = x.record_size - x.head;
    if (y.head + ys > y.record_size) ys = y.record_size - y.head;
    x.tokens.resize(xs);
    y.tokens.resize(ys);
    uint64_t overlap = rng.NextBounded(std::min(xs, ys) + 1);
    if (SegmentLengthPrunes(SimilarityFunction::kJaccard, 0.8, x, y)) {
      EXPECT_TRUE(SegmentIntersectionPrunes(SimilarityFunction::kJaccard, 0.8,
                                            x, y, overlap));
    }
  }
}

TEST(FiltersTest, PaperExample2SegLPrunes) {
  // Example 2: s = {A,B,D,E,G}, t = {B,D,E,F,K}, theta = 0.8, pivots {D,G}
  // (token ranks: A=0,B=1,D=3,E=4,F=5,G=6,K=10; pivots at ranks 3 and 6 ->
  // wait, pivot D means D starts segment 2 in the paper's example where
  // Seg1={A,B,D}. The paper treats pivots as segment *terminators*; with our
  // boundary semantics pivots {4, 7} give Seg1(s)={A,B,D}, Seg2(s)={E,G}.)
  OrderedRecord s{0, {0, 1, 3, 4, 6}};
  OrderedRecord t{1, {1, 3, 4, 5, 10}};
  std::vector<TokenRank> pivots = {4, 7};
  SegmentSplit ss = SplitIntoSegments(s, pivots);
  SegmentSplit st = SplitIntoSegments(t, pivots);
  ASSERT_EQ(ss.segments[0].tokens.size(), 3u);  // {A,B,D}
  ASSERT_EQ(st.segments[0].tokens.size(), 2u);  // {B,D}
  // Regardless of exact segment contents, the pair is dissimilar at 0.8 and
  // at least one segment filter must prune it in some fragment.
  bool any_pruned = false;
  for (size_t i = 0; i < ss.segments.size(); ++i) {
    for (size_t j = 0; j < st.segments.size(); ++j) {
      if (ss.fragment_ids[i] != st.fragment_ids[j]) continue;
      uint64_t ov =
          SortedOverlap(ss.segments[i].tokens, st.segments[j].tokens);
      if (SegmentLengthPrunes(SimilarityFunction::kJaccard, 0.8,
                              ss.segments[i], st.segments[j]) ||
          SegmentIntersectionPrunes(SimilarityFunction::kJaccard, 0.8,
                                    ss.segments[i], st.segments[j], ov) ||
          SegmentDifferencePrunes(SimilarityFunction::kJaccard, 0.8,
                                  ss.segments[i], st.segments[j], ov)) {
        any_pruned = true;
      }
    }
  }
  EXPECT_TRUE(any_pruned);
}

TEST(FiltersTest, SegmentPrefixLengthBounds) {
  SegmentRecord seg;
  seg.record_size = 20;
  seg.head = 5;
  seg.tokens = {1, 2, 3, 4, 5};  // tail = 10
  for (auto fn : {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
                  SimilarityFunction::kCosine}) {
    for (double theta : {0.5, 0.8, 1.0}) {
      uint64_t o = SegmentMinLocalOverlap(fn, theta, seg);
      EXPECT_GE(o, 1u);
      EXPECT_LE(o, seg.tokens.size());
      uint64_t p = SegmentPrefixLength(fn, theta, seg);
      EXPECT_GE(p, 1u);
      EXPECT_LE(p, seg.tokens.size());
      EXPECT_EQ(p, seg.tokens.size() - o + 1);
    }
  }
  // theta=1 requires full overlap: local requirement = |seg| exactly,
  // prefix shrinks to 1.
  EXPECT_EQ(SegmentMinLocalOverlap(SimilarityFunction::kJaccard, 1.0, seg),
            5u);
  EXPECT_EQ(SegmentPrefixLength(SimilarityFunction::kJaccard, 1.0, seg), 1u);
}

// Property backing the Prefix Join exactness argument: for θ-similar pairs,
// the fragment overlap c_i always reaches SegmentMinLocalOverlap of BOTH
// segments.
TEST(FiltersTest, LocalOverlapBoundHoldsForSimilarPairs) {
  Rng rng(31337);
  int similar_seen = 0;
  for (int iter = 0; iter < 2000 && similar_seen < 200; ++iter) {
    std::vector<TokenRank> a, b;
    for (TokenRank r = 0; r < 40; ++r) {
      bool in_a = rng.NextBool(0.5);
      a.push_back(0);
      a.pop_back();
      if (in_a) a.push_back(r);
      // b is a noisy copy of a to make similar pairs common.
      if (in_a ? rng.NextBool(0.9) : rng.NextBool(0.05)) b.push_back(r);
    }
    if (a.empty() || b.empty()) continue;
    const double theta = 0.7;
    const SimilarityFunction fn = SimilarityFunction::kJaccard;
    uint64_t overlap = SortedOverlap(a, b);
    if (!PassesThreshold(fn, overlap, a.size(), b.size(), theta)) continue;
    ++similar_seen;

    std::vector<TokenRank> pivots;
    for (TokenRank r = 1; r < 40; ++r) {
      if (rng.NextBool(0.1)) pivots.push_back(r);
    }
    SegmentSplit sa = SplitIntoSegments(OrderedRecord{0, a}, pivots);
    SegmentSplit sb = SplitIntoSegments(OrderedRecord{1, b}, pivots);
    for (size_t i = 0; i < sa.segments.size(); ++i) {
      for (size_t j = 0; j < sb.segments.size(); ++j) {
        if (sa.fragment_ids[i] != sb.fragment_ids[j]) continue;
        uint64_t c = SortedOverlap(sa.segments[i].tokens,
                                   sb.segments[j].tokens);
        if (c == 0) continue;
        EXPECT_GE(c, SegmentMinLocalOverlap(fn, theta, sa.segments[i]));
        EXPECT_GE(c, SegmentMinLocalOverlap(fn, theta, sb.segments[j]));
      }
    }
  }
  EXPECT_GE(similar_seen, 50);
}

}  // namespace
}  // namespace fsjoin

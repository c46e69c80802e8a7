// Tests of the similarity math (thresholds, overlap bounds, prefix
// lengths), the sorted-set kernels and the global ordering.

#include <gtest/gtest.h>

#include <cmath>

#include "sim/global_order.h"
#include "sim/set_ops.h"
#include "sim/similarity.h"
#include "test_util.h"
#include "util/random.h"

namespace fsjoin {
namespace {

TEST(SimilarityTest, KnownValues) {
  // |s|=4, |t|=6, c=3: jaccard 3/7, dice 6/10, cosine 3/sqrt(24).
  EXPECT_NEAR(ComputeSimilarity(SimilarityFunction::kJaccard, 3, 4, 6),
              3.0 / 7.0, 1e-12);
  EXPECT_NEAR(ComputeSimilarity(SimilarityFunction::kDice, 3, 4, 6), 0.6,
              1e-12);
  EXPECT_NEAR(ComputeSimilarity(SimilarityFunction::kCosine, 3, 4, 6),
              3.0 / std::sqrt(24.0), 1e-12);
  EXPECT_EQ(ComputeSimilarity(SimilarityFunction::kJaccard, 0, 0, 5), 0.0);
}

TEST(SimilarityTest, IdenticalSetsScoreOne) {
  for (auto fn : {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
                  SimilarityFunction::kCosine}) {
    EXPECT_NEAR(ComputeSimilarity(fn, 7, 7, 7), 1.0, 1e-12);
    EXPECT_TRUE(PassesThreshold(fn, 7, 7, 7, 1.0));
  }
}

TEST(SimilarityTest, NamesRoundTrip) {
  for (auto fn : {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
                  SimilarityFunction::kCosine}) {
    Result<SimilarityFunction> parsed =
        SimilarityFunctionFromName(SimilarityFunctionName(fn));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, fn);
  }
  EXPECT_FALSE(SimilarityFunctionFromName("euclid").ok());
}

// Property: MinOverlap is the exact integer threshold — c >= MinOverlap
// iff the pair passes.
TEST(SimilarityTest, MinOverlapIsTight) {
  const double thetas[] = {0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 1.0};
  for (auto fn : {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
                  SimilarityFunction::kCosine}) {
    for (double theta : thetas) {
      for (uint64_t a = 1; a <= 30; ++a) {
        for (uint64_t b = a; b <= 30; ++b) {
          uint64_t alpha = MinOverlap(fn, theta, a, b);
          for (uint64_t c = 0; c <= a; ++c) {
            EXPECT_EQ(c >= alpha, PassesThreshold(fn, c, a, b, theta))
                << SimilarityFunctionName(fn) << " theta=" << theta
                << " a=" << a << " b=" << b << " c=" << c
                << " alpha=" << alpha;
          }
        }
      }
    }
  }
}

// Property: MinOverlapSelf lower-bounds MinOverlap over every feasible
// partner size.
TEST(SimilarityTest, MinOverlapSelfIsValidBound) {
  for (auto fn : {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
                  SimilarityFunction::kCosine}) {
    for (double theta : {0.5, 0.7, 0.8, 0.9}) {
      for (uint64_t a = 1; a <= 40; ++a) {
        uint64_t self = MinOverlapSelf(fn, theta, a);
        uint64_t lo = PartnerSizeLowerBound(fn, theta, a);
        uint64_t hi = PartnerSizeUpperBound(fn, theta, a);
        EXPECT_LE(lo, hi);
        for (uint64_t b = std::max<uint64_t>(lo, 1); b <= hi; ++b) {
          EXPECT_LE(self, MinOverlap(fn, theta, a, b))
              << SimilarityFunctionName(fn) << " theta=" << theta
              << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

// Property: partner sizes outside [lower, upper] can never pass.
TEST(SimilarityTest, PartnerBoundsAreSound) {
  for (auto fn : {SimilarityFunction::kJaccard, SimilarityFunction::kDice,
                  SimilarityFunction::kCosine}) {
    for (double theta : {0.6, 0.8, 0.9}) {
      for (uint64_t a = 1; a <= 40; ++a) {
        uint64_t lo = PartnerSizeLowerBound(fn, theta, a);
        if (lo > 0) {
          // best case c = min(a, lo-1) with partner size lo-1.
          uint64_t b = lo - 1;
          if (b >= 1) {
            uint64_t c = std::min(a, b);
            EXPECT_FALSE(PassesThreshold(fn, c, a, b, theta));
          }
        }
        uint64_t hi = PartnerSizeUpperBound(fn, theta, a);
        uint64_t b = hi + 1;
        uint64_t c = std::min(a, b);
        EXPECT_FALSE(PassesThreshold(fn, c, a, b, theta));
      }
    }
  }
}

TEST(SimilarityTest, PrefixLengthEdges) {
  // theta = 1: prefix must still be 1 token (required == size).
  EXPECT_EQ(PrefixLength(SimilarityFunction::kJaccard, 1.0, 10), 1u);
  // Low theta: longer prefix, never exceeding size.
  for (uint64_t a = 1; a <= 50; ++a) {
    uint64_t p = PrefixLength(SimilarityFunction::kJaccard, 0.5, a);
    EXPECT_GE(p, 1u);
    EXPECT_LE(p, a);
  }
}

// ---- Set kernels ---------------------------------------------------------

TEST(SetOpsTest, OverlapBasics) {
  std::vector<uint32_t> a = {1, 3, 5, 7};
  std::vector<uint32_t> b = {2, 3, 5, 8};
  EXPECT_EQ(SortedOverlap(a, b), 2u);
  EXPECT_EQ(SortedOverlap(a, {}), 0u);
  EXPECT_EQ(SortedOverlap(a, a), 4u);
}

TEST(SetOpsTest, GallopingOverlapMatchesLinearMerge) {
  Rng rng(88);
  for (int iter = 0; iter < 200; ++iter) {
    // Skewed sizes: a short probe set against a much longer one, so the
    // galloping path (and SortedOverlap's dispatch into it) is exercised.
    std::vector<uint32_t> small, large;
    for (uint32_t v = 0; v < 2000; ++v) {
      if (rng.NextBool(0.005)) small.push_back(v);
      if (rng.NextBool(0.6)) large.push_back(v);
    }
    const uint64_t expected = LinearOverlap(small, large);
    EXPECT_EQ(GallopingOverlap(small, large), expected);
    EXPECT_EQ(GallopingOverlap(large, small), expected);  // order-insensitive
    EXPECT_EQ(SortedOverlap(small, large), expected);
  }
}

TEST(SetOpsTest, GallopingOverlapEdgeCases) {
  const std::vector<uint32_t> empty;
  const std::vector<uint32_t> one = {5};
  std::vector<uint32_t> big(1000);
  for (uint32_t i = 0; i < 1000; ++i) big[i] = 2 * i;
  EXPECT_EQ(GallopingOverlap(empty, big), 0u);
  EXPECT_EQ(GallopingOverlap(one, big), 0u);  // 5 is odd: no match
  EXPECT_EQ(GallopingOverlap({10}, big), 1u);
  EXPECT_EQ(GallopingOverlap({1998}, big), 1u);  // last element
  EXPECT_EQ(GallopingOverlap({5000}, big), 0u);  // past the end
  EXPECT_EQ(GallopingOverlap(big, big), 1000u);
  // Needles beyond the largest element stop the walk early, not crash it.
  EXPECT_EQ(GallopingOverlap({0, 1998, 9999}, big), 2u);
}

TEST(SetOpsTest, OverlapAtLeastAgreesWhenReachable) {
  Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<uint32_t> a, b;
    for (int i = 0; i < 30; ++i) {
      if (rng.NextBool(0.4)) a.push_back(i);
      if (rng.NextBool(0.4)) b.push_back(i);
    }
    uint64_t exact = SortedOverlap(a, b);
    for (uint64_t required = 0; required <= 10; ++required) {
      uint64_t got = SortedOverlapAtLeast(a, b, required);
      if (exact >= required) {
        EXPECT_EQ(got, exact);
      } else {
        EXPECT_EQ(got, 0u);
      }
    }
  }
}

TEST(SetOpsTest, BitmapShiftForSpanCoversSpanIn64Buckets) {
  EXPECT_EQ(BitmapShiftForSpan(1), 0u);
  EXPECT_EQ(BitmapShiftForSpan(64), 0u);
  EXPECT_EQ(BitmapShiftForSpan(65), 1u);
  EXPECT_EQ(BitmapShiftForSpan(128), 1u);
  EXPECT_EQ(BitmapShiftForSpan(129), 2u);
  // Any span must fit: (span - 1) >> shift < 64.
  for (uint64_t span : {uint64_t{1}, uint64_t{63}, uint64_t{1000},
                        uint64_t{1} << 32, uint64_t{1} << 40}) {
    uint32_t shift = BitmapShiftForSpan(span);
    EXPECT_LT((span - 1) >> shift, 64u) << "span=" << span;
  }
}

TEST(SetOpsTest, TokenBitmapMarksEveryTokenBucket) {
  std::vector<uint32_t> tokens = {10, 11, 40, 73};
  uint32_t shift = BitmapShiftForSpan(73 - 10 + 1);  // span 64 -> shift 0
  ASSERT_EQ(shift, 0u);
  uint64_t bm = TokenBitmap(tokens.data(), tokens.size(), 10, shift);
  EXPECT_EQ(bm, (uint64_t{1} << 0) | (uint64_t{1} << 1) | (uint64_t{1} << 30) |
                    (uint64_t{1} << 63));
}

TEST(SetOpsTest, PackedOverlapIsExact) {
  // The bitmap gate must be sound: PackedOverlap always returns the true
  // overlap, never a false zero, under a shared (base, shift) mapping.
  Rng rng(101);
  for (int iter = 0; iter < 500; ++iter) {
    const uint32_t base = 5000;
    const uint64_t span = 1 + rng.NextBounded(4000);
    const uint32_t shift = BitmapShiftForSpan(span);
    std::vector<uint32_t> a, b;
    for (uint64_t v = 0; v < span; ++v) {
      if (rng.NextBool(0.01)) a.push_back(base + static_cast<uint32_t>(v));
      if (rng.NextBool(0.01)) b.push_back(base + static_cast<uint32_t>(v));
    }
    const uint64_t bm_a = TokenBitmap(a.data(), a.size(), base, shift);
    const uint64_t bm_b = TokenBitmap(b.data(), b.size(), base, shift);
    const uint64_t expected = LinearOverlap(a, b);
    EXPECT_EQ(
        PackedOverlap(a.data(), a.size(), bm_a, b.data(), b.size(), bm_b),
        expected);
    if ((bm_a & bm_b) == 0) {
      EXPECT_EQ(expected, 0u);  // disjoint bitmaps imply empty overlap
    }
  }
}

// ---- Global order --------------------------------------------------------

TEST(GlobalOrderTest, SortsByAscendingFrequency) {
  // freq: t0=5, t1=1, t2=3 -> order t1, t2, t0.
  GlobalOrder order = GlobalOrder::FromFrequencies({5, 1, 3});
  EXPECT_EQ(order.RankOf(1), 0u);
  EXPECT_EQ(order.RankOf(2), 1u);
  EXPECT_EQ(order.RankOf(0), 2u);
  EXPECT_EQ(order.TokenAt(0), 1u);
  EXPECT_EQ(order.FrequencyAt(0), 1u);
  EXPECT_EQ(order.FrequencyAt(2), 5u);
  EXPECT_EQ(order.TotalFrequency(), 9u);
}

TEST(GlobalOrderTest, TiesBrokenByTokenId) {
  GlobalOrder order = GlobalOrder::FromFrequencies({2, 2, 2});
  EXPECT_EQ(order.RankOf(0), 0u);
  EXPECT_EQ(order.RankOf(1), 1u);
  EXPECT_EQ(order.RankOf(2), 2u);
}

TEST(GlobalOrderTest, RankIsABijection) {
  Corpus corpus = fsjoin::testing::RandomCorpus(100, 200, 1.0, 10, 55);
  GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  std::vector<bool> seen(order.NumTokens(), false);
  for (TokenId t = 0; t < order.NumTokens(); ++t) {
    TokenRank r = order.RankOf(t);
    ASSERT_LT(r, order.NumTokens());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
    EXPECT_EQ(order.TokenAt(r), t);
  }
  // Frequencies ascend along ranks.
  for (TokenRank r = 1; r < order.NumTokens(); ++r) {
    EXPECT_LE(order.FrequencyAt(r - 1), order.FrequencyAt(r));
  }
}

TEST(GlobalOrderTest, ApplyGlobalOrderSortsRecords) {
  Corpus corpus = fsjoin::testing::RandomCorpus(50, 80, 1.0, 8, 56);
  GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  std::vector<OrderedRecord> ordered = ApplyGlobalOrder(corpus, order);
  ASSERT_EQ(ordered.size(), corpus.NumRecords());
  for (size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(ordered[i].id, corpus.records[i].id);
    EXPECT_EQ(ordered[i].tokens.size(), corpus.records[i].tokens.size());
    for (size_t j = 1; j < ordered[i].tokens.size(); ++j) {
      EXPECT_LT(ordered[i].tokens[j - 1], ordered[i].tokens[j]);
    }
  }
}

}  // namespace
}  // namespace fsjoin

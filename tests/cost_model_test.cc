// Lemma 5 as executable code: the cost model's structure (linear
// map/shuffle, quadratic-over-N reduce), the fragment-count optimum, and
// the paper's §IV sizing rules (AutoTuneConfig).

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/fsjoin.h"
#include "sim/serial_join.h"
#include "test_util.h"

namespace fsjoin {
namespace {

CorpusStats StatsFor(uint64_t records, double avg_len) {
  CorpusStats stats;
  stats.num_records = records;
  stats.avg_len = avg_len;
  stats.total_tokens = static_cast<uint64_t>(records * avg_len);
  stats.approx_bytes = stats.total_tokens * 4;
  return stats;
}

TEST(CostModelTest, MapShuffleIndependentOfFragments) {
  CostModelParams params;
  CorpusStats stats = StatsFor(10000, 80);
  CostEstimate a = EstimateFsJoinCost(stats, 1, params);
  CostEstimate b = EstimateFsJoinCost(stats, 30, params);
  EXPECT_DOUBLE_EQ(a.map, b.map);
  EXPECT_DOUBLE_EQ(a.shuffle, b.shuffle);
  EXPECT_DOUBLE_EQ(a.verify, b.verify);
}

TEST(CostModelTest, ReduceCostFallsQuadraticallyWithFragments) {
  CostModelParams params;
  params.cost_per_fragment = 0.0;  // isolate the loop-join term
  CorpusStats stats = StatsFor(10000, 80);
  double r1 = EstimateFsJoinCost(stats, 1, params).reduce;
  double r10 = EstimateFsJoinCost(stats, 10, params).reduce;
  double r100 = EstimateFsJoinCost(stats, 100, params).reduce;
  // reduce = N * (M p / N)^2 * (avg/N) ~ 1/N^2.
  EXPECT_NEAR(r1 / r10, 100.0, 1.0);
  EXPECT_NEAR(r10 / r100, 100.0, 1.0);
  // With the per-fragment overhead on, many fragments cost more again.
  CostModelParams with_overhead;
  EXPECT_GT(EstimateFsJoinCost(stats, 10000, with_overhead).reduce,
            EstimateFsJoinCost(stats, 100, with_overhead).reduce);
}

TEST(CostModelTest, OptimumIsInterior) {
  // The quadratic reduce term pushes the optimum up; the per-fragment
  // overhead pulls it down — for a large corpus the optimum is interior,
  // and it grows with corpus size.
  CostModelParams params;
  CorpusStats small = StatsFor(5000, 80);
  CorpusStats large = StatsFor(50000, 80);
  uint32_t n_small = OptimalFragments(small, 256, params);
  uint32_t n_large = OptimalFragments(large, 256, params);
  EXPECT_GT(n_small, 1u);
  EXPECT_LT(n_large, 256u);
  EXPECT_GE(n_large, n_small);
  // A degenerate corpus: reduce is negligible, the overhead dominates and
  // one fragment is best.
  CorpusStats tiny = StatsFor(2, 3);
  EXPECT_EQ(OptimalFragments(tiny, 64, params), 1u);
}

TEST(CostModelTest, ToStringMentionsPhases) {
  CostEstimate e = EstimateFsJoinCost(StatsFor(100, 10), 4, CostModelParams{});
  std::string s = e.ToString();
  EXPECT_NE(s.find("map="), std::string::npos);
  EXPECT_NE(s.find("reduce="), std::string::npos);
  EXPECT_GT(e.Total(), 0.0);
}

TEST(AutoTuneTest, FragmentsCoverWorkersAndMemory) {
  CorpusStats stats = StatsFor(10000, 80);  // ~3.2 MB
  // Plenty of memory: fragment count driven by workers / cost optimum.
  FsJoinConfig roomy = AutoTuneConfig(stats, 10, 1ull << 30, 0.8);
  EXPECT_GE(roomy.num_vertical_partitions, 10u);
  EXPECT_EQ(roomy.exec.num_map_tasks, 30u);  // 3 slots per worker
  EXPECT_EQ(roomy.exec.num_reduce_tasks, 30u);
  EXPECT_TRUE(roomy.Validate().ok());

  // Tiny memory: enough fragments that one fragment fits (and horizontal
  // partitioning kicks in).
  FsJoinConfig tight = AutoTuneConfig(stats, 4, 16 * 1024, 0.8);
  EXPECT_GE(tight.num_vertical_partitions,
            static_cast<uint32_t>(stats.approx_bytes / (16 * 1024)));
  EXPECT_GT(tight.num_horizontal_partitions, 0u);
}

TEST(AutoTuneTest, TunedConfigActuallyRuns) {
  Corpus corpus = fsjoin::testing::RandomCorpus(120, 150, 1.0, 10, 4242);
  CorpusStats stats = ComputeStats(corpus);
  FsJoinConfig config = AutoTuneConfig(stats, 3, 1 << 20, 0.7);
  config.exec.num_map_tasks = 3;  // keep the test fast
  config.exec.num_reduce_tasks = 3;
  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Exactness is independent of tuning.
  JoinResultSet expected = BruteForceJoin(
      fsjoin::testing::OrderedView(corpus), config.function, config.theta);
  EXPECT_TRUE(SamePairs(expected, out->pairs));
}

}  // namespace
}  // namespace fsjoin

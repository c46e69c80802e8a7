// End-to-end correctness of FS-Join: the three-job pipeline must produce
// exactly the brute-force result set for every configuration — all join
// methods, every filter combination, with and without horizontal
// partitioning, for all similarity functions. This is the library's central
// invariant (DESIGN.md "Per-fragment filter soundness").

#include <gtest/gtest.h>

#include "core/fsjoin.h"
#include "sim/serial_join.h"
#include "test_util.h"

namespace fsjoin {
namespace {

using ::fsjoin::testing::CorpusFromTokenSets;
using ::fsjoin::testing::OrderedView;
using ::fsjoin::testing::RandomCorpus;

FsJoinConfig BaseConfig(double theta) {
  FsJoinConfig config;
  config.theta = theta;
  config.num_vertical_partitions = 4;
  config.exec.num_map_tasks = 3;
  config.exec.num_reduce_tasks = 5;
  return config;
}

void ExpectMatchesBruteForce(const Corpus& corpus, const FsJoinConfig& config) {
  JoinResultSet expected =
      BruteForceJoin(OrderedView(corpus), config.function, config.theta);
  FsJoin join(config);
  Result<FsJoinOutput> result = join.Run(corpus);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(SamePairs(expected, result->pairs))
      << config.Summary() << "\n"
      << DiffResults(expected, result->pairs);
  // Similarity values must agree too.
  for (size_t i = 0; i < expected.size() && i < result->pairs.size(); ++i) {
    EXPECT_NEAR(expected[i].similarity, result->pairs[i].similarity, 1e-9);
  }
}

TEST(FsJoinCorrectness, PaperRunningExample) {
  // Figure 2's dataset: s1..s4 over tokens {B, C, I, J, K, A, E, G, D, F}.
  Corpus corpus = CorpusFromTokenSets({
      {1, 2, 8, 9, 10},  // s1 = {B, C, I, J, K}
      {1, 2, 8},         // s2 = {B, C, I}
      {0, 4, 6, 9},      // s3 = {A, E, G, J}
      {3, 5, 7},         // s4 = {D, F, H}
  });
  ExpectMatchesBruteForce(corpus, BaseConfig(0.5));
}

TEST(FsJoinCorrectness, TinyEdgeCases) {
  // Single record, identical records, disjoint records, single tokens.
  ExpectMatchesBruteForce(CorpusFromTokenSets({{1, 2, 3}}), BaseConfig(0.8));
  ExpectMatchesBruteForce(
      CorpusFromTokenSets({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}), BaseConfig(0.8));
  ExpectMatchesBruteForce(CorpusFromTokenSets({{1}, {2}, {3}}),
                          BaseConfig(0.8));
  ExpectMatchesBruteForce(CorpusFromTokenSets({{1}, {1}, {2, 3}}),
                          BaseConfig(0.8));
}

TEST(FsJoinCorrectness, MoreFragmentsThanTokens) {
  Corpus corpus = CorpusFromTokenSets({{1, 2}, {1, 2}, {2}});
  FsJoinConfig config = BaseConfig(0.5);
  config.num_vertical_partitions = 64;  // far more than |U|
  ExpectMatchesBruteForce(corpus, config);
}

TEST(FsJoinCorrectness, SingleFragment) {
  FsJoinConfig config = BaseConfig(0.7);
  config.num_vertical_partitions = 1;  // no pivots at all
  ExpectMatchesBruteForce(RandomCorpus(60, 80, 0.9, 8, 11), config);
}

// ---- Property sweep: every join method x filter set x partitioning ------

struct SweepParam {
  JoinMethod method;
  bool segl, segi, segd, strl;
  uint32_t horizontal;
  const char* name;
};

class FsJoinSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FsJoinSweep, MatchesBruteForceJaccard) {
  const SweepParam& p = GetParam();
  FsJoinConfig config = BaseConfig(0.6);
  config.join_method = p.method;
  config.use_length_filter = p.strl;
  config.use_segment_length_filter = p.segl;
  config.use_segment_intersection_filter = p.segi;
  config.use_segment_difference_filter = p.segd;
  config.num_horizontal_partitions = p.horizontal;
  ExpectMatchesBruteForce(RandomCorpus(120, 150, 1.0, 10, 101), config);
}

TEST_P(FsJoinSweep, MatchesBruteForceHighTheta) {
  const SweepParam& p = GetParam();
  FsJoinConfig config = BaseConfig(0.9);
  config.join_method = p.method;
  config.use_length_filter = p.strl;
  config.use_segment_length_filter = p.segl;
  config.use_segment_intersection_filter = p.segi;
  config.use_segment_difference_filter = p.segd;
  config.num_horizontal_partitions = p.horizontal;
  ExpectMatchesBruteForce(RandomCorpus(100, 120, 1.1, 12, 202), config);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FsJoinSweep,
    ::testing::Values(
        SweepParam{JoinMethod::kLoop, false, false, false, false, 0,
                   "loop_nofilters"},
        SweepParam{JoinMethod::kLoop, true, true, true, true, 0,
                   "loop_allfilters"},
        SweepParam{JoinMethod::kIndex, false, false, false, true, 0,
                   "index_strl"},
        SweepParam{JoinMethod::kIndex, true, true, true, true, 3,
                   "index_horizontal"},
        SweepParam{JoinMethod::kPrefix, false, false, false, false, 0,
                   "prefix_nofilters"},
        SweepParam{JoinMethod::kPrefix, true, false, false, true, 0,
                   "prefix_segl"},
        SweepParam{JoinMethod::kPrefix, false, true, false, true, 0,
                   "prefix_segi"},
        SweepParam{JoinMethod::kPrefix, false, false, true, true, 0,
                   "prefix_segd"},
        SweepParam{JoinMethod::kPrefix, true, true, true, true, 0,
                   "prefix_allfilters"},
        SweepParam{JoinMethod::kPrefix, true, true, true, true, 2,
                   "prefix_horizontal2"},
        SweepParam{JoinMethod::kPrefix, true, true, true, true, 5,
                   "prefix_horizontal5"}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return info.param.name;
    });

// ---- Similarity functions ----------------------------------------------

class FsJoinFunctions
    : public ::testing::TestWithParam<std::pair<SimilarityFunction, double>> {
};

TEST_P(FsJoinFunctions, MatchesBruteForce) {
  FsJoinConfig config = BaseConfig(GetParam().second);
  config.function = GetParam().first;
  config.num_horizontal_partitions = 2;
  ExpectMatchesBruteForce(RandomCorpus(110, 140, 1.0, 9, 303), config);
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, FsJoinFunctions,
    ::testing::Values(std::make_pair(SimilarityFunction::kJaccard, 0.7),
                      std::make_pair(SimilarityFunction::kDice, 0.8),
                      std::make_pair(SimilarityFunction::kCosine, 0.75)),
    [](const ::testing::TestParamInfo<std::pair<SimilarityFunction, double>>&
           info) {
      return SimilarityFunctionName(info.param.first);
    });

// ---- Pivot strategies ----------------------------------------------------

class FsJoinPivots : public ::testing::TestWithParam<PivotStrategy> {};

TEST_P(FsJoinPivots, MatchesBruteForce) {
  FsJoinConfig config = BaseConfig(0.65);
  config.pivot_strategy = GetParam();
  config.num_vertical_partitions = 7;
  ExpectMatchesBruteForce(RandomCorpus(100, 130, 1.0, 10, 404), config);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FsJoinPivots,
                         ::testing::Values(PivotStrategy::kRandom,
                                           PivotStrategy::kEvenInterval,
                                           PivotStrategy::kEvenTf),
                         [](const ::testing::TestParamInfo<PivotStrategy>& i) {
                           std::string n = PivotStrategyName(i.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---- Threshold sweep ------------------------------------------------------

class FsJoinThetas : public ::testing::TestWithParam<double> {};

TEST_P(FsJoinThetas, MatchesBruteForce) {
  FsJoinConfig config = BaseConfig(GetParam());
  config.num_horizontal_partitions = 3;
  ExpectMatchesBruteForce(RandomCorpus(120, 160, 1.05, 11, 505), config);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FsJoinThetas,
                         ::testing::Values(0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9,
                                           0.95, 1.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "theta" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100 + 0.5));
                         });

// ---- Multi-threaded engine must agree with inline execution ------------

TEST(FsJoinCorrectness, ThreadedEngineMatches) {
  FsJoinConfig config = BaseConfig(0.7);
  config.exec.num_threads = 4;
  config.num_horizontal_partitions = 2;
  ExpectMatchesBruteForce(RandomCorpus(150, 200, 1.0, 10, 606), config);
}

// ---- R-S join ------------------------------------------------------------

TEST(FsJoinCorrectness, RsJoinMatchesFilteredBruteForce) {
  Corpus r = RandomCorpus(60, 100, 1.0, 9, 707);
  Corpus s = RandomCorpus(70, 100, 1.0, 9, 708);
  FsJoinConfig config = BaseConfig(0.5);

  Result<FsJoinOutput> result = FsJoinRS(r, s, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Reference: brute force over the merged corpus, keeping only pairs that
  // straddle the R/S boundary.
  Corpus merged;
  {
    std::vector<std::vector<uint32_t>> sets;
    auto add = [&](const Corpus& c) {
      for (const Record& rec : c.records) {
        std::vector<uint32_t> set;
        for (TokenId t : rec.tokens) {
          // Token strings are "t<i>"; re-parse to ids in a shared space.
          set.push_back(static_cast<uint32_t>(
              std::stoul(std::string(c.dictionary.TokenString(t).substr(1)))));
        }
        sets.push_back(std::move(set));
      }
    };
    add(r);
    add(s);
    merged = CorpusFromTokenSets(sets);
  }
  JoinResultSet expected =
      BruteForceJoin(OrderedView(merged), config.function, config.theta);
  const RecordId boundary = static_cast<RecordId>(r.records.size());
  JoinResultSet cross;
  for (const SimilarPair& p : expected) {
    if ((p.a < boundary) != (p.b < boundary)) cross.push_back(p);
  }
  NormalizeResult(&cross);
  EXPECT_TRUE(SamePairs(cross, result->pairs))
      << DiffResults(cross, result->pairs);
}

// ---- Report sanity -----------------------------------------------------

TEST(FsJoinReportTest, CountersAreConsistent) {
  FsJoinConfig config = BaseConfig(0.8);
  FsJoin join(config);
  Result<FsJoinOutput> result = join.Run(RandomCorpus(100, 150, 1.0, 10, 809));
  ASSERT_TRUE(result.ok());
  const FsJoinReport& rep = result->report;
  EXPECT_EQ(rep.result_pairs, result->pairs.size());
  // Emitted partial overlaps == filtering job reduce output records.
  EXPECT_EQ(rep.filters.emitted, rep.filtering_job.reduce_output_records);
  // Vertical partitioning emits each token exactly once per horizontal
  // group: with horizontal off, map output record count <= input segments
  // and duplication factor is bounded by the number of fragments.
  EXPECT_LE(rep.filtering_job.DuplicationFactor(),
            static_cast<double>(config.num_vertical_partitions));
  // Candidates aggregate at least every result pair.
  EXPECT_GE(rep.candidate_pairs, rep.result_pairs);
  EXPECT_EQ(rep.pivots.size(), config.num_vertical_partitions - 1);
}


// ---- Aggressive segment prefix (paper's per-segment θ-prefix) ------------

TEST(FsJoinAggressivePrefix, NeverProducesFalsePositives) {
  Corpus corpus = RandomCorpus(200, 250, 1.1, 12, 888);
  for (double theta : {0.6, 0.8, 0.9}) {
    JoinResultSet exact =
        BruteForceJoin(OrderedView(corpus), SimilarityFunction::kJaccard,
                       theta);
    FsJoinConfig config = BaseConfig(theta);
    config.aggressive_segment_prefix = true;
    config.num_vertical_partitions = 8;
    Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
    ASSERT_TRUE(out.ok());
    // Precision 1: every reported pair is a true result (partial counts can
    // only be undercounted, so a pair passing the threshold really passes).
    for (const SimilarPair& p : out->pairs) {
      EXPECT_TRUE(std::binary_search(
          exact.begin(), exact.end(), p,
          [](const SimilarPair& x, const SimilarPair& y) {
            if (x.a != y.a) return x.a < y.a;
            return x.b < y.b;
          }))
          << "false positive (" << p.a << "," << p.b << ")";
    }
    // Recall is workload-dependent but must stay high on near-duplicate
    // data (the lost counts belong to weak fragments).
    if (!exact.empty()) {
      double recall = static_cast<double>(out->pairs.size()) /
                      static_cast<double>(exact.size());
      EXPECT_GE(recall, 0.6) << "theta=" << theta;
    }
  }
}

TEST(FsJoinAggressivePrefix, FasterCandidateGeneration) {
  Corpus corpus = RandomCorpus(300, 150, 1.2, 20, 889);
  FsJoinConfig exact_cfg = BaseConfig(0.8);
  exact_cfg.num_vertical_partitions = 8;
  FsJoinConfig aggr_cfg = exact_cfg;
  aggr_cfg.aggressive_segment_prefix = true;
  Result<FsJoinOutput> exact = FsJoin(exact_cfg).Run(corpus);
  Result<FsJoinOutput> aggr = FsJoin(aggr_cfg).Run(corpus);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(aggr.ok());
  EXPECT_LT(aggr->report.filters.pairs_considered,
            exact->report.filters.pairs_considered);
}


// ---- Execution-shape invariance ------------------------------------------

TEST(FsJoinCorrectness, ResultsInvariantToTaskAndThreadCounts) {
  Corpus corpus = RandomCorpus(130, 160, 1.0, 10, 990);
  JoinResultSet reference;
  bool first = true;
  for (uint32_t maps : {1u, 4u, 9u}) {
    for (uint32_t reduces : {1u, 7u}) {
      for (size_t threads : {size_t{0}, size_t{3}}) {
        FsJoinConfig config = BaseConfig(0.7);
        config.exec.num_map_tasks = maps;
        config.exec.num_reduce_tasks = reduces;
        config.exec.num_threads = threads;
        config.num_horizontal_partitions = 2;
        Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
        ASSERT_TRUE(out.ok());
        if (first) {
          reference = out->pairs;
          first = false;
        } else {
          EXPECT_TRUE(SamePairs(reference, out->pairs))
              << "maps=" << maps << " reduces=" << reduces
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(FsJoinCorrectness, DeterministicAcrossRuns) {
  Corpus corpus = RandomCorpus(100, 140, 1.0, 9, 991);
  FsJoinConfig config = BaseConfig(0.75);
  Result<FsJoinOutput> a = FsJoin(config).Run(corpus);
  Result<FsJoinOutput> b = FsJoin(config).Run(corpus);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SamePairs(a->pairs, b->pairs));
  EXPECT_EQ(a->report.filters.emitted, b->report.filters.emitted);
  EXPECT_EQ(a->report.candidate_pairs, b->report.candidate_pairs);
}

}  // namespace
}  // namespace fsjoin

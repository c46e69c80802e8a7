// The competitor algorithms must all be *correct* (same result set as brute
// force) — the paper's comparison is about cost, not answers. Also checks
// the cost signatures the paper attributes to each algorithm (duplication,
// emission blowups) and the ResourceExhausted behavior used to model
// "cannot run successfully on large datasets".

#include <gtest/gtest.h>

#include <vector>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "core/fsjoin.h"
#include "sim/serial_join.h"
#include "test_util.h"
#include "text/generator.h"

namespace fsjoin {
namespace {

using ::fsjoin::testing::OrderedView;
using ::fsjoin::testing::RandomCorpus;

BaselineConfig SmallConfig(double theta) {
  BaselineConfig config;
  config.theta = theta;
  config.exec.num_map_tasks = 3;
  config.exec.num_reduce_tasks = 5;
  return config;
}

class BaselineCorrectness : public ::testing::TestWithParam<double> {};

TEST_P(BaselineCorrectness, VernicaMatchesBruteForce) {
  Corpus corpus = RandomCorpus(130, 150, 1.0, 10, 901);
  JoinResultSet expected = BruteForceJoin(
      OrderedView(corpus), SimilarityFunction::kJaccard, GetParam());
  Result<BaselineOutput> out = RunVernicaJoin(corpus, SmallConfig(GetParam()));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(SamePairs(expected, out->pairs))
      << DiffResults(expected, out->pairs);
}

TEST_P(BaselineCorrectness, VSmartMatchesBruteForce) {
  Corpus corpus = RandomCorpus(120, 150, 1.0, 9, 902);
  JoinResultSet expected = BruteForceJoin(
      OrderedView(corpus), SimilarityFunction::kJaccard, GetParam());
  Result<BaselineOutput> out = RunVSmartJoin(corpus, SmallConfig(GetParam()));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(SamePairs(expected, out->pairs))
      << DiffResults(expected, out->pairs);
}

TEST_P(BaselineCorrectness, MassJoinMergeMatchesBruteForce) {
  Corpus corpus = RandomCorpus(110, 140, 1.0, 9, 903);
  JoinResultSet expected = BruteForceJoin(
      OrderedView(corpus), SimilarityFunction::kJaccard, GetParam());
  MassJoinConfig config;
  static_cast<BaselineConfig&>(config) = SmallConfig(GetParam());
  config.length_group = 1;
  Result<BaselineOutput> out = RunMassJoin(corpus, config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(SamePairs(expected, out->pairs))
      << DiffResults(expected, out->pairs);
}

TEST_P(BaselineCorrectness, MassJoinLightMatchesBruteForce) {
  Corpus corpus = RandomCorpus(110, 140, 1.0, 9, 904);
  JoinResultSet expected = BruteForceJoin(
      OrderedView(corpus), SimilarityFunction::kJaccard, GetParam());
  MassJoinConfig config;
  static_cast<BaselineConfig&>(config) = SmallConfig(GetParam());
  config.length_group = 5;
  Result<BaselineOutput> out = RunMassJoin(corpus, config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(SamePairs(expected, out->pairs))
      << DiffResults(expected, out->pairs);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, BaselineCorrectness,
                         ::testing::Values(0.6, 0.75, 0.9),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "theta" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100 + 0.5));
                         });

TEST(BaselineCorrectness, AllAlgorithmsAgreeWithFsJoin) {
  Corpus corpus = RandomCorpus(100, 130, 1.05, 10, 905);
  const double theta = 0.7;

  FsJoinConfig fs_config;
  fs_config.theta = theta;
  fs_config.num_vertical_partitions = 5;
  Result<FsJoinOutput> fs = FsJoin(fs_config).Run(corpus);
  ASSERT_TRUE(fs.ok());

  Result<BaselineOutput> vernica =
      RunVernicaJoin(corpus, SmallConfig(theta));
  Result<BaselineOutput> vsmart = RunVSmartJoin(corpus, SmallConfig(theta));
  MassJoinConfig mj_config;
  static_cast<BaselineConfig&>(mj_config) = SmallConfig(theta);
  Result<BaselineOutput> massjoin = RunMassJoin(corpus, mj_config);
  ASSERT_TRUE(vernica.ok());
  ASSERT_TRUE(vsmart.ok());
  ASSERT_TRUE(massjoin.ok());

  EXPECT_TRUE(SamePairs(fs->pairs, vernica->pairs));
  EXPECT_TRUE(SamePairs(fs->pairs, vsmart->pairs));
  EXPECT_TRUE(SamePairs(fs->pairs, massjoin->pairs));
}

// ---- Cost signatures -----------------------------------------------------

TEST(BaselineCostShape, VernicaDuplicatesRecordsPerPrefixToken) {
  Corpus corpus = RandomCorpus(200, 300, 1.0, 12, 906);
  Result<BaselineOutput> out = RunVernicaJoin(corpus, SmallConfig(0.8));
  ASSERT_TRUE(out.ok());
  // Each record is emitted once per prefix token: duplication strictly
  // above 1 for theta < 1.
  EXPECT_GT(out->report.DuplicationFactor(corpus.NumRecords()), 1.5);
}

TEST(BaselineCostShape, FsJoinShufflesLessThanVSmart) {
  Corpus corpus = RandomCorpus(150, 200, 1.0, 10, 907);
  FsJoinConfig fs_config;
  fs_config.theta = 0.8;
  Result<FsJoinOutput> fs = FsJoin(fs_config).Run(corpus);
  Result<BaselineOutput> vsmart = RunVSmartJoin(corpus, SmallConfig(0.8));
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(vsmart.ok());
  uint64_t vsmart_shuffle = 0;
  for (const auto& j : vsmart->report.jobs) vsmart_shuffle += j.shuffle_bytes;
  uint64_t fs_shuffle = fs->report.filtering_job.shuffle_bytes +
                        fs->report.verification_job.shuffle_bytes;
  EXPECT_LT(fs_shuffle, vsmart_shuffle);
}

TEST(BaselineCostShape, EmissionLimitAbortsVSmart) {
  Corpus corpus = RandomCorpus(300, 100, 1.2, 15, 908);
  BaselineConfig config = SmallConfig(0.8);
  config.exec.emission_limit = 1000;  // far below the quadratic pair count
  Result<BaselineOutput> out = RunVSmartJoin(corpus, config);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(BaselineCostShape, EmissionLimitAbortsMassJoin) {
  Corpus corpus = RandomCorpus(300, 100, 1.2, 15, 909);
  MassJoinConfig config;
  static_cast<BaselineConfig&>(config) = SmallConfig(0.8);
  config.exec.emission_limit = 2000;
  Result<BaselineOutput> out = RunMassJoin(corpus, config);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
}

TEST(BaselineCostShape, MassJoinLightEmitsLessThanMerge) {
  Corpus corpus = RandomCorpus(120, 150, 1.0, 12, 910);
  MassJoinConfig merge;
  static_cast<BaselineConfig&>(merge) = SmallConfig(0.8);
  merge.length_group = 1;
  MassJoinConfig light = merge;
  light.length_group = 8;
  Result<BaselineOutput> merge_out = RunMassJoin(corpus, merge);
  Result<BaselineOutput> light_out = RunMassJoin(corpus, light);
  ASSERT_TRUE(merge_out.ok());
  ASSERT_TRUE(light_out.ok());
  EXPECT_LT(light_out->report.jobs[1].map_output_records,
            merge_out->report.jobs[1].map_output_records);
}


// ---- Metrics regression ---------------------------------------------------

/// One job's data-plane counters; a history lists them in run order.
struct JobPin {
  const char* name;
  uint64_t map_input_records, map_input_bytes, map_output_records;
  uint64_t shuffle_records, shuffle_bytes;
  uint64_t reduce_output_records, reduce_output_bytes;
};

/// Same corpus as MetricsRegressionTest (jobs_test.cc).
Corpus RegressionCorpus() {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 300;
  cfg.vocab_size = 400;
  cfg.zipf_skew = 1.0;
  cfg.avg_len = 12;
  cfg.len_sigma = 0.7;
  cfg.min_len = 1;
  cfg.max_len = 56;
  cfg.near_duplicate_fraction = 0.35;
  cfg.mutation_rate = 0.12;
  cfg.seed = 4242;
  return GenerateCorpus(cfg);
}

BaselineConfig RegressionConfig() {
  BaselineConfig config;
  config.theta = 0.8;
  config.exec.num_map_tasks = 4;
  config.exec.num_reduce_tasks = 5;
  return config;
}

/// Asserts the run's job history, job by job. A mismatching job prints its
/// observed row in JobPin form.
void ExpectHistory(const BaselineReport& report,
                   const std::vector<JobPin>& want,
                   uint64_t candidate_pairs) {
  EXPECT_EQ(report.jobs.size(), want.size()) << report.algorithm;
  for (size_t i = 0; i < report.jobs.size(); ++i) {
    const mr::JobMetrics& j = report.jobs[i];
    const bool same =
        i < want.size() && j.job_name == want[i].name &&
        j.map_input_records == want[i].map_input_records &&
        j.map_input_bytes == want[i].map_input_bytes &&
        j.map_output_records == want[i].map_output_records &&
        j.shuffle_records == want[i].shuffle_records &&
        j.shuffle_bytes == want[i].shuffle_bytes &&
        j.reduce_output_records == want[i].reduce_output_records &&
        j.reduce_output_bytes == want[i].reduce_output_bytes;
    EXPECT_TRUE(same) << report.algorithm << " job " << i << " observed {\""
                      << j.job_name << "\", " << j.map_input_records << ", "
                      << j.map_input_bytes << ", " << j.map_output_records
                      << ", " << j.shuffle_records << ", " << j.shuffle_bytes
                      << ", " << j.reduce_output_records << ", "
                      << j.reduce_output_bytes << "}";
  }
  EXPECT_EQ(report.candidate_pairs, candidate_pairs) << report.algorithm;
}

// Each baseline's job history is pinned like FS-Join's: job names in run
// order and every job's record and byte counters on a fixed-seed corpus.
// Drift means a driver changed what its jobs read, shuffle or write.
TEST(BaselineMetricsRegressionTest, RidPairsPPJoinHistory) {
  Result<BaselineOutput> out =
      RunVernicaJoin(RegressionCorpus(), RegressionConfig());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectHistory(out->report,
                {{"ordering", 300, 6677, 4, 4, 2008, 1, 759},
                 {"vernica-kernel", 300, 6677, 1021, 1021, 46248, 71, 1136}},
                402);
}

TEST(BaselineMetricsRegressionTest, VSmartJoinHistory) {
  Result<BaselineOutput> out =
      RunVSmartJoin(RegressionCorpus(), RegressionConfig());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectHistory(
      out->report,
      {{"vsmart-join", 300, 6677, 4208, 4208, 27738, 124669, 1371359},
       {"verification", 124669, 1371359, 124669, 124669, 1371359, 71, 1136}},
      40149);
}

TEST(BaselineMetricsRegressionTest, MassJoinMergeHistory) {
  MassJoinConfig config;
  static_cast<BaselineConfig&>(config) = RegressionConfig();
  config.length_group = 1;
  Result<BaselineOutput> out = RunMassJoin(RegressionCorpus(), config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // The merge and verify jobs read the previous job's output plus the 300
  // ranked records.
  ExpectHistory(
      out->report,
      {{"ordering", 300, 6677, 4, 4, 2008, 1, 759},
       {"massjoin-signatures", 300, 6677, 4688, 4688, 42998, 479, 4311},
       {"massjoin-merge", 779, 14364, 779, 779, 13233, 348, 13420},
       {"massjoin-verify", 648, 23473, 648, 648, 23473, 71, 1136}},
      348);
}

}  // namespace
}  // namespace fsjoin

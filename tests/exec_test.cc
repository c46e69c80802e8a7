// The MapReduce backend: the per-job history contract, and the headline
// property — FS-Join and every baseline, run job by job on the backend,
// produce result sets byte-identical to the serial oracle.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "check/invariants.h"
#include "core/fsjoin.h"
#include "exec/backend.h"
#include "test_util.h"
#include "util/serde.h"

namespace fsjoin::exec {
namespace {

using ::fsjoin::testing::RandomCorpus;

// Reusable word-count operators.
class SplitMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    std::string current;
    for (char c : record.value + " ") {
      if (c == ' ') {
        if (!current.empty()) {
          std::string one;
          PutVarint64(&one, 1);
          out->Emit(current, one);
          current.clear();
        }
      } else {
        current.push_back(c);
      }
    }
    return Status::OK();
  }
};

class SumReducer : public mr::Reducer {
 public:
  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    uint64_t total = 0;
    for (std::string_view v : values) {
      Decoder dec(v);
      uint64_t x = 0;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&x));
      total += x;
    }
    std::string value;
    PutVarint64(&value, total);
    out->Emit(key, value);
    return Status::OK();
  }
};

mr::Dataset Words() {
  return {{"1", "a b a"}, {"2", "b c"}, {"3", "a a"}, {"4", "d"}};
}

std::map<std::string, uint64_t> Counts(const mr::Dataset& output) {
  std::map<std::string, uint64_t> counts;
  for (const mr::KeyValue& kv : output) {
    Decoder dec(kv.value);
    uint64_t v = 0;
    EXPECT_TRUE(dec.GetVarint64(&v).ok());
    counts[kv.key] += v;
  }
  return counts;
}

ExecConfig SmallExec() {
  ExecConfig config;
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 4;
  return config;
}

// ---- ExecConfig ----------------------------------------------------------

TEST(ExecConfigTest, ValidateRejectsZeroTaskCounts) {
  ExecConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_map_tasks = 0;
  EXPECT_FALSE(config.Validate().ok());
}

// ---- Backend ----------------------------------------------------------------

mr::JobConfig WordCountJob() {
  mr::JobConfig job;
  job.name = "sum";
  job.num_map_tasks = 3;
  job.num_reduce_tasks = 4;
  job.mapper_factory = [] { return std::make_unique<SplitMapper>(); };
  job.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  return job;
}

TEST(BackendTest, HistoryAccumulatesAcrossRunCalls) {
  MapReduceBackend backend(SmallExec());
  Result<mr::Dataset> first = backend.Run(WordCountJob(), Words());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto counts = Counts(*first);
  EXPECT_EQ(counts["a"], 4u);
  EXPECT_EQ(counts["b"], 2u);
  EXPECT_EQ(counts["c"], 1u);
  EXPECT_EQ(counts["d"], 1u);
  ASSERT_TRUE(backend.Run(WordCountJob(), Words()).ok());
  // One entry per Run, named after the job, in run order.
  ASSERT_EQ(backend.history().size(), 2u);
  EXPECT_EQ(backend.history()[0].job_name, "sum");
  EXPECT_EQ(backend.history()[0].shuffle_records, 8u);
  EXPECT_EQ(backend.history()[1].job_name, "sum");
}

// ---- Oracle equivalence: FS-Join and every baseline -----------------------

/// The three corpus shapes stand in for the paper's Email / PubMed / Wiki
/// datasets: short skewed records, mid-length records, long heavy-tailed
/// records.
struct CorpusShape {
  const char* name;
  uint64_t records, vocab;
  double skew, avg_len;
  uint64_t seed;
};

/// gtest_discover_tests registers each case under a name that embeds the
/// parameter's raw bytes, `name` pointer included. The names sit at fixed
/// offsets in one aligned table, so the pointer's low byte (and with it the
/// ctest name's leading bytes) does not move when unrelated code shifts the
/// binary's read-only data. The higher address bytes still change with
/// every load, so each test name of this suite is at least 29 characters
/// long: a test ID cut at 100 characters then ends before them.
alignas(256) const char kShapeNames[][48] = {"email-like", "pubmed-like",
                                             "wiki-like"};

const CorpusShape kShapes[] = {
    {kShapeNames[0], 120, 140, 1.05, 7, 9101},
    {kShapeNames[1], 110, 170, 0.9, 11, 9102},
    {kShapeNames[2], 90, 220, 1.2, 16, 9103},
};

/// Digest of the serial brute-force join: the reference every backend run
/// must match byte for byte.
uint32_t OracleDigest(const Corpus& corpus, double theta) {
  return check::ResultDigest(BruteForceJoin(
      ::fsjoin::testing::OrderedView(corpus), SimilarityFunction::kJaccard,
      theta));
}

class BackendEquivalence : public ::testing::TestWithParam<CorpusShape> {};

// FS-Join on the backend matches the serial oracle at three thresholds, and
// its ordering row and two jobs land in the report under their names.
TEST_P(BackendEquivalence, FsJoinResultsMatchSerialOracle) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed);
  for (double theta : {0.6, 0.75, 0.95}) {
    FsJoinConfig config;
    config.theta = theta;
    config.num_vertical_partitions = 5;
    config.num_horizontal_partitions = 2;
    config.exec = SmallExec();

    Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(check::ResultDigest(out->pairs), OracleDigest(corpus, theta))
        << "theta " << theta;
    EXPECT_EQ(out->report.ordering_job.job_name, "ordering");
    EXPECT_EQ(out->report.filtering_job.job_name, "filtering");
    EXPECT_EQ(out->report.verification_job.job_name, "verification");
    // The verification job's reduce output is the result set.
    EXPECT_EQ(out->report.verification_job.reduce_output_records,
              out->pairs.size());
  }
}

// Every baseline on the backend matches the serial oracle, and its
// signature stage resolves by name.
TEST_P(BackendEquivalence, BaselinesResultsMatchSerialOracle) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 50);
  BaselineConfig config;
  config.theta = 0.75;
  config.exec = SmallExec();
  const uint32_t oracle = OracleDigest(corpus, config.theta);

  auto check = [&](Result<BaselineOutput> out) {
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(check::ResultDigest(out->pairs), oracle)
        << out->report.algorithm;
    const mr::JobMetrics* sig = out->report.SignatureJob();
    ASSERT_NE(sig, nullptr) << out->report.algorithm;
    EXPECT_EQ(sig->job_name, out->report.signature_stage);
  };

  check(RunVernicaJoin(corpus, config));
  check(RunVSmartJoin(corpus, config));
  MassJoinConfig mj;
  static_cast<BaselineConfig&>(mj) = config;
  check(RunMassJoin(corpus, mj));
}

// Acceptance for the external shuffle: with the budget far below the
// shuffle volume every job spills run files to disk, yet FS-Join
// produces the identical result set, and the report carries real measured
// spill volume.
TEST_P(BackendEquivalence, FsJoinForcedSpillMatchesInMemory) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 200);
  FsJoinConfig config;
  config.theta = 0.75;
  config.num_vertical_partitions = 5;
  config.num_horizontal_partitions = 2;
  config.exec = SmallExec();

  Result<FsJoinOutput> in_memory = FsJoin(config).Run(corpus);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  uint64_t baseline_spill = 0;
  for (const mr::JobMetrics& job : in_memory->report.AllJobs()) {
    baseline_spill += job.spilled_bytes;
  }
  EXPECT_EQ(baseline_spill, 0u);  // spill off by default

  FsJoinConfig spill_config = config;
  spill_config.exec.shuffle_memory_bytes = 256;  // way below shuffle size
  Result<FsJoinOutput> spilled = FsJoin(spill_config).Run(corpus);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(SamePairs(in_memory->pairs, spilled->pairs))
      << DiffResults(in_memory->pairs, spilled->pairs);
  uint64_t spilled_bytes = 0;
  uint32_t spill_runs = 0;
  for (const mr::JobMetrics& job : spilled->report.AllJobs()) {
    spilled_bytes += job.spilled_bytes;
    spill_runs += job.spill_runs;
  }
  EXPECT_GT(spilled_bytes, 0u);
  EXPECT_GT(spill_runs, 0u);
}

TEST_P(BackendEquivalence, BaselinesForcedSpillMatchesInMemory) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 250);
  BaselineConfig config;
  config.theta = 0.75;
  config.exec = SmallExec();
  BaselineConfig spill_config = config;
  spill_config.exec.shuffle_memory_bytes = 256;

  auto check = [&](Result<BaselineOutput> in_memory,
                   Result<BaselineOutput> spilled) {
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_TRUE(SamePairs(in_memory->pairs, spilled->pairs))
        << spilled->report.algorithm << ": "
        << DiffResults(in_memory->pairs, spilled->pairs);
    uint64_t spilled_bytes = 0;
    for (const mr::JobMetrics& job : spilled->report.jobs) {
      spilled_bytes += job.spilled_bytes;
    }
    EXPECT_GT(spilled_bytes, 0u) << spilled->report.algorithm;
  };

  check(RunVernicaJoin(corpus, config), RunVernicaJoin(corpus, spill_config));
  check(RunVSmartJoin(corpus, config), RunVSmartJoin(corpus, spill_config));
  MassJoinConfig mj, mj_spill;
  static_cast<BaselineConfig&>(mj) = config;
  static_cast<BaselineConfig&>(mj_spill) = spill_config;
  check(RunMassJoin(corpus, mj), RunMassJoin(corpus, mj_spill));
}

// The thread runner lends its pool to the filtering reducers, which cut
// every fragment larger than one morsel into morsels on it. Results, every
// filter counter and the filtering job's bytes must equal the inline run
// (num_threads 0, no pool, serial joins) at 4 and 8 threads. At four times
// the shape's records the largest fragments hold several morsels.
TEST_P(BackendEquivalence, ParallelFragmentJoinMatchesSerial) {
  const CorpusShape& shape = GetParam();
  Corpus corpus = RandomCorpus(4 * shape.records, shape.vocab, shape.skew,
                               shape.avg_len, shape.seed + 100);
  FsJoinConfig config;
  config.theta = 0.7;
  config.num_vertical_partitions = 5;
  config.num_horizontal_partitions = 2;
  config.exec = SmallExec();
  config.exec.num_threads = 0;

  Result<FsJoinOutput> serial = FsJoin(config).Run(corpus);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (size_t threads : {size_t{4}, size_t{8}}) {
    FsJoinConfig par_config = config;
    par_config.exec.num_threads = threads;
    Result<FsJoinOutput> parallel = FsJoin(par_config).Run(corpus);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(SamePairs(serial->pairs, parallel->pairs))
        << DiffResults(serial->pairs, parallel->pairs);
    const FilterCounters& sc = serial->report.filters;
    const FilterCounters& pc = parallel->report.filters;
    EXPECT_EQ(sc.pairs_considered, pc.pairs_considered);
    EXPECT_EQ(sc.pruned_role, pc.pruned_role);
    EXPECT_EQ(sc.pruned_strl, pc.pruned_strl);
    EXPECT_EQ(sc.pruned_segl, pc.pruned_segl);
    EXPECT_EQ(sc.pruned_segi, pc.pruned_segi);
    EXPECT_EQ(sc.pruned_segd, pc.pruned_segd);
    EXPECT_EQ(sc.empty_overlap, pc.empty_overlap);
    EXPECT_EQ(sc.emitted, pc.emitted);
    // The filtering job's data-plane metrics must be byte-identical.
    const mr::JobMetrics& sj = serial->report.filtering_job;
    const mr::JobMetrics& pj = parallel->report.filtering_job;
    EXPECT_EQ(sj.map_output_records, pj.map_output_records);
    EXPECT_EQ(sj.map_output_bytes, pj.map_output_bytes);
    EXPECT_EQ(sj.shuffle_records, pj.shuffle_records);
    EXPECT_EQ(sj.shuffle_bytes, pj.shuffle_bytes);
    EXPECT_EQ(sj.reduce_output_records, pj.reduce_output_records);
    EXPECT_EQ(sj.reduce_output_bytes, pj.reduce_output_bytes);
    EXPECT_EQ(serial->report.candidate_pairs,
              parallel->report.candidate_pairs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackendEquivalence, ::testing::ValuesIn(kShapes),
    [](const ::testing::TestParamInfo<CorpusShape>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Report plumbing -----------------------------------------------------

TEST(BaselineReportTest, SignatureJobLookup) {
  BaselineReport report;
  EXPECT_EQ(report.SignatureJob(), nullptr);
  report.signature_stage = "vernica-kernel";
  EXPECT_EQ(report.SignatureJob(), nullptr);
  mr::JobMetrics job;
  job.job_name = "vernica-kernel";
  job.map_output_records = 42;
  report.jobs.push_back(job);
  ASSERT_NE(report.SignatureJob(), nullptr);
  EXPECT_EQ(report.SignatureJob()->map_output_records, 42u);
  EXPECT_DOUBLE_EQ(report.DuplicationFactor(21), 2.0);
}

}  // namespace
}  // namespace fsjoin::exec

// R-S two-collection join correctness end to end: the
// RS(C, C) ≡ Self(C) property (R-S over two copies of a corpus must equal
// the self-join plus exactly the symmetric and reflexive pairs a self-join
// suppresses), the edge cases ISSUE 10 calls out (empty R or S, disjoint
// vocabularies with the identity-mapping guarantee of MergeJoinInput, one
// side entirely outside the other's length-filter window), and digest
// identity across join methods x runners for all four
// algorithms against the BruteForceJoinRS oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "baselines/massjoin.h"
#include "baselines/vernica_join.h"
#include "baselines/vsmart_join.h"
#include "check/invariants.h"
#include "core/fsjoin.h"
#include "sim/serial_join.h"
#include "test_util.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fsjoin {
namespace {

using mr::RunnerKind;
using ::fsjoin::testing::CorpusFromTokenSets;
using ::fsjoin::testing::OrderedView;
using ::fsjoin::testing::RandomCorpus;

/// Raw token-id sets of a corpus — the shared vocabulary both sides of a
/// merged R-S corpus are rebuilt from.
std::vector<std::vector<uint32_t>> SetsOf(const Corpus& corpus) {
  std::vector<std::vector<uint32_t>> sets;
  sets.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    sets.emplace_back(rec.tokens.begin(), rec.tokens.end());
  }
  return sets;
}

/// Concatenates R's and S's token sets into one merged corpus over a shared
/// vocabulary; the R/S boundary is r_sets.size().
Corpus MergedCorpus(const std::vector<std::vector<uint32_t>>& r_sets,
                    const std::vector<std::vector<uint32_t>>& s_sets) {
  std::vector<std::vector<uint32_t>> all = r_sets;
  all.insert(all.end(), s_sets.begin(), s_sets.end());
  return CorpusFromTokenSets(all);
}

FsJoinConfig RsConfig(double theta, RecordId boundary) {
  FsJoinConfig config;
  config.theta = theta;
  config.num_vertical_partitions = 4;
  config.num_horizontal_partitions = 2;
  config.exec.num_map_tasks = 3;
  config.exec.num_reduce_tasks = 5;
  config.rs_boundary = boundary;
  return config;
}

/// Runs one of the four algorithms in R-S mode and returns its pairs.
JoinResultSet RunAlgorithmRS(int algorithm, const Corpus& corpus,
                             RecordId boundary, double theta,
                             const exec::ExecConfig& exec_config) {
  switch (algorithm) {
    case 0: {
      FsJoinConfig config = RsConfig(theta, boundary);
      config.exec = exec_config;
      auto out = FsJoin(config).Run(corpus);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    case 1: {
      BaselineConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = boundary;
      auto out = RunVernicaJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    case 2: {
      BaselineConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = boundary;
      auto out = RunVSmartJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
    default: {
      MassJoinConfig config;
      config.theta = theta;
      config.exec = exec_config;
      config.rs_boundary = boundary;
      config.length_group = 2;
      auto out = RunMassJoin(corpus, config);
      EXPECT_TRUE(out.ok()) << out.status().ToString();
      return out.ok() ? std::move(out->pairs) : JoinResultSet{};
    }
  }
}

constexpr const char* kAlgorithmNames[] = {"fsjoin", "vernica", "vsmart",
                                           "massjoin"};

// ---- Property: RS(C, C) == Self(C) + suppressed pairs --------------------

// A self-join emits each similar pair {a, b} once (normalized a < b) and
// never pairs a record with itself. Running the same corpus as both R and S
// must recover exactly what self-join suppressed: every pair in both
// orientations — (a, |C|+b) and (b, |C|+a) — plus the reflexive diagonal
// (i, |C|+i) at similarity 1.0.
JoinResultSet RsExpectedFromSelf(const JoinResultSet& self, size_t n) {
  JoinResultSet expected;
  expected.reserve(self.size() * 2 + n);
  for (const SimilarPair& p : self) {
    expected.push_back(
        {p.a, static_cast<RecordId>(p.b + n), p.similarity});
    expected.push_back(
        {p.b, static_cast<RecordId>(p.a + n), p.similarity});
  }
  for (size_t i = 0; i < n; ++i) {
    expected.push_back(
        {static_cast<RecordId>(i), static_cast<RecordId>(i + n), 1.0});
  }
  NormalizeResult(&expected);
  return expected;
}

TEST(RsJoinProperty, RsOfCorpusWithItselfEqualsSelfJoinPlusSuppressed) {
  const double theta = 0.6;
  const Corpus corpus = RandomCorpus(50, 70, 1.0, 8, 42);
  const auto sets = SetsOf(corpus);
  const Corpus merged = MergedCorpus(sets, sets);
  const RecordId boundary = static_cast<RecordId>(sets.size());

  const JoinResultSet self = BruteForceJoin(
      OrderedView(corpus), SimilarityFunction::kJaccard, theta);
  ASSERT_GT(self.size(), 0u);
  const JoinResultSet expected = RsExpectedFromSelf(self, sets.size());
  const uint32_t expected_digest = check::ResultDigest(expected);

  // The oracle itself must satisfy the property — anchors everything else.
  EXPECT_TRUE(SamePairs(
      expected, BruteForceJoinRS(OrderedView(merged), boundary,
                                 SimilarityFunction::kJaccard, theta)));

  // All four algorithms: byte-identical to the expected set.
  for (int algorithm = 0; algorithm < 4; ++algorithm) {
    exec::ExecConfig exec_config;
    exec_config.num_map_tasks = 3;
    exec_config.num_reduce_tasks = 5;
    const JoinResultSet pairs =
        RunAlgorithmRS(algorithm, merged, boundary, theta, exec_config);
    EXPECT_TRUE(SamePairs(expected, pairs))
        << kAlgorithmNames[algorithm] << "\n"
        << DiffResults(expected, pairs);
    EXPECT_EQ(check::ResultDigest(pairs), expected_digest)
        << kAlgorithmNames[algorithm];
  }
}

// ---- Edge case: empty R or empty S ---------------------------------------

TEST(RsJoinEdgeCases, EmptySideProducesNoPairsInAllAlgorithms) {
  const Corpus corpus = RandomCorpus(40, 60, 1.0, 8, 77);
  const RecordId n = static_cast<RecordId>(corpus.records.size());
  // boundary == 0: R is empty (no probe side); boundary == n: S is empty
  // (no build side). Either way the cross space is empty.
  for (RecordId boundary : {RecordId{0}, n}) {
    for (int algorithm = 0; algorithm < 4; ++algorithm) {
      const JoinResultSet pairs =
          RunAlgorithmRS(algorithm, corpus, boundary, 0.5, {});
      EXPECT_TRUE(pairs.empty())
          << kAlgorithmNames[algorithm] << " boundary=" << boundary
          << " emitted " << pairs.size() << " pairs";
    }
  }
}

TEST(RsJoinEdgeCases, EmptyCollectionThroughJoinInputApi) {
  const Corpus some = CorpusFromTokenSets({{1, 2, 3}, {1, 2, 4}, {5, 6}});
  const Corpus empty = CorpusFromTokenSets({});
  FsJoinConfig config;
  config.theta = 0.5;
  config.num_vertical_partitions = 2;

  Result<FsJoinOutput> r_empty = FsJoinRS(empty, some, config);
  ASSERT_TRUE(r_empty.ok()) << r_empty.status().ToString();
  EXPECT_TRUE(r_empty->pairs.empty());

  Result<FsJoinOutput> s_empty = FsJoinRS(some, empty, config);
  ASSERT_TRUE(s_empty.ok()) << s_empty.status().ToString();
  EXPECT_TRUE(s_empty->pairs.empty());
}

// FsJoinReport::total_wall_ms covers the whole Run(JoinInput), including
// the R-S merge before the jobs and the merged corpus's release after. A
// large flat vocabulary makes the merge, which interns every S token
// string into the union dictionary, about half of the call.
TEST(RsJoinReport, ReportedWallCoversTheMergeAndTheJoin) {
  const Corpus r = testing::RandomCorpus(200, 200000, 0.0, 50.0, 21);
  const Corpus s = testing::RandomCorpus(4000, 200000, 0.0, 50.0, 22);
  FsJoinConfig config;
  config.theta = 0.95;
  config.exec.num_threads = 2;
  const auto start = std::chrono::steady_clock::now();
  Result<FsJoinOutput> out = FsJoin(config).Run(JoinInput{r, s});
  const double outer_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GE(out->report.total_wall_ms, 0.8 * outer_ms)
      << "reported " << out->report.total_wall_ms << " ms of " << outer_ms;
}

// ---- Edge case: disjoint vocabularies ------------------------------------

TEST(RsJoinEdgeCases, DisjointVocabulariesNeverRemapProbeTokens) {
  // R and S share no token strings. MergeJoinInput interns R's dictionary
  // first in token-id order, so the union mapping must be the identity on
  // every R record — probe tokens are never remapped.
  WhitespaceTokenizer tokenizer;
  const Corpus r =
      BuildCorpus({"ra rb rc", "rb rc rd", "ra rd"}, tokenizer);
  const Corpus s =
      BuildCorpus({"sa sb sc sd", "sb sc", "sa sd se"}, tokenizer);

  const Corpus merged = MergeJoinInput(JoinInput{r, s});
  ASSERT_EQ(merged.records.size(), r.records.size() + s.records.size());
  for (size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(merged.records[i].tokens, r.records[i].tokens)
        << "R record " << i << " was remapped by the union dictionary";
  }
  // S ids are offset by |R| and its tokens live above R's id range.
  for (size_t i = 0; i < s.records.size(); ++i) {
    for (TokenId t : merged.records[r.records.size() + i].tokens) {
      EXPECT_GE(static_cast<size_t>(t), r.dictionary.size());
    }
  }

  // No shared token -> no similar pair at any positive threshold.
  FsJoinConfig config;
  config.theta = 0.1;
  config.num_vertical_partitions = 3;
  Result<FsJoinOutput> out = FsJoinRS(r, s, config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out->pairs.empty());
  EXPECT_EQ(out->report.candidate_pairs, 0u);
}

/// The plain merge every MergeJoinInput must reproduce: R's dictionary in id
/// order, then every occurrence of R and S interned in record order, with
/// frequencies counted over both sides.
Corpus InternEveryOccurrence(const Corpus& r, const Corpus& s) {
  Corpus expected;
  for (TokenId t = 0; t < r.dictionary.size(); ++t) {
    expected.dictionary.Intern(r.dictionary.TokenString(t));
  }
  for (const Corpus* side : {&r, &s}) {
    for (const Record& rec : side->records) {
      Record copy;
      copy.id = static_cast<RecordId>(expected.records.size());
      for (TokenId t : rec.tokens) {
        copy.tokens.push_back(
            expected.dictionary.Intern(side->dictionary.TokenString(t)));
      }
      std::sort(copy.tokens.begin(), copy.tokens.end());
      for (TokenId t : copy.tokens) expected.dictionary.AddFrequency(t, 1);
      expected.records.push_back(std::move(copy));
    }
  }
  return expected;
}

/// Merges R and S inline and on pools of 1, 2, 4 and 7 threads; strings,
/// ids, frequencies and records must equal the intern-every-occurrence
/// reference every time.
void ExpectMergeMatchesReference(const Corpus& r, const Corpus& s) {
  const Corpus expected = InternEveryOccurrence(r, s);
  for (size_t threads : {0, 1, 2, 4, 7}) {
    SCOPED_TRACE(::testing::Message() << threads << " pool threads");
    ThreadPool pool(threads);
    const Corpus merged =
        MergeJoinInput(JoinInput{r, s}, threads == 0 ? nullptr : &pool);
    ASSERT_TRUE(merged.Validate().ok());
    ASSERT_EQ(merged.dictionary.size(), expected.dictionary.size());
    for (TokenId t = 0; t < merged.dictionary.size(); ++t) {
      ASSERT_EQ(merged.dictionary.TokenString(t),
                expected.dictionary.TokenString(t));
      ASSERT_EQ(merged.dictionary.Frequency(t),
                expected.dictionary.Frequency(t));
    }
    ASSERT_EQ(merged.records.size(), expected.records.size());
    for (size_t i = 0; i < merged.records.size(); ++i) {
      ASSERT_EQ(merged.records[i].id, expected.records[i].id);
      ASSERT_EQ(merged.records[i].tokens, expected.records[i].tokens) << i;
    }
  }
}

TEST(RsJoinEdgeCases, MergeMatchesInterningEveryOccurrence) {
  // GenerateCorpus dictionaries pre-intern the whole vocabulary, so most ids
  // are unused and S meets its tokens out of id order. Both sides exceed
  // one chunk of records (kCorpusRecordGrain) and S's vocabulary several
  // chunks of lookups, so the pooled runs split every pass.
  const Corpus r = RandomCorpus(1500, 5000, 1.0, 8, 5);
  const Corpus s = RandomCorpus(2600, 9000, 0.8, 10, 6);
  ExpectMergeMatchesReference(r, s);
}

TEST(RsJoinEdgeCases, MergeOfEmptyS) {
  const Corpus r = RandomCorpus(1200, 3000, 1.0, 8, 7);
  const Corpus s;
  ExpectMergeMatchesReference(r, s);
}

TEST(RsJoinEdgeCases, MergeOfSWhoseTokensAreAllInR) {
  // S holds a subset of R's records, re-tokenized into its own dictionary:
  // every S token maps to R's id and none is appended.
  WhitespaceTokenizer tokenizer;
  std::vector<std::string> r_lines, s_lines;
  for (int i = 0; i < 1500; ++i) {
    r_lines.push_back(StrFormat("w%d w%d w%d w%d", i % 97, (i * 7) % 211,
                                (i * 13) % 401, i % 5));
    if (i % 3 == 0) s_lines.push_back(r_lines.back());
  }
  const Corpus r = BuildCorpus(r_lines, tokenizer);
  const Corpus s = BuildCorpus(s_lines, tokenizer);
  ExpectMergeMatchesReference(r, s);
  EXPECT_EQ(MergeJoinInput(JoinInput{r, s}).dictionary.size(),
            r.dictionary.size());
}

TEST(RsJoinEdgeCases, MergeWithUnusedRDictionaryIds) {
  // R's dictionary holds ids no R record uses, some of them S tokens: those
  // keep R's ids, with frequencies counted from S alone, and the unused
  // rest keep frequency 0.
  WhitespaceTokenizer tokenizer;
  std::vector<std::string> r_lines, s_lines;
  for (int i = 0; i < 1300; ++i) {
    r_lines.push_back(StrFormat("r%d r%d c%d", i % 50, i % 77, i % 11));
    s_lines.push_back(StrFormat("s%d c%d u%d", i % 300, i % 13, i % 9));
  }
  Corpus r = BuildCorpus(r_lines, tokenizer);
  for (int i = 0; i < 9; i += 2) r.dictionary.Intern(StrFormat("u%d", i));
  r.dictionary.Intern("never-used");
  const Corpus s = BuildCorpus(s_lines, tokenizer);
  ExpectMergeMatchesReference(r, s);
}

// ---- Edge case: one side entirely outside the length-filter window -------

TEST(RsJoinEdgeCases, LengthWindowDisjointSidesYieldZeroCandidates) {
  // Every R record has 2 tokens, every S record has 20. At theta = 0.8
  // Jaccard a length-2 probe admits partners of length 2..2, so the whole
  // cross space is pruned by the StrL-Filter — but the sides deliberately
  // share tokens so candidates WOULD exist without it.
  std::vector<std::vector<uint32_t>> r_sets, s_sets;
  for (uint32_t i = 0; i < 8; ++i) {
    r_sets.push_back({i, i + 1});
    std::vector<uint32_t> big;
    for (uint32_t t = 0; t < 20; ++t) big.push_back(i + t);
    s_sets.push_back(std::move(big));
  }
  const Corpus merged = MergedCorpus(r_sets, s_sets);
  const RecordId boundary = static_cast<RecordId>(r_sets.size());

  FsJoinConfig config = RsConfig(0.8, boundary);
  config.join_method = JoinMethod::kLoop;  // consider pairs, then prune
  Result<FsJoinOutput> out = FsJoin(config).Run(merged);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_TRUE(out->pairs.empty());
  EXPECT_EQ(out->report.candidate_pairs, 0u);
  EXPECT_EQ(out->report.result_pairs, 0u);
  // Full metrics accounting even on the all-pruned path: every considered
  // pair lands in exactly one pruning bucket and nothing is emitted.
  const FilterCounters& c = out->report.filters;
  EXPECT_EQ(c.emitted, 0u);
  EXPECT_EQ(c.pairs_considered,
            c.pruned_role + c.pruned_strl + c.pruned_segl + c.pruned_segi +
                c.pruned_segd + c.empty_overlap + c.emitted);
}

// ---- Digest identity: methods against the oracle ------------------------

TEST(RsJoinMatrix, MethodsMatchOracle) {
  const double theta = 0.6;
  const auto r_sets = SetsOf(RandomCorpus(40, 80, 1.0, 9, 501));
  const auto s_sets = SetsOf(RandomCorpus(55, 80, 1.0, 9, 502));
  const Corpus merged = MergedCorpus(r_sets, s_sets);
  const RecordId boundary = static_cast<RecordId>(r_sets.size());

  const JoinResultSet oracle = BruteForceJoinRS(
      OrderedView(merged), boundary, SimilarityFunction::kJaccard, theta);
  ASSERT_GT(oracle.size(), 0u);
  const uint32_t oracle_digest = check::ResultDigest(oracle);

  for (JoinMethod method :
       {JoinMethod::kLoop, JoinMethod::kIndex, JoinMethod::kPrefix}) {
    FsJoinConfig config = RsConfig(theta, boundary);
    config.join_method = method;
    Result<FsJoinOutput> out = FsJoin(config).Run(merged);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(SamePairs(oracle, out->pairs))
        << JoinMethodName(method) << "\n"
        << DiffResults(oracle, out->pairs);
    EXPECT_EQ(check::ResultDigest(out->pairs), oracle_digest)
        << JoinMethodName(method);
  }
}

// ---- Digest identity: all four algorithms x runners ----------------------

TEST(RsJoinMatrix, AllAlgorithmsAllRunnersIdenticalDigests) {
  const double theta = 0.6;
  const auto r_sets = SetsOf(RandomCorpus(30, 60, 0.9, 8, 601));
  const auto s_sets = SetsOf(RandomCorpus(36, 60, 0.9, 8, 602));
  const Corpus merged = MergedCorpus(r_sets, s_sets);
  const RecordId boundary = static_cast<RecordId>(r_sets.size());

  const uint32_t oracle_digest = check::ResultDigest(BruteForceJoinRS(
      OrderedView(merged), boundary, SimilarityFunction::kJaccard, theta));

  // Cluster-runner identity lives in cluster_test.cc (ctest label
  // `cluster`); this covers the in-process and subprocess runners.
  for (RunnerKind runner :
       {RunnerKind::kInline, RunnerKind::kThreads, RunnerKind::kSubprocess}) {
    for (int algorithm = 0; algorithm < 4; ++algorithm) {
      exec::ExecConfig exec_config;
      exec_config.runner = runner;
      exec_config.num_map_tasks = 3;
      exec_config.num_reduce_tasks = 3;
      exec_config.num_threads = 2;
      const JoinResultSet pairs =
          RunAlgorithmRS(algorithm, merged, boundary, theta, exec_config);
      EXPECT_EQ(check::ResultDigest(pairs), oracle_digest)
          << kAlgorithmNames[algorithm] << " runner="
          << mr::RunnerKindName(runner);
    }
  }
}

}  // namespace
}  // namespace fsjoin

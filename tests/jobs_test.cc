// Unit tests for the MR-facing plumbing of core/: corpus dataset serde,
// the ordering job and its stripe codec, the counting-sort global order,
// the fragment partitioner, partial-overlap encoding, verification
// decoding, config validation and report structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baseline.h"
#include "core/fsjoin.h"
#include "core/jobs.h"
#include "core/pivots.h"
#include "core/segments.h"
#include "mr/engine.h"
#include "mr/task.h"
#include "test_util.h"
#include "text/generator.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/serde.h"

namespace fsjoin {
namespace {

using ::fsjoin::testing::CorpusFromTokenSets;
using ::fsjoin::testing::RandomCorpus;

TEST(CorpusDatasetTest, RoundTrip) {
  Corpus corpus = RandomCorpus(40, 60, 1.0, 8, 1);
  mr::Dataset dataset = MakeCorpusDataset(corpus);
  ASSERT_EQ(dataset.size(), corpus.NumRecords());
  for (size_t i = 0; i < dataset.size(); ++i) {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    ASSERT_TRUE(DecodeCorpusRecord(dataset[i], &rid, &tokens).ok());
    EXPECT_EQ(rid, corpus.records[i].id);
    EXPECT_EQ(tokens, corpus.records[i].tokens);
  }
  // Keys are bytewise-sortable record ids.
  EXPECT_LT(dataset[0].key, dataset[1].key);
}

TEST(CorpusDatasetTest, DecodeRejectsGarbage) {
  RecordId rid = 0;
  std::vector<TokenId> tokens;
  EXPECT_FALSE(DecodeCorpusRecord({"", ""}, &rid, &tokens).ok());
  EXPECT_FALSE(DecodeCorpusRecord({"abcd", "\xff\xff\xff"}, &rid, &tokens).ok());
}

TEST(OrderingJobTest, ComputesExactFrequencies) {
  Corpus corpus = CorpusFromTokenSets({{0, 1, 2}, {1, 2}, {2}});
  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(MakeOrderingJobConfig(2, 3, corpus.dictionary.size()),
                       MakeCorpusDataset(corpus), &output, &metrics)
                  .ok())
      << "ordering job failed";
  Result<GlobalOrder> order =
      BuildGlobalOrderFromJobOutput(output, corpus.dictionary.size());
  ASSERT_TRUE(order.ok());
  // Frequencies: t0=1, t1=2, t2=3 (token ids match interning order).
  TokenId t0 = corpus.dictionary.Lookup("t0").value();
  TokenId t1 = corpus.dictionary.Lookup("t1").value();
  TokenId t2 = corpus.dictionary.Lookup("t2").value();
  EXPECT_EQ(order->RankOf(t0), 0u);
  EXPECT_EQ(order->RankOf(t1), 1u);
  EXPECT_EQ(order->RankOf(t2), 2u);
  EXPECT_EQ(order->TotalFrequency(), 6u);
  // One stripe record per (map task, touched stripe): both map tasks touch
  // stripe 0 only.
  EXPECT_EQ(metrics.shuffle_records, 2u);
  EXPECT_EQ(metrics.reduce_output_records, 1u);
}

TEST(OrderingJobTest, RejectsOutOfVocabularyTokens) {
  Corpus corpus = CorpusFromTokenSets({{0, 1}});
  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(MakeOrderingJobConfig(1, 1, corpus.dictionary.size()),
                       MakeCorpusDataset(corpus), &output, &metrics)
                  .ok());
  // Pretend the vocabulary is smaller than the data claims.
  EXPECT_FALSE(BuildGlobalOrderFromJobOutput(output, 1).ok());
}

// A map task given an id at or above the payload vocabulary fails with a
// Status instead of growing its counters; so does the whole job.
TEST(OrderingJobTest, MapperRejectsIdOutsidePayloadVocabulary) {
  Corpus corpus = CorpusFromTokenSets({{0, 1, 2}, {1, 2}});
  const mr::Dataset input = MakeCorpusDataset(corpus);
  const mr::JobConfig config = MakeOrderingJobConfig(1, 1, 2);
  Result<mr::TaskFactories> factories =
      mr::ResolveTaskFactory(config.task_factory, config.task_payload);
  ASSERT_TRUE(factories.ok()) << factories.status().ToString();
  std::unique_ptr<mr::Mapper> mapper = factories->mapper();
  mr::Dataset sink;
  mr::VectorEmitter emitter(&sink);
  ASSERT_TRUE(mapper->Setup().ok());
  EXPECT_FALSE(mapper->Map(input[0], &emitter).ok());

  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  EXPECT_FALSE(engine.Run(config, input, &output, &metrics).ok());
}

TEST(OrderingJobTest, FactoryRejectsBadPayloads) {
  EXPECT_FALSE(mr::ResolveTaskFactory("core.ordering", "").ok());
  std::string trailing;
  PutVarint64(&trailing, 10);
  trailing.push_back('x');
  EXPECT_FALSE(mr::ResolveTaskFactory("core.ordering", trailing).ok());
  std::string too_big;
  PutVarint64(&too_big, (uint64_t{1} << 32) + 1);
  EXPECT_FALSE(mr::ResolveTaskFactory("core.ordering", too_big).ok());
}

// ---- Ordering stripe codec ------------------------------------------------

std::vector<StripeEntry> DecodeOk(const std::string& key,
                                  const std::string& value, size_t vocab,
                                  uint32_t want_stripe) {
  std::vector<StripeEntry> entries;
  uint32_t stripe = 0;
  const Status st = DecodeOrderingStripe(key, value, vocab, &stripe, &entries);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stripe, want_stripe);
  return entries;
}

TEST(OrderingStripeTest, RoundTripsStripeEdges) {
  constexpr uint32_t kW = kOrderingStripeWidth;
  const size_t vocab = 3 * kW + 10;
  const TokenId last = static_cast<TokenId>(vocab - 1);
  const std::vector<std::pair<uint32_t, std::vector<StripeEntry>>> cases = {
      {0, {{0, 1}, {kW - 1, 7}}},
      {1, {{kW, 3}}},
      {1, {{kW, 1}, {kW + 1, 2}, {2 * kW - 1, uint64_t{1} << 40}}},
      {3, {{3 * kW, 5}, {last, 9}}},
      {2, {}},  // empty stripe: just the zero entry count
  };
  for (const auto& [stripe, entries] : cases) {
    std::string key, value;
    EncodeOrderingStripe(stripe, entries, &key, &value);
    ASSERT_EQ(key.size(), 4u);
    EXPECT_EQ(DecodeOk(key, value, vocab, stripe), entries)
        << "stripe " << stripe;
  }
  std::string key, value;
  EncodeOrderingStripe(2, {}, &key, &value);
  EXPECT_EQ(value, std::string(1, '\0'));
}

TEST(OrderingStripeTest, DecodeRejectsMalformedStripes) {
  constexpr uint32_t kW = kOrderingStripeWidth;
  const size_t vocab = 2 * kW;
  uint32_t stripe = 0;
  std::vector<StripeEntry> entries;
  auto decodes = [&](std::string_view key, std::string_view value,
                     size_t vocab_size) {
    return DecodeOrderingStripe(key, value, vocab_size, &stripe, &entries)
        .ok();
  };

  std::string key, value;
  EncodeOrderingStripe(1, {{kW + 2, 4}, {kW + 300, 1}}, &key, &value);
  ASSERT_TRUE(decodes(key, value, vocab));

  // Truncated: every strict prefix of the value.
  for (size_t keep = 0; keep < value.size(); ++keep) {
    EXPECT_FALSE(decodes(key, value.substr(0, keep), vocab))
        << "prefix of " << keep << " bytes decoded";
  }
  // Trailing bytes.
  EXPECT_FALSE(decodes(key, value + std::string(1, '\0'), vocab));
  // Malformed keys.
  EXPECT_FALSE(decodes(key.substr(0, 3), value, vocab));
  EXPECT_FALSE(decodes(key + "x", value, vocab));

  // Out of stripe: a first delta of a whole stripe, and a later delta that
  // runs past the stripe's end.
  auto raw = [](std::initializer_list<uint64_t> varints) {
    std::string v;
    for (uint64_t x : varints) PutVarint64(&v, x);
    return v;
  };
  EXPECT_FALSE(decodes(key, raw({1, kW, 1}), vocab));
  EXPECT_FALSE(decodes(key, raw({2, kW - 1, 1, 1, 1}), vocab));
  EXPECT_FALSE(decodes(key, raw({1, uint64_t{1} << 63, 1}), vocab));
  // Ids that repeat instead of ascending.
  EXPECT_FALSE(decodes(key, raw({2, 5, 1, 0, 1}), vocab));
  // More entries than a stripe holds.
  EXPECT_FALSE(decodes(key, raw({kW + 1}), vocab));
  // Out of vocabulary: inside the stripe, past the last token id.
  EXPECT_TRUE(decodes(key, raw({1, 9, 1}), kW + 10));
  EXPECT_FALSE(decodes(key, raw({1, 10, 1}), kW + 10));
  EXPECT_FALSE(decodes(key, value, kW));
}

// ---- Ordering job vs the serial order -------------------------------------

/// A generated corpus whose dictionary spans several ordering stripes.
Corpus WideVocabularyCorpus(uint64_t seed) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 900;
  cfg.vocab_size = 30000;
  cfg.zipf_skew = 0.4;
  cfg.avg_len = 24;
  cfg.len_sigma = 0.6;
  cfg.min_len = 1;
  cfg.max_len = 120;
  cfg.near_duplicate_fraction = 0.2;
  cfg.mutation_rate = 0.1;
  cfg.seed = seed;
  return GenerateCorpus(cfg);
}

void ExpectSameOrder(const GlobalOrder& got, const GlobalOrder& want,
                     const std::string& cell) {
  ASSERT_EQ(got.NumTokens(), want.NumTokens()) << cell;
  EXPECT_EQ(got.TotalFrequency(), want.TotalFrequency()) << cell;
  for (TokenRank r = 0; r < want.NumTokens(); ++r) {
    ASSERT_EQ(got.TokenAt(r), want.TokenAt(r)) << cell << " rank " << r;
    ASSERT_EQ(got.FrequencyAt(r), want.FrequencyAt(r)) << cell << " rank " << r;
  }
}

TEST(OrderingJobTest, MatchesSerialOrderAcrossTaskGridsAndRunners) {
  for (uint64_t seed : {5u, 6u}) {
    const Corpus corpus = WideVocabularyCorpus(seed);
    const size_t vocab = corpus.dictionary.size();
    ASSERT_GT(vocab, 2 * kOrderingStripeWidth) << "needs at least 3 stripes";
    const GlobalOrder want = GlobalOrder::FromCorpus(corpus);
    const mr::Dataset input = MakeCorpusDataset(corpus);
    for (mr::RunnerKind runner :
         {mr::RunnerKind::kInline, mr::RunnerKind::kThreads,
          mr::RunnerKind::kSubprocess}) {
      for (uint32_t maps : {1u, 3u, 8u}) {
        for (uint32_t reduces : {1u, 5u, 8u}) {
          const std::string cell =
              std::string(mr::RunnerKindName(runner)) + " seed " +
              std::to_string(seed) + " " + std::to_string(maps) + "x" +
              std::to_string(reduces);
          mr::EngineOptions options;
          options.runner = runner;
          options.num_threads = runner == mr::RunnerKind::kThreads ? 4 : 0;
          mr::Engine engine(options);
          mr::Dataset output;
          mr::JobMetrics metrics;
          const Status st =
              engine.Run(MakeOrderingJobConfig(maps, reduces, vocab), input,
                         &output, &metrics);
          ASSERT_TRUE(st.ok()) << cell << ": " << st.ToString();
          // At most one record per (map task, stripe) crosses the shuffle,
          // and one summed record per stripe comes out.
          const uint64_t stripes =
              (vocab + kOrderingStripeWidth - 1) / kOrderingStripeWidth;
          EXPECT_LE(metrics.shuffle_records, maps * stripes) << cell;
          EXPECT_EQ(metrics.reduce_output_records, stripes) << cell;
          Result<GlobalOrder> got =
              BuildGlobalOrderFromJobOutput(output, vocab);
          ASSERT_TRUE(got.ok()) << cell << ": " << got.status().ToString();
          ExpectSameOrder(*got, want, cell);
        }
      }
    }
  }
}

// ---- Counting-sort global order -------------------------------------------

/// The comparison sort FromFrequencies replaced: ascending frequency, ties
/// by token id.
std::vector<TokenId> ReferenceOrder(const std::vector<uint64_t>& freq) {
  std::vector<TokenId> ids(freq.size());
  for (size_t t = 0; t < ids.size(); ++t) ids[t] = static_cast<TokenId>(t);
  std::sort(ids.begin(), ids.end(), [&](TokenId a, TokenId b) {
    if (freq[a] != freq[b]) return freq[a] < freq[b];
    return a < b;
  });
  return ids;
}

void ExpectMatchesReference(const std::vector<uint64_t>& freq,
                            const std::string& label) {
  const GlobalOrder order = GlobalOrder::FromFrequencies(freq);
  const std::vector<TokenId> want = ReferenceOrder(freq);
  ASSERT_EQ(order.NumTokens(), want.size()) << label;
  uint64_t total = 0;
  for (uint64_t f : freq) total += f;
  EXPECT_EQ(order.TotalFrequency(), total) << label;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(order.TokenAt(static_cast<TokenRank>(r)), want[r])
        << label << " rank " << r;
    ASSERT_EQ(order.RankOf(want[r]), r) << label << " token " << want[r];
    ASSERT_EQ(order.FrequencyAt(static_cast<TokenRank>(r)), freq[want[r]])
        << label;
  }
}

TEST(GlobalOrderCountingSortTest, MatchesComparisonSort) {
  ExpectMatchesReference({}, "n=0");
  ExpectMatchesReference({0}, "n=1 zero");
  ExpectMatchesReference({5}, "n=1 large");
  ExpectMatchesReference(std::vector<uint64_t>(100, 0), "all zero");
  ExpectMatchesReference(std::vector<uint64_t>(100, 42), "all equal small");
  ExpectMatchesReference(std::vector<uint64_t>(100, 1000), "all equal large");
  ExpectMatchesReference({3, 3, 2, 100, 3, ~uint64_t{0}, 7, 0},
                         "frequencies >= n");

  Rng rng(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = rng.NextBounded(600);
    // Frequency ranges below, around and far above n, so buckets, the
    // >= n tail and their boundary all get exercised.
    const uint64_t bound = std::vector<uint64_t>{
        1, 2, n / 4 + 1, n + 1, 2 * n + 1, uint64_t{1} << 40}[trial % 6];
    std::vector<uint64_t> freq(n);
    for (uint64_t& f : freq) f = rng.NextBounded(bound);
    ExpectMatchesReference(freq, "trial " + std::to_string(trial) +
                                     " n=" + std::to_string(n));
  }
}

// ---- Filtering mapper ----------------------------------------------------

/// Records every emitted pair in order.
class CollectingEmitter : public mr::Emitter {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    pairs.emplace_back(std::string(key), std::string(value));
  }
  std::vector<std::pair<std::string, std::string>> pairs;
};

// The filtering mapper buckets each record's ranks by fragment and sorts
// each bucket. Its output must be exactly what the plain reference emits:
// a full std::sort of the ranks, SplitIntoSegments, EncodeSegment, once per
// length group, in the same order.
TEST(FilteringMapperTest, MatchesFullSortSplitEncodeReference) {
  const Corpus corpus = RandomCorpus(150, 120, 1.0, 14, 77);
  const mr::Dataset input = MakeCorpusDataset(corpus);
  const auto order =
      std::make_shared<const GlobalOrder>(GlobalOrder::FromCorpus(corpus));
  const TokenRank vocab = static_cast<TokenRank>(order->NumTokens());
  std::vector<uint32_t> lengths;
  for (const Record& rec : corpus.records) {
    lengths.push_back(static_cast<uint32_t>(rec.tokens.size()));
  }

  const std::vector<std::pair<const char*, std::vector<TokenRank>>>
      pivot_sets = {
          {"single fragment", {}},
          {"even", {vocab / 4, vocab / 2, 3 * vocab / 4}},
          // Adjacent pivots leave fragments no rank can fall into.
          {"empty fragments", {1, 2, 3, vocab / 2, vocab / 2 + 1}},
          {"pivots past the vocabulary", {vocab / 3, vocab + 5, vocab + 900}},
      };
  for (const auto& [label, pivots] : pivot_sets) {
    for (uint32_t t : {0u, 2u}) {
      SCOPED_TRACE(std::string(label) + ", horizontal t=" + std::to_string(t));
      auto ctx = std::make_shared<FilteringContext>();
      ctx->config.theta = 0.7;
      ctx->order = order;
      ctx->pivots = pivots;
      if (t > 0) {
        ctx->horizontal = HorizontalScheme(
            SelectLengthPivotsFromLengths(lengths, t, ctx->config.function,
                                          ctx->config.theta),
            ctx->config.function, ctx->config.theta);
        ASSERT_GT(ctx->horizontal.NumPivots(), 0u);
      }

      // One mapper over every record: its scratch is reused throughout.
      std::unique_ptr<mr::Mapper> mapper =
          MakeFilteringJobConfig(ctx).mapper_factory();
      CollectingEmitter got;
      for (const mr::KeyValue& kv : input) {
        ASSERT_TRUE(mapper->Map(kv, &got).ok());
      }

      CollectingEmitter want;
      for (const Record& rec : corpus.records) {
        OrderedRecord ordered{rec.id, {}};
        for (TokenId id : rec.tokens) ordered.tokens.push_back(order->RankOf(id));
        std::sort(ordered.tokens.begin(), ordered.tokens.end());
        const SegmentSplit split = SplitIntoSegments(ordered, pivots);
        for (uint32_t h :
             ctx->horizontal.GroupsOf(static_cast<uint32_t>(ordered.Size()))) {
          for (size_t i = 0; i < split.segments.size(); ++i) {
            std::string key, value;
            PutFixed32BE(&key, h);
            PutFixed32BE(&key, split.fragment_ids[i]);
            EncodeSegment(split.segments[i], &value);
            want.Emit(key, value);
          }
        }
      }
      ASSERT_FALSE(want.pairs.empty());
      EXPECT_TRUE(got.pairs == want.pairs);
    }
  }
}

// Token sets are sets: a record that repeats a token cannot be coded as an
// ascending-gap run, so the mapper refuses it instead of emitting a value
// the reducer would reject.
TEST(FilteringMapperTest, RejectsRepeatedToken) {
  const Corpus corpus = CorpusFromTokenSets({{0, 1, 2}, {1, 2}});
  auto ctx = std::make_shared<FilteringContext>();
  ctx->order =
      std::make_shared<const GlobalOrder>(GlobalOrder::FromCorpus(corpus));
  std::unique_ptr<mr::Mapper> mapper =
      MakeFilteringJobConfig(ctx).mapper_factory();
  mr::KeyValue kv;
  PutFixed32BE(&kv.key, 0);
  PutUint32Vector(&kv.value, {0, 2, 2});
  CollectingEmitter out;
  EXPECT_FALSE(mapper->Map(kv, &out).ok());
  EXPECT_TRUE(out.pairs.empty());
}

TEST(FragmentPartitionerTest, SpreadsFragmentsRoundRobin) {
  FragmentPartitioner partitioner(/*num_vertical=*/4);
  auto key = [](uint32_t h, uint32_t v) {
    std::string k;
    PutFixed32BE(&k, h);
    PutFixed32BE(&k, v);
    return k;
  };
  // (h, v) -> (h*4 + v) % partitions.
  EXPECT_EQ(partitioner.Partition(key(0, 0), 3), 0u);
  EXPECT_EQ(partitioner.Partition(key(0, 1), 3), 1u);
  EXPECT_EQ(partitioner.Partition(key(0, 3), 3), 0u);
  EXPECT_EQ(partitioner.Partition(key(1, 0), 3), 1u);
  EXPECT_EQ(partitioner.Partition(key(2, 2), 3), 1u);
  // Malformed keys fall back to hashing, never crash.
  (void)partitioner.Partition("xy", 3);
}

TEST(FragmentPartitionerTest, ShortKeysFallBackToStableHash) {
  FragmentPartitioner partitioner(/*num_vertical=*/4);
  // Anything shorter than the 8-byte (h, v) prefix — including a key that
  // decodes h but runs out mid-v — hashes instead of decoding.
  for (std::string_view key : {std::string_view(""), std::string_view("a"),
                               std::string_view("abcd"),
                               std::string_view("abcdefg")}) {
    const uint32_t part = partitioner.Partition(key, 3);
    EXPECT_LT(part, 3u);
    EXPECT_EQ(part, Fnv1a64(key) % 3) << "key size " << key.size();
  }
}

TEST(FragmentPartitionerTest, SinglePartitionAndWrapAround) {
  FragmentPartitioner partitioner(/*num_vertical=*/4);
  auto key = [](uint32_t h, uint32_t v) {
    std::string k;
    PutFixed32BE(&k, h);
    PutFixed32BE(&k, v);
    return k;
  };
  // One partition absorbs everything, on both the decode and hash paths.
  EXPECT_EQ(partitioner.Partition(key(3, 2), 1), 0u);
  EXPECT_EQ(partitioner.Partition("x", 1), 0u);
  // Fragment ids far beyond the partition count wrap via modulo.
  EXPECT_EQ(partitioner.Partition(key(1000000, 3), 7), (1000000u * 4 + 3) % 7);
  EXPECT_EQ(partitioner.Partition(key(0xFFFFFFFFu, 0), 3),
            (0xFFFFFFFFu * 4u) % 3);
}

TEST(PartialOverlapTest, EncodingMatchesVerificationInput) {
  PartialOverlap p{3, 9, 25, 40, 7};
  std::string key, value;
  EncodePartialOverlap(p, &key, &value);
  Decoder key_dec(key);
  uint32_t a = 0, b = 0;
  ASSERT_TRUE(key_dec.GetFixed32BE(&a).ok());
  ASSERT_TRUE(key_dec.GetFixed32BE(&b).ok());
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 9u);
  Decoder value_dec(value);
  uint64_t c = 0, la = 0, lb = 0;
  ASSERT_TRUE(value_dec.GetVarint64(&c).ok());
  ASSERT_TRUE(value_dec.GetVarint64(&la).ok());
  ASSERT_TRUE(value_dec.GetVarint64(&lb).ok());
  EXPECT_EQ(c, 7u);
  EXPECT_EQ(la, 25u);
  EXPECT_EQ(lb, 40u);
}

TEST(VerificationJobTest, AggregatesAcrossFragments) {
  // Two partial overlaps of the same pair (3 + 4 = 7 of sizes 8/9) must be
  // summed: jaccard = 7/10 = 0.7.
  mr::Dataset partials;
  for (uint64_t c : {3u, 4u}) {
    PartialOverlap p{1, 2, 8, 9, c};
    mr::KeyValue kv;
    EncodePartialOverlap(p, &kv.key, &kv.value);
    partials.push_back(std::move(kv));
  }
  auto ctx = std::make_shared<VerificationContext>();
  ctx->config.theta = 0.7;
  ctx->config.function = SimilarityFunction::kJaccard;
  ctx->config.exec.num_map_tasks = 2;
  ctx->config.exec.num_reduce_tasks = 2;
  mr::Engine engine(0);
  mr::Dataset output;
  mr::JobMetrics metrics;
  ASSERT_TRUE(engine
                  .Run(MakeVerificationJobConfig(ctx), partials, &output,
                       &metrics)
                  .ok());
  Result<JoinResultSet> results = DecodeJoinResults(output);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].a, 1u);
  EXPECT_EQ((*results)[0].b, 2u);
  EXPECT_NEAR((*results)[0].similarity, 0.7, 1e-12);
  EXPECT_EQ(ctx->candidate_pairs, 1u);

  // Below threshold with only one partial: no output.
  ctx = std::make_shared<VerificationContext>();
  ctx->config.theta = 0.7;
  ctx->config.exec.num_map_tasks = 1;
  ctx->config.exec.num_reduce_tasks = 1;
  mr::Dataset one(partials.begin(), partials.begin() + 1);
  ASSERT_TRUE(
      engine.Run(MakeVerificationJobConfig(ctx), one, &output, &metrics).ok());
  EXPECT_TRUE(output.empty());
  EXPECT_EQ(ctx->candidate_pairs, 1u);
}

// ---- Config -----------------------------------------------------------

TEST(FsJoinConfigTest, ValidationCatchesBadParameters) {
  FsJoinConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.theta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.theta = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.theta = 0.8;
  config.num_vertical_partitions = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.num_vertical_partitions = 4;
  config.exec.num_map_tasks = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(FsJoinConfigTest, SummaryMentionsKeyKnobs) {
  FsJoinConfig config;
  config.theta = 0.85;
  config.join_method = JoinMethod::kLoop;
  config.pivot_strategy = PivotStrategy::kRandom;
  std::string s = config.Summary();
  EXPECT_NE(s.find("0.85"), std::string::npos);
  EXPECT_NE(s.find("loop"), std::string::npos);
  EXPECT_NE(s.find("random"), std::string::npos);
}

TEST(FsJoinConfigTest, InvalidConfigRejectedByRun) {
  FsJoinConfig config;
  config.theta = -1;
  Corpus corpus = CorpusFromTokenSets({{1, 2}});
  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

// ---- Report structure -----------------------------------------------------

TEST(FsJoinReportTest, JobListsAndSummary) {
  Corpus corpus = RandomCorpus(50, 80, 1.0, 8, 77);
  FsJoinConfig config;
  config.theta = 0.8;
  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->report.AllJobs().size(), 3u);
  EXPECT_EQ(out->report.JoinJobs().size(), 2u);
  EXPECT_EQ(out->report.AllJobs()[0].job_name, "ordering");
  EXPECT_EQ(out->report.JoinJobs()[0].job_name, "filtering");
  EXPECT_EQ(out->report.JoinJobs()[1].job_name, "verification");
  std::string summary = out->report.Summary();
  EXPECT_NE(summary.find("candidates"), std::string::npos);
  EXPECT_NE(summary.find("shuffle"), std::string::npos);
}

// ---- R-S edge cases -------------------------------------------------------

TEST(FsJoinRsTest, EmptySidesYieldNoPairs) {
  Corpus empty;
  Corpus some = CorpusFromTokenSets({{1, 2, 3}});
  FsJoinConfig config;
  config.theta = 0.5;
  Result<FsJoinOutput> a = FsJoinRS(empty, some, config);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->pairs.empty());
  Result<FsJoinOutput> b = FsJoinRS(some, empty, config);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->pairs.empty());
}

TEST(FsJoinRsTest, IdenticalCollectionsMatchEverywhere) {
  Corpus c = CorpusFromTokenSets({{1, 2, 3}, {4, 5, 6}});
  FsJoinConfig config;
  config.theta = 1.0;
  Result<FsJoinOutput> out = FsJoinRS(c, c, config);
  ASSERT_TRUE(out.ok());
  // Each record matches its twin across the boundary (never within).
  ASSERT_EQ(out->pairs.size(), 2u);
  for (const SimilarPair& p : out->pairs) {
    EXPECT_LT(p.a, 2u);
    EXPECT_GE(p.b, 2u);
    EXPECT_EQ(p.b - 2u, p.a);
    EXPECT_NEAR(p.similarity, 1.0, 1e-12);
  }
}

// ---- Metrics regression ---------------------------------------------------

// The zero-copy shuffle must keep JobMetrics accounting byte-identical to
// the seed engine's per-record path, so perf numbers stay comparable across
// revisions. Expected counters were captured from the seed implementation on
// this fixed-seed corpus and configuration; any drift here means the data
// plane changed what it counts, not just how it stores bytes.
Corpus MetricsRegressionCorpus() {
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

FsJoinConfig MetricsRegressionConfig() {
  FsJoinConfig config;
  config.theta = 0.8;
  config.num_vertical_partitions = 6;
  config.exec.num_map_tasks = 4;
  config.exec.num_reduce_tasks = 5;
  config.num_horizontal_partitions = 2;
  return config;
}

TEST(MetricsRegressionTest, CountersMatchSeedEngine) {
  const Corpus corpus = MetricsRegressionCorpus();
  Result<FsJoinOutput> out = FsJoin(MetricsRegressionConfig()).Run(corpus);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  auto max_group_bytes = [](const mr::JobMetrics& m) {
    uint64_t max_group = 0;
    for (const mr::TaskMetrics& t : m.reduce_tasks) {
      max_group = std::max(max_group, t.max_group_bytes);
    }
    return max_group;
  };

  const mr::JobMetrics& ord = out->report.ordering_job;
  EXPECT_EQ(ord.map_input_records, 300u);
  EXPECT_EQ(ord.map_input_bytes, 6677u);
  // One stripe record per map task (the 375-token vocabulary fits one
  // 4096-id stripe), summed into one output record.
  EXPECT_EQ(ord.map_output_records, 4u);
  EXPECT_EQ(ord.map_output_bytes, 2008u);
  EXPECT_EQ(ord.shuffle_records, 4u);
  EXPECT_EQ(ord.shuffle_bytes, 2008u);
  EXPECT_EQ(ord.reduce_output_records, 1u);
  EXPECT_EQ(ord.reduce_output_bytes, 759u);
  EXPECT_EQ(max_group_bytes(ord), 2008u);

  const mr::JobMetrics& fil = out->report.filtering_job;
  EXPECT_EQ(fil.map_input_records, 300u);
  EXPECT_EQ(fil.map_input_bytes, 6677u);
  EXPECT_EQ(fil.map_output_records, 2382u);
  // Segment values are delta-coded: first rank, then ascending gaps.
  EXPECT_EQ(fil.map_output_bytes, 38508u);
  EXPECT_EQ(fil.shuffle_records, 2382u);
  EXPECT_EQ(fil.shuffle_bytes, 38508u);
  EXPECT_EQ(fil.reduce_output_records, 5628u);
  EXPECT_EQ(fil.reduce_output_bytes, 61908u);
  EXPECT_EQ(max_group_bytes(fil), 1909u);

  const mr::JobMetrics& ver = out->report.verification_job;
  EXPECT_EQ(ver.map_input_records, 5628u);
  EXPECT_EQ(ver.map_input_bytes, 61908u);
  EXPECT_EQ(ver.map_output_records, 5628u);
  EXPECT_EQ(ver.map_output_bytes, 61908u);
  EXPECT_EQ(ver.shuffle_records, 5628u);
  EXPECT_EQ(ver.shuffle_bytes, 61908u);
  EXPECT_EQ(ver.reduce_output_records, 71u);
  EXPECT_EQ(ver.reduce_output_bytes, 1136u);
  EXPECT_EQ(max_group_bytes(ver), 66u);

  EXPECT_EQ(out->report.result_pairs, 71u);
  EXPECT_EQ(out->report.candidate_pairs, 4471u);

  // Table IV counters of the filtering reducer. Every probe-loop change
  // must leave the pairs it considers and where each one is pruned as is.
  const FilterCounters& f = out->report.filters;
  EXPECT_EQ(f.pairs_considered, 22051u);
  EXPECT_EQ(f.pruned_role, 6789u);
  EXPECT_EQ(f.pruned_strl, 0u);
  EXPECT_EQ(f.pruned_segl, 5981u);
  EXPECT_EQ(f.pruned_segi, 3653u);
  EXPECT_EQ(f.pruned_segd, 0u);
  EXPECT_EQ(f.empty_overlap, 0u);
  EXPECT_EQ(f.emitted, 5628u);
}

// R-S twin of the pin above: the same corpus split into R (the first 100
// records) and S (the other 200), joined through FsJoin::Run(JoinInput), so
// the side-tagged probe loops are pinned too.
TEST(MetricsRegressionTest, RsCountersMatchSeedEngine) {
  const Corpus corpus = MetricsRegressionCorpus();
  std::vector<RecordId> r_ids, s_ids;
  for (RecordId id = 0; id < corpus.NumRecords(); ++id) {
    (id < 100 ? r_ids : s_ids).push_back(id);
  }
  const Corpus r = SampleCorpus(corpus, r_ids);
  const Corpus s = SampleCorpus(corpus, s_ids);
  Result<FsJoinOutput> out =
      FsJoin(MetricsRegressionConfig()).Run(JoinInput{r, s});
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  EXPECT_EQ(out->report.filtering_job.shuffle_records, 2390u);
  EXPECT_EQ(out->report.filtering_job.shuffle_bytes, 38574u);
  EXPECT_EQ(out->report.result_pairs, 27u);
  EXPECT_EQ(out->report.candidate_pairs, 1949u);
  const FilterCounters& f = out->report.filters;
  EXPECT_EQ(f.pairs_considered, 9874u);
  EXPECT_EQ(f.pruned_role, 3094u);
  EXPECT_EQ(f.pruned_strl, 0u);
  EXPECT_EQ(f.pruned_segl, 2779u);
  EXPECT_EQ(f.pruned_segi, 1646u);
  EXPECT_EQ(f.pruned_segd, 0u);
  EXPECT_EQ(f.empty_overlap, 0u);
  EXPECT_EQ(f.emitted, 2355u);
}

// ---- Emission budget ------------------------------------------------------

TEST(EmissionBudgetTest, EnforcesLimit) {
  EmissionBudget unlimited(0);
  EXPECT_TRUE(unlimited.Consume(1u << 30).ok());
  EmissionBudget budget(100);
  EXPECT_TRUE(budget.Consume(60).ok());
  EXPECT_TRUE(budget.Consume(40).ok());
  Status st = budget.Consume(1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(budget.used(), 100u);
}

}  // namespace
}  // namespace fsjoin

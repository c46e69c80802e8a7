#ifndef FSJOIN_TESTS_TEST_UTIL_H_
#define FSJOIN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/jobs.h"
#include "mr/kv.h"
#include "sim/global_order.h"
#include "text/corpus.h"
#include "text/generator.h"
#include "util/random.h"

namespace fsjoin::testing {

/// Builds a corpus directly from explicit token-id sets ("t<i>" strings),
/// for hand-written cases.
inline Corpus CorpusFromTokenSets(
    const std::vector<std::vector<uint32_t>>& sets) {
  std::vector<std::string> lines;
  lines.reserve(sets.size());
  for (const auto& set : sets) {
    std::string line;
    for (uint32_t t : set) {
      if (!line.empty()) line += ' ';
      line += 't';
      line += std::to_string(t);
    }
    lines.push_back(line);
  }
  WhitespaceTokenizer tokenizer;
  return BuildCorpus(lines, tokenizer);
}

/// Small random corpus with planted near-duplicates — the standard input of
/// the property tests.
inline Corpus RandomCorpus(uint64_t num_records, uint64_t vocab, double skew,
                           double avg_len, uint64_t seed) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = num_records;
  cfg.vocab_size = vocab;
  cfg.zipf_skew = skew;
  cfg.avg_len = avg_len;
  cfg.len_sigma = 0.7;
  cfg.min_len = 1;
  cfg.max_len = 4 * static_cast<uint64_t>(avg_len) + 8;
  cfg.near_duplicate_fraction = 0.35;
  cfg.mutation_rate = 0.12;
  cfg.seed = seed;
  return GenerateCorpus(cfg);
}

/// Ordered view of a corpus under its own frequency-based global ordering.
inline std::vector<OrderedRecord> OrderedView(const Corpus& corpus) {
  GlobalOrder order = GlobalOrder::FromCorpus(corpus);
  return ApplyGlobalOrder(corpus, order);
}

/// The fixed-seed corpus whose job counters MetricsRegressionTest and
/// BaselineMetricsRegressionTest pin.
inline Corpus MetricsRegressionCorpus() {
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

/// Partial overlaps as the filtering job emits them, for `num_pairs`
/// distinct record pairs, shuffled: one to three per pair, each pair's
/// sizes fixed and its partials summing to at most the smaller size, so
/// some pairs pass theta 0.6 and some do not.
inline mr::Dataset RandomPartialOverlaps(size_t num_pairs, uint64_t seed) {
  Rng rng(seed);
  mr::Dataset partials;
  for (size_t i = 0; i < num_pairs; ++i) {
    const uint32_t a = static_cast<uint32_t>(i);  // pairs are distinct
    const uint32_t b = a + 1 + static_cast<uint32_t>(rng.NextBounded(400));
    const uint32_t size_a = 4 + static_cast<uint32_t>(rng.NextBounded(20));
    const uint32_t size_b = 4 + static_cast<uint32_t>(rng.NextBounded(20));
    uint64_t left = std::min(size_a, size_b);
    const uint64_t parts = 1 + rng.NextBounded(3);
    for (uint64_t k = 0; k < parts && left > 0; ++k) {
      const uint64_t c = 1 + rng.NextBounded(left);
      left -= c;
      mr::KeyValue kv;
      EncodePartialOverlap(PartialOverlap{a, b, size_a, size_b, c}, &kv.key,
                           &kv.value);
      partials.push_back(std::move(kv));
    }
  }
  for (size_t i = partials.size(); i > 1; --i) {
    std::swap(partials[i - 1], partials[rng.NextBounded(i)]);
  }
  return partials;
}

}  // namespace fsjoin::testing

#endif  // FSJOIN_TESTS_TEST_UTIL_H_

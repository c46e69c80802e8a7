#ifndef FSJOIN_TESTS_TEST_UTIL_H_
#define FSJOIN_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace fsjoin::testing

#endif  // FSJOIN_TESTS_TEST_UTIL_H_

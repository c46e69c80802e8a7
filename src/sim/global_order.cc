#include "sim/global_order.h"

#include <algorithm>

#include "util/logging.h"

namespace fsjoin {

GlobalOrder GlobalOrder::FromFrequencies(std::vector<uint64_t> frequency) {
  GlobalOrder order;
  order.frequency_ = std::move(frequency);
  const std::vector<uint64_t>& freq = order.frequency_;
  const size_t n = freq.size();

  // Counting sort by frequency. Frequencies below n index a bucket; ids are
  // placed in ascending order, so each bucket keeps its ids sorted — the
  // (frequency, id) order with no comparisons. The rare frequencies >= n
  // all rank above every bucket and are comparison-sorted after them.
  std::vector<size_t> bucket_start(n + 1, 0);
  std::vector<TokenId> large;
  for (size_t t = 0; t < n; ++t) {
    if (freq[t] < n) {
      ++bucket_start[freq[t] + 1];
    } else {
      large.push_back(static_cast<TokenId>(t));
    }
  }
  for (size_t f = 0; f < n; ++f) bucket_start[f + 1] += bucket_start[f];
  order.token_at_rank_.resize(n);
  for (size_t t = 0; t < n; ++t) {
    if (freq[t] < n) {
      order.token_at_rank_[bucket_start[freq[t]]++] = static_cast<TokenId>(t);
    }
  }
  // `large` is in ascending id order; a stable sort by frequency alone
  // breaks ties by id.
  std::stable_sort(large.begin(), large.end(), [&](TokenId a, TokenId b) {
    return freq[a] < freq[b];
  });
  std::copy(large.begin(), large.end(),
            order.token_at_rank_.begin() + (n - large.size()));

  order.rank_of_token_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    order.rank_of_token_[order.token_at_rank_[r]] = static_cast<TokenRank>(r);
  }
  order.total_frequency_ = 0;
  for (uint64_t f : freq) order.total_frequency_ += f;
  return order;
}

GlobalOrder GlobalOrder::FromCorpus(const Corpus& corpus) {
  std::vector<uint64_t> freq(corpus.dictionary.size());
  for (size_t t = 0; t < freq.size(); ++t) {
    freq[t] = corpus.dictionary.Frequency(static_cast<TokenId>(t));
  }
  return FromFrequencies(std::move(freq));
}

std::vector<OrderedRecord> ApplyGlobalOrder(const Corpus& corpus,
                                            const GlobalOrder& order) {
  std::vector<OrderedRecord> out;
  out.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    OrderedRecord ordered;
    ordered.id = rec.id;
    ordered.tokens.reserve(rec.tokens.size());
    for (TokenId t : rec.tokens) {
      FSJOIN_CHECK(t < order.NumTokens());
      ordered.tokens.push_back(order.RankOf(t));
    }
    std::sort(ordered.tokens.begin(), ordered.tokens.end());
    out.push_back(std::move(ordered));
  }
  return out;
}

}  // namespace fsjoin

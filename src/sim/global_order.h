#ifndef FSJOIN_SIM_GLOBAL_ORDER_H_
#define FSJOIN_SIM_GLOBAL_ORDER_H_

#include <cstdint>
#include <vector>

#include "text/corpus.h"
#include "util/status.h"

namespace fsjoin {

/// A token rank in the global ordering: rank 0 is the *rarest* token (the
/// paper sorts by ascending term frequency so prefixes hold rare tokens).
using TokenRank = uint32_t;

/// The paper's global ordering O (Definition 3): a total order over the
/// token domain by ascending term frequency, ties broken by TokenId for
/// determinism.
class GlobalOrder {
 public:
  GlobalOrder() = default;

  /// Builds the ordering from explicit (token, frequency) pairs — the output
  /// of the MapReduce ordering job. `frequency[t]` is the term frequency of
  /// TokenId t; tokens never seen get frequency 0 and still receive ranks.
  /// A counting sort over the frequencies: O(V) for a V-token domain.
  static GlobalOrder FromFrequencies(std::vector<uint64_t> frequency);

  /// Convenience: builds directly from a corpus dictionary (serial path).
  static GlobalOrder FromCorpus(const Corpus& corpus);

  /// Rank of a token. Requires id < NumTokens().
  TokenRank RankOf(TokenId id) const { return rank_of_token_[id]; }

  /// Token holding a given rank.
  TokenId TokenAt(TokenRank rank) const { return token_at_rank_[rank]; }

  /// Term frequency of the token at `rank` (ascending in rank).
  uint64_t FrequencyAt(TokenRank rank) const {
    return frequency_[token_at_rank_[rank]];
  }

  size_t NumTokens() const { return token_at_rank_.size(); }

  /// Total term frequency over the whole domain (sum over tokens).
  uint64_t TotalFrequency() const { return total_frequency_; }

 private:
  std::vector<TokenRank> rank_of_token_;
  std::vector<TokenId> token_at_rank_;
  std::vector<uint64_t> frequency_;
  uint64_t total_frequency_ = 0;
};

/// A record re-expressed in rank space: tokens replaced by their global
/// ranks and sorted ascending (rarest first), which is the representation
/// every filter-and-verification join operates on.
struct OrderedRecord {
  RecordId id = 0;
  std::vector<TokenRank> tokens;

  size_t Size() const { return tokens.size(); }
};

/// Applies the global ordering to every record of a corpus.
std::vector<OrderedRecord> ApplyGlobalOrder(const Corpus& corpus,
                                            const GlobalOrder& order);

}  // namespace fsjoin

#endif  // FSJOIN_SIM_GLOBAL_ORDER_H_

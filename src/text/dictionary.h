#ifndef FSJOIN_TEXT_DICTIONARY_H_
#define FSJOIN_TEXT_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "text/record.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace fsjoin {

/// Interns token strings to dense TokenIds and tracks per-token term
/// frequency (number of records containing the token — set semantics).
///
/// Layout: the token bytes live back to back in one arena, and id i spans
/// from offsets_[i] to the start of id i + 1 (64-bit offsets, so the arena
/// may pass 4 GiB). The index is one open-addressing table with linear
/// probing whose 8-byte slots hold a 32-bit hash tag and the id, so a probe
/// reads the arena only when the tags match.
class TokenDictionary {
 public:
  TokenDictionary() = default;

  /// The hash Intern and Lookup use. It is not stable across platforms and
  /// never reaches an output: ids depend only on the order of Intern calls.
  static uint64_t Hash(std::string_view token);

  /// Returns the id for `token`, interning it on first sight.
  TokenId Intern(std::string_view token) { return Intern(token, Hash(token)); }

  /// As above, for a caller that already holds `hash == Hash(token)`.
  TokenId Intern(std::string_view token, uint64_t hash);

  /// Hints that `hash`'s token is about to be interned or looked up: starts
  /// loading its home slot, so a caller can overlap the cache misses of a
  /// batch of tokens.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash >> shift_]);
  }

  /// Looks up an existing token. NotFound if never interned.
  Result<TokenId> Lookup(std::string_view token) const;

  /// The token string for an id. Requires id < size(). The view stays
  /// valid until the next Intern of a new token.
  std::string_view TokenString(TokenId id) const;

  /// Increments the term frequency of `id` by `delta`.
  void AddFrequency(TokenId id, uint64_t delta);

  /// Term frequency of `id` (0 if never counted).
  uint64_t Frequency(TokenId id) const;

  /// Sets every term frequency to 0; ids and strings are kept.
  void ClearFrequencies();

  /// Number of distinct tokens (the paper's token domain |U|).
  size_t size() const { return frequency_.size(); }

  /// Appends `count` new tokens at once: token(i), with frequency
  /// frequency(i), gets id size() + i. The tokens must be pairwise distinct
  /// and absent from the dictionary. `pool`'s threads copy the bytes and
  /// fill the index; the ids and strings are the same as from `count`
  /// Intern calls in order.
  void AppendDistinct(size_t count,
                      const std::function<std::string_view(size_t)>& token,
                      const std::function<uint64_t(size_t)>& frequency,
                      ThreadPool& pool);

 private:
  // A slot packs the hash tag (high half) and the id (low half); no id is
  // kEmpty, so no full slot equals kEmptySlot.
  static constexpr TokenId kEmpty = ~TokenId{0};
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};
  static uint64_t PackSlot(uint64_t hash, TokenId id) {
    return (hash << 32) | id;
  }

  std::string_view View(TokenId id) const {
    const uint64_t begin = offsets_[id];
    const uint64_t end = id + 1 < size() ? offsets_[id + 1] : arena_.size();
    return std::string_view(arena_.data() + begin, end - begin);
  }
  // The slot holding `token`, or the empty slot where it would go.
  size_t FindSlot(std::string_view token, uint64_t hash) const;
  // Grows the table, if needed, so `n` tokens keep the load at or under 3/4.
  void ReserveSlots(size_t n);
  void Rehash(size_t capacity);

  std::vector<uint64_t> slots_;  ///< power-of-two size, or empty
  int shift_ = 64;  ///< 64 - log2(slots_.size()): home = hash >> shift_
  std::string arena_;
  std::vector<uint64_t> offsets_;  ///< start of each token in arena_
  std::vector<uint64_t> frequency_;
};

/// Maps the ids of one dictionary into another, interning each source
/// token at its first sight and memoizing the result, so a pass that
/// meets every occurrence of a token pays for one Intern per distinct
/// token. New ids in `to` come in the order of first sight, exactly as
/// calling to.Intern(from.TokenString(t)) on every occurrence would give.
class TokenRemap {
 public:
  TokenRemap(const TokenDictionary& from, TokenDictionary& to)
      : from_(from), to_(to), ids_(from.size(), kUnmapped) {}

  TokenId operator()(TokenId t) {
    TokenId& id = ids_[t];
    if (id == kUnmapped) id = to_.Intern(from_.TokenString(t));
    return id;
  }

 private:
  static constexpr TokenId kUnmapped = ~TokenId{0};
  const TokenDictionary& from_;
  TokenDictionary& to_;
  std::vector<TokenId> ids_;
};

}  // namespace fsjoin

#endif  // FSJOIN_TEXT_DICTIONARY_H_

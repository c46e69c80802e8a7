#ifndef FSJOIN_TEXT_CORPUS_H_
#define FSJOIN_TEXT_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/dictionary.h"
#include "text/record.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace fsjoin {

/// A tokenized string collection: the unit all joins operate on.
///
/// Invariants (checked by Validate()):
///  * records[i].id == i (dense ids);
///  * every record's tokens are sorted ascending by TokenId and unique;
///  * dictionary frequencies equal the number of records containing each
///    token.
struct Corpus {
  std::vector<Record> records;
  TokenDictionary dictionary;

  size_t NumRecords() const { return records.size(); }

  /// Total number of set elements across records.
  uint64_t TotalTokens() const;

  /// Verifies the structural invariants above.
  Status Validate() const;
};

/// Tokenizes raw lines (one record per line) into a Corpus: per-record
/// token sets are deduplicated and sorted; dictionary frequencies are the
/// per-record (set) term frequencies used for the global ordering. Token
/// ids are assigned in order of first occurrence (line by line, left to
/// right). Large inputs are interned by hash partition on up to
/// hardware_concurrency() threads, all joined before this returns; the
/// result does not depend on the thread count (DESIGN.md §5l).
Corpus BuildCorpus(const std::vector<std::string>& lines,
                   const Tokenizer& tokenizer);

namespace internal {

/// BuildCorpus with an explicit number of hash partitions, each interned on
/// its own thread (1 = the serial path). For tests that check the output is
/// the same for every partition count.
Corpus BuildCorpusSharded(const std::vector<std::string>& lines,
                          const Tokenizer& tokenizer, size_t shards);

}  // namespace internal

/// Keeps records[i] for the given ids, renumbering them densely (used for
/// the paper's 4X/6X/8X/10X random samples). Frequencies are recomputed.
Corpus SampleCorpus(const Corpus& corpus, const std::vector<RecordId>& keep);

/// Summary statistics mirroring the paper's Table III.
struct CorpusStats {
  uint64_t num_records = 0;
  uint64_t vocab_size = 0;
  uint64_t total_tokens = 0;
  uint64_t min_len = 0;
  uint64_t max_len = 0;
  double avg_len = 0.0;
  uint64_t approx_bytes = 0;  ///< serialized size of token-id data
};

/// Computes corpus statistics in one pass.
CorpusStats ComputeStats(const Corpus& corpus);

}  // namespace fsjoin

#endif  // FSJOIN_TEXT_CORPUS_H_

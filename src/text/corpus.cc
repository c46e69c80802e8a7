#include "text/corpus.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fsjoin {

uint64_t Corpus::TotalTokens() const {
  uint64_t total = 0;
  for (const auto& r : records) total += r.tokens.size();
  return total;
}

Status Corpus::Validate() const {
  std::vector<uint64_t> freq(dictionary.size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (r.id != i) {
      return Status::Internal(
          StrFormat("record %zu has id %u (ids must be dense)", i, r.id));
    }
    for (size_t j = 0; j < r.tokens.size(); ++j) {
      if (r.tokens[j] >= dictionary.size()) {
        return Status::Internal(
            StrFormat("record %zu: token id %u out of range", i, r.tokens[j]));
      }
      if (j > 0 && r.tokens[j] <= r.tokens[j - 1]) {
        return Status::Internal(
            StrFormat("record %zu: tokens not sorted-unique", i));
      }
      ++freq[r.tokens[j]];
    }
  }
  for (size_t t = 0; t < freq.size(); ++t) {
    if (freq[t] != dictionary.Frequency(static_cast<TokenId>(t))) {
      return Status::Internal(StrFormat(
          "token %zu frequency mismatch: dictionary says %llu, actual %llu", t,
          static_cast<unsigned long long>(
              dictionary.Frequency(static_cast<TokenId>(t))),
          static_cast<unsigned long long>(freq[t])));
    }
  }
  return Status::OK();
}

namespace {

// Input bytes per ingest thread. Below it a thread costs more to start than
// it saves: 128 KiB is about 16k tokens of generated text, a few
// milliseconds of serial interning.
constexpr size_t kShardGrainBytes = size_t{128} << 10;
constexpr size_t kMaxShards = 8;
// Lines per claim in the record pass.
constexpr size_t kRecordChunk = 64;

// What a partition keeps per local token, together so one cache line
// serves the three updates an occurrence makes.
struct LocalToken {
  uint64_t first_seen;  ///< corpus-wide position of the first occurrence
  uint32_t stamp;       ///< 1 + the last line that counted the token
  uint32_t frequency;   ///< lines containing the token
};

// One hash partition of a build: the tokens whose hash falls in it, with
// local ids in order of first occurrence, and each line's distinct local
// ids.
struct Shard {
  TokenDictionary dict;  ///< local ids; frequencies live in `tokens`
  std::vector<LocalToken> tokens;
  std::vector<TokenId> ids;  ///< line i's ids: [line_end[i-1], line_end[i])
  std::vector<size_t> line_end;

  size_t LineBegin(size_t i) const { return i == 0 ? 0 : line_end[i - 1]; }
};

size_t ShardOf(uint64_t hash, size_t shards) {
  return static_cast<size_t>(
      (static_cast<uint64_t>(static_cast<uint32_t>(hash)) * shards) >> 32);
}

// Tokenizes every line but interns only partition `self`'s tokens. Positions
// count every token, so first_seen orders tokens across partitions.
void InternShard(const std::vector<std::string>& lines,
                 const Tokenizer& tokenizer, size_t shards, size_t self,
                 Shard& shard) {
  struct Pending {
    std::string_view token;
    uint64_t hash;
    uint64_t position;
  };
  TokenBuffer buf;
  std::vector<Pending> mine;
  uint64_t position = 0;
  shard.line_end.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    const uint32_t line_stamp = static_cast<uint32_t>(i + 1);
    tokenizer.Tokenize(lines[i], buf);
    // Hash the whole line first and prefetch the partition's slots, so the
    // table's cache misses overlap instead of queueing one per token.
    mine.clear();
    for (const std::string_view tok : buf.tokens) {
      const uint64_t hash = TokenDictionary::Hash(tok);
      if (shards == 1 || ShardOf(hash, shards) == self) {
        mine.push_back({tok, hash, position});
        shard.dict.Prefetch(hash);
      }
      ++position;
    }
    for (const Pending& p : mine) {
      const TokenId id = shard.dict.Intern(p.token, p.hash);
      if (id == shard.tokens.size()) shard.tokens.push_back({p.position, 0, 0});
      LocalToken& local = shard.tokens[id];
      if (local.stamp != line_stamp) {
        local.stamp = line_stamp;
        ++local.frequency;
        shard.ids.push_back(id);
      }
    }
    shard.line_end.push_back(shard.ids.size());
  }
}

// Assigns global ids in order of first occurrence and fills `dict`. Returns
// each partition's local-to-global id map. Positions are distinct, so a
// token's global id is its local id plus the number of other partitions'
// tokens first seen before it; each partition counts those with one forward
// walk per other partition, since every first_seen list ascends with the
// local id.
std::vector<std::vector<TokenId>> MergeShards(const std::vector<Shard>& shards,
                                              TokenDictionary& dict,
                                              ThreadPool& pool) {
  struct Source {
    uint32_t shard;
    TokenId local;
  };
  size_t total = 0;
  for (const Shard& shard : shards) total += shard.tokens.size();
  std::vector<std::vector<TokenId>> global(shards.size());
  std::vector<Source> order(total);
  pool.ParallelFor(shards.size(), 1, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      const std::vector<LocalToken>& mine = shards[p].tokens;
      global[p].resize(mine.size());
      std::vector<size_t> earlier(shards.size(), 0);
      for (size_t local = 0; local < mine.size(); ++local) {
        size_t rank = local;
        for (size_t q = 0; q < shards.size(); ++q) {
          if (q == p) continue;
          const std::vector<LocalToken>& other = shards[q].tokens;
          size_t& k = earlier[q];
          while (k < other.size() &&
                 other[k].first_seen < mine[local].first_seen) {
            ++k;
          }
          rank += k;
        }
        global[p][local] = static_cast<TokenId>(dict.size() + rank);
        order[rank] = Source{static_cast<uint32_t>(p),
                             static_cast<TokenId>(local)};
      }
    }
  });
  dict.AppendDistinct(
      total,
      [&](size_t g) {
        return shards[order[g].shard].dict.TokenString(order[g].local);
      },
      [&](size_t g) -> uint64_t {
        return shards[order[g].shard].tokens[order[g].local].frequency;
      },
      pool);
  return global;
}

}  // namespace

namespace internal {

Corpus BuildCorpusSharded(const std::vector<std::string>& lines,
                          const Tokenizer& tokenizer, size_t shards) {
  FSJOIN_CHECK(shards >= 1);
  // The pool's threads are joined by its destructor, before this returns.
  ThreadPool pool(shards - 1);
  std::vector<Shard> parts(shards);
  pool.ParallelFor(shards, 1, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      InternShard(lines, tokenizer, shards, p, parts[p]);
    }
  });

  Corpus corpus;
  std::vector<std::vector<TokenId>> global;
  if (shards == 1) {
    // Local ids are global.
    corpus.dictionary = std::move(parts[0].dict);
    for (TokenId t = 0; t < parts[0].tokens.size(); ++t) {
      corpus.dictionary.AddFrequency(t, parts[0].tokens[t].frequency);
    }
  } else {
    global = MergeShards(parts, corpus.dictionary, pool);
  }
  corpus.records.resize(lines.size());
  pool.ParallelFor(lines.size(), kRecordChunk, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Record& rec = corpus.records[i];
      rec.id = static_cast<RecordId>(i);
      size_t n = 0;
      for (const Shard& part : parts) n += part.line_end[i] - part.LineBegin(i);
      rec.tokens.reserve(n);
      for (size_t p = 0; p < shards; ++p) {
        const Shard& part = parts[p];
        for (size_t k = part.LineBegin(i); k < part.line_end[i]; ++k) {
          rec.tokens.push_back(shards == 1 ? part.ids[k]
                                           : global[p][part.ids[k]]);
        }
      }
      // Distinct within a partition by the stamp, and partitions hold
      // disjoint strings: sorting leaves the set sorted-unique.
      std::sort(rec.tokens.begin(), rec.tokens.end());
    }
  });
  return corpus;
}

}  // namespace internal

Corpus BuildCorpus(const std::vector<std::string>& lines,
                   const Tokenizer& tokenizer) {
  size_t bytes = 0;
  for (const std::string& line : lines) bytes += line.size();
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t shards =
      std::clamp<size_t>(bytes / kShardGrainBytes, 1,
                         std::min(hardware, kMaxShards));
  return internal::BuildCorpusSharded(lines, tokenizer, shards);
}

Corpus SampleCorpus(const Corpus& corpus, const std::vector<RecordId>& keep) {
  Corpus out;
  out.records.reserve(keep.size());
  // Re-intern only the tokens that survive, keeping dictionary compact.
  TokenRemap remap(corpus.dictionary, out.dictionary);
  for (size_t i = 0; i < keep.size(); ++i) {
    const Record& src = corpus.records[keep[i]];
    Record rec;
    rec.id = static_cast<RecordId>(i);
    rec.tokens.reserve(src.tokens.size());
    for (TokenId t : src.tokens) rec.tokens.push_back(remap(t));
    std::sort(rec.tokens.begin(), rec.tokens.end());
    rec.tokens.erase(std::unique(rec.tokens.begin(), rec.tokens.end()),
                     rec.tokens.end());
    for (TokenId t : rec.tokens) out.dictionary.AddFrequency(t, 1);
    out.records.push_back(std::move(rec));
  }
  return out;
}

CorpusStats ComputeStats(const Corpus& corpus) {
  CorpusStats stats;
  stats.num_records = corpus.records.size();
  stats.vocab_size = corpus.dictionary.size();
  stats.min_len = std::numeric_limits<uint64_t>::max();
  for (const auto& r : corpus.records) {
    uint64_t len = r.tokens.size();
    stats.total_tokens += len;
    stats.min_len = std::min(stats.min_len, len);
    stats.max_len = std::max(stats.max_len, len);
    stats.approx_bytes += len * sizeof(TokenId) + sizeof(RecordId);
  }
  if (stats.num_records == 0) {
    stats.min_len = 0;
  } else {
    stats.avg_len = static_cast<double>(stats.total_tokens) /
                    static_cast<double>(stats.num_records);
  }
  return stats;
}

}  // namespace fsjoin

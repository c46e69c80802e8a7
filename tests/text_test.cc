// Unit tests for the text substrate: tokenizers, dictionary, corpus
// construction/validation/sampling, synthetic generators and IO.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "test_util.h"
#include "text/corpus.h"
#include "text/corpus_io.h"
#include "text/dictionary.h"
#include "text/generator.h"
#include "text/tokenizer.h"

namespace fsjoin {
namespace {

// ---- Tokenizers -----------------------------------------------------------

// The tokens of `text` as owned strings.
std::vector<std::string> Tokens(const Tokenizer& tokenizer,
                                std::string_view text) {
  TokenBuffer buf;
  tokenizer.Tokenize(text, buf);
  return std::vector<std::string>(buf.tokens.begin(), buf.tokens.end());
}

TEST(TokenizerTest, Whitespace) {
  WhitespaceTokenizer t;
  EXPECT_EQ(Tokens(t, "a  b\tc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Tokens(t, "").empty());
  EXPECT_TRUE(Tokens(t, "   ").empty());
  EXPECT_EQ(Tokens(t, "Keep.Case!"),
            (std::vector<std::string>{"Keep.Case!"}));
}

TEST(TokenizerTest, WordLowercasesAndSplitsPunctuation) {
  WordTokenizer t;
  EXPECT_EQ(Tokens(t, "Hello, World! x2"),
            (std::vector<std::string>{"hello", "world", "x2"}));
  EXPECT_TRUE(Tokens(t, "...!!!").empty());
}

TEST(TokenizerTest, QGrams) {
  QGramTokenizer t(3);
  auto grams = Tokens(t, "abcd");
  EXPECT_EQ(grams, (std::vector<std::string>{"abc", "bcd"}));
  // Shorter than q: padded single gram.
  EXPECT_EQ(Tokens(t, "ab"), (std::vector<std::string>{"ab$"}));
  // Whitespace normalized, case folded.
  auto norm = Tokens(t, "A  b");
  EXPECT_EQ(norm, (std::vector<std::string>{"a b"}));
  EXPECT_EQ(t.Name(), "3-gram");
}

TEST(TokenizerTest, BufferIsReusedAcrossLines) {
  // A second call replaces the first call's tokens, and the views it
  // returns are independent of what the buffer held before.
  WordTokenizer t;
  TokenBuffer buf;
  t.Tokenize("A much LONGER first line", buf);
  EXPECT_EQ(buf.tokens.size(), 5u);
  t.Tokenize("Bb", buf);
  ASSERT_EQ(buf.tokens.size(), 1u);
  EXPECT_EQ(buf.tokens[0], "bb");
  // Whitespace tokens view the text itself.
  WhitespaceTokenizer w;
  const std::string text = "x yz";
  w.Tokenize(text, buf);
  ASSERT_EQ(buf.tokens.size(), 2u);
  EXPECT_EQ(buf.tokens[1].data(), text.data() + 2);
}

// ---- Dictionary -----------------------------------------------------------

TEST(DictionaryTest, InternIsIdempotent) {
  TokenDictionary dict;
  TokenId a = dict.Intern("apple");
  TokenId b = dict.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.TokenString(a), "apple");
}

TEST(DictionaryTest, LookupAndFrequency) {
  TokenDictionary dict;
  TokenId a = dict.Intern("x");
  EXPECT_TRUE(dict.Lookup("x").ok());
  EXPECT_FALSE(dict.Lookup("y").ok());
  EXPECT_EQ(dict.Frequency(a), 0u);
  dict.AddFrequency(a, 3);
  EXPECT_EQ(dict.Frequency(a), 3u);
  EXPECT_EQ(dict.Frequency(999), 0u);  // unknown id
}

TEST(DictionaryTest, GrowsAcrossRehash) {
  // Enough tokens to double the table many times from its first size;
  // lengths from 1 to 40 bytes, including NUL and high bytes.
  TokenDictionary dict;
  std::vector<std::string> tokens;
  for (int i = 0; i < 20000; ++i) {
    std::string t = std::to_string(i);
    t.append(static_cast<size_t>(i % 34), static_cast<char>(0x80 + i % 100));
    if (i % 7 == 0) t.push_back('\0');
    tokens.push_back(std::move(t));
  }
  tokens.push_back("");  // an empty token is a token too
  for (size_t i = 0; i < tokens.size(); ++i) {
    ASSERT_EQ(dict.Intern(tokens[i]), static_cast<TokenId>(i));
  }
  ASSERT_EQ(dict.size(), tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    const TokenId id = static_cast<TokenId>(i);
    EXPECT_EQ(dict.TokenString(id), tokens[i]);
    EXPECT_EQ(dict.Intern(tokens[i]), id);
    Result<TokenId> found = dict.Lookup(tokens[i]);
    ASSERT_TRUE(found.ok()) << i;
    EXPECT_EQ(*found, id);
  }
  EXPECT_EQ(dict.size(), tokens.size());
  // A copy is a deep, equal dictionary.
  TokenDictionary copy = dict;
  EXPECT_EQ(copy.Lookup(tokens[777]).value(), 777u);
  EXPECT_EQ(copy.TokenString(777), tokens[777]);
}

TEST(DictionaryTest, LookupOfMissingTokenIsNotFound) {
  TokenDictionary empty;
  Result<TokenId> none = empty.Lookup("x");
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  TokenDictionary dict;
  dict.Intern("apple");
  dict.Intern(std::string_view("a\0b", 3));
  // Prefixes, extensions and same-length neighbours are all different.
  for (const std::string_view missing :
       {std::string_view("appl"), std::string_view("apples"),
        std::string_view("Apple"), std::string_view("a"),
        std::string_view("a\0", 2), std::string_view("a\0c", 3),
        std::string_view("")}) {
    Result<TokenId> r = dict.Lookup(missing);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(dict.size(), 2u);  // Lookup never interns
}

TEST(DictionaryTest, ClearFrequenciesKeepsIds) {
  TokenDictionary dict;
  const TokenId a = dict.Intern("a");
  dict.AddFrequency(a, 5);
  dict.ClearFrequencies();
  EXPECT_EQ(dict.Frequency(a), 0u);
  EXPECT_EQ(dict.Lookup("a").value(), a);
}

// ---- Corpus ---------------------------------------------------------------

TEST(CorpusTest, BuildDeduplicatesAndSorts) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"b a b a c", "c c"}, t);
  ASSERT_EQ(corpus.NumRecords(), 2u);
  EXPECT_EQ(corpus.records[0].tokens.size(), 3u);  // {a, b, c}
  EXPECT_EQ(corpus.records[1].tokens.size(), 1u);  // {c}
  EXPECT_TRUE(corpus.Validate().ok());
  // Term frequencies are per-record (set semantics).
  TokenId c = corpus.dictionary.Lookup("c").value();
  EXPECT_EQ(corpus.dictionary.Frequency(c), 2u);
}

TEST(CorpusTest, EmptyLinesYieldEmptyRecords) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"", "a"}, t);
  EXPECT_EQ(corpus.records[0].tokens.size(), 0u);
  EXPECT_TRUE(corpus.Validate().ok());
}

TEST(CorpusTest, ValidateCatchesCorruption) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"a b", "b c"}, t);
  corpus.records[1].id = 7;  // break dense ids
  EXPECT_FALSE(corpus.Validate().ok());
}

TEST(CorpusTest, SampleRenumbersAndRecounts) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"a b", "b c", "c d", "d e"}, t);
  Corpus sampled = SampleCorpus(corpus, {1, 3});
  ASSERT_EQ(sampled.NumRecords(), 2u);
  EXPECT_EQ(sampled.records[0].id, 0u);
  EXPECT_EQ(sampled.records[1].id, 1u);
  EXPECT_TRUE(sampled.Validate().ok());
  // 'b' survives once.
  EXPECT_EQ(
      sampled.dictionary.Frequency(sampled.dictionary.Lookup("b").value()),
      1u);
  EXPECT_FALSE(sampled.dictionary.Lookup("a").ok() &&
               sampled.dictionary.Frequency(
                   sampled.dictionary.Lookup("a").value()) > 1);
}

TEST(CorpusTest, SampleMatchesInterningEveryOccurrence) {
  // GenerateCorpus pre-interns its whole vocabulary, so most ids are unused
  // and records meet the used ones out of id order: the sample must intern
  // them in order of first sight in the kept records.
  const Corpus corpus = fsjoin::testing::RandomCorpus(200, 300, 1.0, 8, 77);
  const std::vector<RecordId> keep = {150, 3, 99, 3, 42, 180};
  Corpus expected;
  for (size_t i = 0; i < keep.size(); ++i) {
    Record rec;
    rec.id = static_cast<RecordId>(i);
    for (TokenId t : corpus.records[keep[i]].tokens) {
      rec.tokens.push_back(
          expected.dictionary.Intern(corpus.dictionary.TokenString(t)));
    }
    std::sort(rec.tokens.begin(), rec.tokens.end());
    for (TokenId t : rec.tokens) expected.dictionary.AddFrequency(t, 1);
    expected.records.push_back(std::move(rec));
  }
  const Corpus sampled = SampleCorpus(corpus, keep);
  ASSERT_TRUE(sampled.Validate().ok());
  ASSERT_EQ(sampled.dictionary.size(), expected.dictionary.size());
  for (TokenId t = 0; t < sampled.dictionary.size(); ++t) {
    EXPECT_EQ(sampled.dictionary.TokenString(t),
              expected.dictionary.TokenString(t));
    EXPECT_EQ(sampled.dictionary.Frequency(t),
              expected.dictionary.Frequency(t));
  }
  for (size_t i = 0; i < keep.size(); ++i) {
    EXPECT_EQ(sampled.records[i].tokens, expected.records[i].tokens);
  }
}

TEST(CorpusTest, StatsMatchDefinition) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"a b c", "d", "e f"}, t);
  CorpusStats stats = ComputeStats(corpus);
  EXPECT_EQ(stats.num_records, 3u);
  EXPECT_EQ(stats.total_tokens, 6u);
  EXPECT_EQ(stats.min_len, 1u);
  EXPECT_EQ(stats.max_len, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_len, 2.0);
  EXPECT_EQ(stats.vocab_size, 6u);
}

// ---- Generator ------------------------------------------------------------

TEST(GeneratorTest, ZeroRecordsOrZeroVocabYieldsEmptyCorpus) {
  // Regression: these used to crash on an FSJOIN_CHECK instead of returning
  // an empty corpus. A zero-sized request is a valid (empty) corpus.
  SyntheticCorpusConfig zero_records;
  zero_records.num_records = 0;
  zero_records.vocab_size = 100;
  Corpus a = GenerateCorpus(zero_records);
  EXPECT_EQ(a.NumRecords(), 0u);
  EXPECT_TRUE(a.Validate().ok());

  SyntheticCorpusConfig zero_vocab;
  zero_vocab.num_records = 10;
  zero_vocab.vocab_size = 0;
  Corpus b = GenerateCorpus(zero_vocab);
  EXPECT_EQ(b.NumRecords(), 0u);
  EXPECT_TRUE(b.Validate().ok());

  SyntheticCorpusConfig both_zero;
  both_zero.num_records = 0;
  both_zero.vocab_size = 0;
  EXPECT_EQ(GenerateCorpus(both_zero).NumRecords(), 0u);
}

TEST(GeneratorTest, DeterministicForSeed) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 200;
  cfg.vocab_size = 500;
  cfg.seed = 13;
  Corpus a = GenerateCorpus(cfg);
  Corpus b = GenerateCorpus(cfg);
  ASSERT_EQ(a.NumRecords(), b.NumRecords());
  for (size_t i = 0; i < a.NumRecords(); ++i) {
    EXPECT_EQ(a.records[i].tokens, b.records[i].tokens);
  }
}

TEST(GeneratorTest, RespectsInvariantsAndBounds) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 300;
  cfg.vocab_size = 400;
  cfg.min_len = 2;
  cfg.max_len = 40;
  cfg.avg_len = 10;
  cfg.near_duplicate_fraction = 0.0;  // pure records obey min/max exactly
  Corpus corpus = GenerateCorpus(cfg);
  EXPECT_TRUE(corpus.Validate().ok());
  for (const Record& r : corpus.records) {
    EXPECT_GE(r.tokens.size(), cfg.min_len);
    EXPECT_LE(r.tokens.size(), cfg.max_len);
  }
}

TEST(GeneratorTest, PlantsNearDuplicates) {
  Corpus corpus = fsjoin::testing::RandomCorpus(300, 400, 1.0, 12, 31);
  // With 35% near-duplicates at 12% mutation there must be highly similar
  // pairs; check at least one pair shares >= 80% of tokens.
  auto ordered = fsjoin::testing::OrderedView(corpus);
  bool found = false;
  for (size_t i = 0; i < ordered.size() && !found; ++i) {
    for (size_t j = i + 1; j < ordered.size() && !found; ++j) {
      size_t common = 0;
      size_t x = 0, y = 0;
      while (x < ordered[i].tokens.size() && y < ordered[j].tokens.size()) {
        if (ordered[i].tokens[x] == ordered[j].tokens[y]) {
          ++common;
          ++x;
          ++y;
        } else if (ordered[i].tokens[x] < ordered[j].tokens[y]) {
          ++x;
        } else {
          ++y;
        }
      }
      size_t uni =
          ordered[i].tokens.size() + ordered[j].tokens.size() - common;
      if (uni > 0 && static_cast<double>(common) / uni >= 0.8) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GeneratorTest, PresetsHaveDistinctShapes) {
  Corpus email = GenerateCorpus(EmailLikeConfig(0.05));
  Corpus wiki = GenerateCorpus(WikiLikeConfig(0.05));
  CorpusStats es = ComputeStats(email);
  CorpusStats ws = ComputeStats(wiki);
  // Email-like: few long records. Wiki-like: many short ones.
  EXPECT_LT(es.num_records, ws.num_records);
  EXPECT_GT(es.avg_len, 3 * ws.avg_len);
}

// ---- IO ---------------------------------------------------------------------

TEST(CorpusIoTest, RoundTripsThroughText) {
  Corpus corpus = fsjoin::testing::RandomCorpus(50, 80, 1.0, 6, 41);
  std::string path =
      (std::filesystem::temp_directory_path() / "fsjoin_io_test.txt").string();
  ASSERT_TRUE(WriteCorpusText(corpus, path).ok());
  Result<Corpus> read = ReadCorpusText(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->NumRecords(), corpus.NumRecords());
  for (size_t i = 0; i < corpus.NumRecords(); ++i) {
    // Token *sets* must match (ids may be renumbered).
    std::set<std::string> before, after;
    for (TokenId t : corpus.records[i].tokens) {
      before.insert(std::string(corpus.dictionary.TokenString(t)));
    }
    for (TokenId t : read->records[i].tokens) {
      after.insert(std::string(read->dictionary.TokenString(t)));
    }
    EXPECT_EQ(before, after);
  }
  std::remove(path.c_str());
}

TEST(CorpusIoTest, MissingFileIsIoError) {
  Result<Corpus> r = ReadCorpusText("/nonexistent/path/xyz.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ---- Round-trip property ---------------------------------------------------

// tokenizer -> dictionary -> global order is lossless: ranks map back to
// the exact per-record token sets, and token multiplicity (how many records
// contain each token) is preserved by the ordering — 100 seeded iterations
// over random corpora with duplicate tokens inside lines.
TEST(RoundTripProperty, TokenizeDictionaryGlobalOrderPreservesMultiplicity) {
  WhitespaceTokenizer tokenizer;
  for (uint64_t iter = 0; iter < 100; ++iter) {
    Rng rng(1000 + iter);
    const size_t num_records = 1 + rng.NextBounded(20);
    const uint32_t vocab = 1 + static_cast<uint32_t>(rng.NextBounded(30));
    std::vector<std::string> lines;
    std::vector<std::set<std::string>> expected_sets;
    for (size_t r = 0; r < num_records; ++r) {
      const size_t len = rng.NextBounded(12);  // may be 0: empty record
      std::string line;
      std::set<std::string> expected;
      for (size_t k = 0; k < len; ++k) {
        // Duplicates within a line are likely and must collapse.
        std::string word = "w";
        word += std::to_string(rng.NextBounded(vocab));
        expected.insert(word);
        if (!line.empty()) line += ' ';
        line += word;
      }
      lines.push_back(line);
      expected_sets.push_back(std::move(expected));
    }

    Corpus corpus = BuildCorpus(lines, tokenizer);
    ASSERT_TRUE(corpus.Validate().ok()) << "iter " << iter;
    ASSERT_EQ(corpus.NumRecords(), num_records);

    // Dictionary multiplicity: frequency of each token == number of
    // records whose set contains it.
    std::map<std::string, uint64_t> expected_freq;
    for (const auto& set : expected_sets) {
      for (const std::string& word : set) ++expected_freq[word];
    }
    uint64_t expected_total = 0;
    for (const auto& [word, f] : expected_freq) {
      auto id = corpus.dictionary.Lookup(word);
      ASSERT_TRUE(id.ok()) << "iter " << iter << " lost token " << word;
      EXPECT_EQ(corpus.dictionary.Frequency(*id), f)
          << "iter " << iter << " token " << word;
      expected_total += f;
    }

    // Global order is a bijection on the token domain; mapping ranks back
    // through TokenAt recovers each record's exact token set, and the
    // summed per-rank frequency equals the corpus's total multiplicity.
    GlobalOrder order = GlobalOrder::FromCorpus(corpus);
    ASSERT_EQ(order.NumTokens(), corpus.dictionary.size());
    std::vector<OrderedRecord> ordered = ApplyGlobalOrder(corpus, order);
    ASSERT_EQ(ordered.size(), num_records);
    for (size_t r = 0; r < num_records; ++r) {
      EXPECT_EQ(ordered[r].tokens.size(), expected_sets[r].size());
      std::set<std::string> recovered;
      for (TokenRank rank : ordered[r].tokens) {
        recovered.insert(
            std::string(corpus.dictionary.TokenString(order.TokenAt(rank))));
      }
      EXPECT_EQ(recovered, expected_sets[r]) << "iter " << iter
                                             << " record " << r;
    }
    uint64_t rank_total = 0;
    for (TokenRank rank = 0; rank < order.NumTokens(); ++rank) {
      rank_total += order.FrequencyAt(rank);
      if (rank > 0) {
        EXPECT_GE(order.FrequencyAt(rank), order.FrequencyAt(rank - 1))
            << "global order not ascending in frequency at rank " << rank;
      }
    }
    EXPECT_EQ(rank_total, expected_total) << "iter " << iter;
    EXPECT_EQ(rank_total, corpus.TotalTokens()) << "iter " << iter;
  }
}

// ---- Text-path differential test -----------------------------------------
//
// The reference is the text path in its plainest form: tokenizers that
// return a std::vector<std::string> per line, using <cctype> in the C locale,
// and a std::map that interns each token at its first occurrence. Every
// tokenizer's corpus must match it exactly (record sets, id -> string,
// frequencies) at every partition count.

std::vector<std::string> ReferenceWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || std::isspace(static_cast<unsigned char>(text[i]))) {
      if (i > start) out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> ReferenceWord(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      out.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

std::vector<std::string> ReferenceQGram(std::string_view text, size_t q) {
  std::string norm;
  bool last_space = true;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!last_space) norm.push_back(' ');
      last_space = true;
    } else {
      norm.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      last_space = false;
    }
  }
  while (!norm.empty() && norm.back() == ' ') norm.pop_back();
  std::vector<std::string> out;
  if (norm.empty()) return out;
  if (norm.size() < q) {
    norm.append(q - norm.size(), '$');
    out.push_back(norm);
    return out;
  }
  for (size_t i = 0; i + q <= norm.size(); ++i) {
    out.push_back(norm.substr(i, q));
  }
  return out;
}

struct ReferenceCorpus {
  std::vector<std::vector<TokenId>> records;
  std::vector<std::string> strings;  // by id
  std::vector<uint64_t> frequency;   // by id
};

template <typename Split>
ReferenceCorpus ReferenceBuild(const std::vector<std::string>& lines,
                               Split split) {
  ReferenceCorpus ref;
  std::map<std::string, TokenId> ids;
  for (const std::string& line : lines) {
    std::vector<TokenId> rec;
    for (std::string& token : split(line)) {
      const auto [it, fresh] =
          ids.emplace(token, static_cast<TokenId>(ref.strings.size()));
      if (fresh) {
        ref.strings.push_back(std::move(token));
        ref.frequency.push_back(0);
      }
      rec.push_back(it->second);
    }
    std::sort(rec.begin(), rec.end());
    rec.erase(std::unique(rec.begin(), rec.end()), rec.end());
    for (TokenId t : rec) ++ref.frequency[t];
    ref.records.push_back(std::move(rec));
  }
  return ref;
}

// Seeded random byte lines: words from a small vocabulary of 1- to 40-byte
// strings over every byte value (so bytes >= 0x80 — malformed UTF-8 — NUL,
// CR and uppercase all occur), a heavy-duplicate head, delimiter-only and
// empty lines, raw random-byte lines and one 1 MiB line.
std::vector<std::string> RandomByteLines(uint64_t seed) {
  Rng rng(seed);
  const auto byte = [&rng] { return static_cast<char>(rng.NextBounded(256)); };
  const std::string letters =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::vector<std::string> vocab;
  for (int i = 0; i < 400; ++i) {
    // A third of the words are 1 byte; the rest up to 40, so many pass 16.
    const size_t len = i % 3 == 0 ? 1 : 1 + rng.NextBounded(40);
    std::string word;
    for (size_t k = 0; k < len; ++k) {
      word.push_back(rng.NextBool(0.7)
                         ? letters[rng.NextBounded(letters.size())]
                         : byte());
    }
    vocab.push_back(std::move(word));
  }
  const std::vector<std::string> delimiters = {
      " ", "  ", "\t", "\r", "\r\n", ",", ".", std::string(1, '\0'),
      "\x80", "\xff", "\x0b", " - "};
  const auto pick_word = [&]() -> const std::string& {
    // Half the draws hit the first 8 words: heavy duplicates.
    return vocab[rng.NextBool(0.5) ? rng.NextBounded(8)
                                   : rng.NextBounded(vocab.size())];
  };
  const auto words_line = [&](size_t min_bytes) {
    std::string line;
    while (line.size() < min_bytes) {
      line += pick_word();
      line += delimiters[rng.NextBounded(delimiters.size())];
    }
    return line;
  };
  std::vector<std::string> lines;
  for (int i = 0; i < 1500; ++i) {
    switch (rng.NextBounded(8)) {
      case 0:
        lines.emplace_back();
        break;
      case 1: {
        std::string line;
        for (size_t k = rng.NextBounded(20); k > 0; --k) {
          line += delimiters[rng.NextBounded(delimiters.size())];
        }
        lines.push_back(std::move(line));
        break;
      }
      case 2: {
        std::string line;
        for (size_t k = rng.NextBounded(200); k > 0; --k) {
          line.push_back(byte());
        }
        lines.push_back(std::move(line));
        break;
      }
      default:
        lines.push_back(words_line(rng.NextBounded(300)));
    }
  }
  lines.insert(lines.begin() + 700, words_line(size_t{1} << 20));
  return lines;
}

void ExpectSameCorpus(const Corpus& corpus, const ReferenceCorpus& ref,
                      const std::string& where) {
  ASSERT_TRUE(corpus.Validate().ok()) << where;
  ASSERT_EQ(corpus.NumRecords(), ref.records.size()) << where;
  for (size_t i = 0; i < ref.records.size(); ++i) {
    ASSERT_EQ(corpus.records[i].id, i) << where;
    ASSERT_EQ(corpus.records[i].tokens, ref.records[i])
        << where << " record " << i;
  }
  ASSERT_EQ(corpus.dictionary.size(), ref.strings.size()) << where;
  for (TokenId t = 0; t < ref.strings.size(); ++t) {
    ASSERT_EQ(corpus.dictionary.TokenString(t), ref.strings[t])
        << where << " token " << t;
    ASSERT_EQ(corpus.dictionary.Frequency(t), ref.frequency[t])
        << where << " token " << t;
    ASSERT_EQ(corpus.dictionary.Lookup(ref.strings[t]).value(), t) << where;
  }
}

TEST(TextPathDifferential, AllTokenizersAllShardCountsMatchReference) {
  const std::vector<std::string> lines = RandomByteLines(20261018);
  const WhitespaceTokenizer whitespace;
  const WordTokenizer word;
  const QGramTokenizer qgram(3);
  struct Case {
    const Tokenizer* tokenizer;
    std::function<std::vector<std::string>(std::string_view)> split;
  };
  const std::vector<Case> cases = {
      {&whitespace, ReferenceWhitespace},
      {&word, ReferenceWord},
      {&qgram, [](std::string_view text) { return ReferenceQGram(text, 3); }},
  };
  for (const Case& c : cases) {
    const std::string name = c.tokenizer->Name();
    // Token by token first: same tokens, same order, duplicates kept.
    TokenBuffer buf;
    for (size_t i = 0; i < lines.size(); ++i) {
      c.tokenizer->Tokenize(lines[i], buf);
      ASSERT_EQ(std::vector<std::string>(buf.tokens.begin(), buf.tokens.end()),
                c.split(lines[i]))
          << name << " line " << i;
    }
    const ReferenceCorpus ref = ReferenceBuild(lines, c.split);
    for (const size_t shards : {1, 2, 3, 4, 7}) {
      ExpectSameCorpus(
          internal::BuildCorpusSharded(lines, *c.tokenizer, shards), ref,
          name + " shards=" + std::to_string(shards));
    }
    ExpectSameCorpus(BuildCorpus(lines, *c.tokenizer), ref, name + " default");
  }
}

TEST(TextPathDifferential, DegenerateInputsAtEveryShardCount) {
  const WordTokenizer word;
  const std::vector<std::vector<std::string>> inputs = {
      {},                               // no lines
      {"", "", ""},                     // only empty lines
      {"...", ", ;", std::string(3, '\0')},  // delimiters only
      {"same same SAME", "same"},       // one token in total
  };
  for (size_t n = 0; n < inputs.size(); ++n) {
    const ReferenceCorpus ref = ReferenceBuild(inputs[n], ReferenceWord);
    for (const size_t shards : {1, 2, 3, 4, 7}) {
      ExpectSameCorpus(internal::BuildCorpusSharded(inputs[n], word, shards),
                       ref, "input " + std::to_string(n) + " shards=" +
                                std::to_string(shards));
    }
  }
}

}  // namespace
}  // namespace fsjoin

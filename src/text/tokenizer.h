#ifndef FSJOIN_TEXT_TOKENIZER_H_
#define FSJOIN_TEXT_TOKENIZER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fsjoin {

/// The reusable output of Tokenizer::Tokenize. Each token views either the
/// tokenized text or `scratch`, where a tokenizer writes the bytes it
/// lowercases or normalizes. The views stay valid until the next Tokenize
/// call with this buffer, and no longer than the text. One buffer per
/// thread, reused across lines, keeps tokenizing free of per-token heap
/// allocation.
struct TokenBuffer {
  std::vector<std::string_view> tokens;
  std::string scratch;
};

/// Splits raw text into token strings. Implementations must be stateless
/// and thread-compatible (const Tokenize). Character classes are the C
/// locale's: bytes >= 0x80 are neither letters, digits nor spaces.
class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  /// Replaces out.tokens with the tokens of `text` in order of appearance
  /// (duplicates kept; set deduplication happens when building Records).
  virtual void Tokenize(std::string_view text, TokenBuffer& out) const = 0;

  /// Short name for logs and experiment output.
  virtual std::string Name() const = 0;
};

/// Splits on ASCII whitespace; tokens are kept verbatim and view the text.
class WhitespaceTokenizer : public Tokenizer {
 public:
  void Tokenize(std::string_view text, TokenBuffer& out) const override;
  std::string Name() const override { return "whitespace"; }
};

/// Splits on non-alphanumeric characters and lowercases — the usual choice
/// for document corpora like Enron/PubMed/Wiki.
class WordTokenizer : public Tokenizer {
 public:
  void Tokenize(std::string_view text, TokenBuffer& out) const override;
  std::string Name() const override { return "word"; }
};

/// Sliding character q-grams of the (whitespace-normalized, lowercased)
/// text. Strings shorter than q yield a single padded gram.
class QGramTokenizer : public Tokenizer {
 public:
  explicit QGramTokenizer(size_t q);
  void Tokenize(std::string_view text, TokenBuffer& out) const override;
  std::string Name() const override;

 private:
  size_t q_;
};

}  // namespace fsjoin

#endif  // FSJOIN_TEXT_TOKENIZER_H_

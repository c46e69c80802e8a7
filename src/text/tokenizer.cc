#include "text/tokenizer.h"

#include <array>

#include "util/logging.h"
#include "util/string_util.h"

namespace fsjoin {

namespace {

// C-locale <cctype> classes without the locale lookup.
inline bool IsSpace(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline char ToLower(unsigned char c) {
  return static_cast<char>(c >= 'A' && c <= 'Z' ? c | 0x20 : c);
}

// kFold[c]: the lowercase form of a letter or digit, 0 for any other byte.
constexpr std::array<char, 256> kFold = [] {
  std::array<char, 256> fold{};
  for (int c = 0; c < 256; ++c) {
    if ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'z')) {
      fold[c] = static_cast<char>(c);
    }
    if (c >= 'A' && c <= 'Z') fold[c] = static_cast<char>(c | 0x20);
  }
  return fold;
}();

}  // namespace

void WhitespaceTokenizer::Tokenize(std::string_view text,
                                   TokenBuffer& out) const {
  out.tokens.clear();
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || IsSpace(static_cast<unsigned char>(text[i]))) {
      if (i > start) out.tokens.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
}

void WordTokenizer::Tokenize(std::string_view text, TokenBuffer& out) const {
  out.tokens.clear();
  // Lowercased bytes keep their offsets, so a token views scratch at the
  // span it had in the text; scratch is sized once, before any view.
  out.scratch.resize(text.size());
  char* lower = out.scratch.data();
  const auto fold = [&text](size_t i) {
    return kFold[static_cast<unsigned char>(text[i])];
  };
  const size_t n = text.size();
  size_t i = 0;
  for (;;) {
    while (i < n && fold(i) == 0) ++i;
    if (i == n) return;
    const size_t start = i;
    for (char c; i < n && (c = fold(i)) != 0; ++i) lower[i] = c;
    out.tokens.emplace_back(lower + start, i - start);
  }
}

QGramTokenizer::QGramTokenizer(size_t q) : q_(q) { FSJOIN_CHECK(q >= 1); }

void QGramTokenizer::Tokenize(std::string_view text, TokenBuffer& out) const {
  out.tokens.clear();
  // Normalize: lowercase, collapse whitespace runs to single spaces.
  std::string& norm = out.scratch;
  norm.clear();
  bool last_space = true;
  for (char c : text) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (IsSpace(u)) {
      if (!last_space) norm.push_back(' ');
      last_space = true;
    } else {
      norm.push_back(ToLower(u));
      last_space = false;
    }
  }
  while (!norm.empty() && norm.back() == ' ') norm.pop_back();

  // Views are taken only once scratch is final.
  if (norm.empty()) return;
  if (norm.size() < q_) {
    norm.append(q_ - norm.size(), '$');
    out.tokens.push_back(norm);
    return;
  }
  const std::string_view all(norm);
  out.tokens.reserve(all.size() - q_ + 1);
  for (size_t i = 0; i + q_ <= all.size(); ++i) {
    out.tokens.push_back(all.substr(i, q_));
  }
}

std::string QGramTokenizer::Name() const {
  return StrFormat("%zu-gram", q_);
}

}  // namespace fsjoin

#include "text/corpus_io.h"

#include <fstream>
#include <sstream>

namespace fsjoin {

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::vector<std::string> lines;
  std::string line;
  // getline clears `line` before reading, so each line can be moved out.
  while (std::getline(in, line)) lines.push_back(std::move(line));
  if (in.bad()) return Status::IoError("read failure: " + path);
  return lines;
}

Status WriteCorpusText(const Corpus& corpus, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  for (const Record& rec : corpus.records) {
    for (size_t i = 0; i < rec.tokens.size(); ++i) {
      if (i > 0) out << ' ';
      out << corpus.dictionary.TokenString(rec.tokens[i]);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("write failure: " + path);
  return Status::OK();
}

Result<Corpus> ReadCorpusText(const std::string& path) {
  FSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> lines, ReadLines(path));
  WhitespaceTokenizer tokenizer;
  return BuildCorpus(lines, tokenizer);
}

}  // namespace fsjoin

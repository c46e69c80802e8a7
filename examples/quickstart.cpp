// Quickstart: run an FS-Join self-join over a handful of strings and print
// the similar pairs.
//
//   ./quickstart
//
// Demonstrates the minimal public API surface: tokenize -> configure ->
// Run -> read the pairs and the execution report.

#include <cstdio>
#include <string>
#include <vector>

#include "core/fsjoin.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

int main() {
  // 1. Build a corpus: one record per line, word tokens, set semantics.
  std::vector<std::string> lines = {
      "the quick brown fox jumps over the lazy dog",
      "the quick brown fox jumped over a lazy dog",
      "lorem ipsum dolor sit amet consectetur adipiscing elit",
      "lorem ipsum dolor sit amet consectetur elit adipiscing sed",
      "set similarity joins find pairs of similar records",
      "distributed set similarity joins find similar record pairs",
      "completely unrelated text about cooking pasta with tomatoes",
  };
  fsjoin::WordTokenizer tokenizer;
  fsjoin::Corpus corpus = fsjoin::BuildCorpus(lines, tokenizer);

  // 2. Configure FS-Join: Jaccard >= 0.6, 4 vertical fragments.
  fsjoin::FsJoinConfig config;
  config.theta = 0.6;
  config.function = fsjoin::SimilarityFunction::kJaccard;
  config.num_vertical_partitions = 4;

  // 3. Run the two-job MapReduce pipeline.
  fsjoin::FsJoin join(config);
  fsjoin::Result<fsjoin::FsJoinOutput> result = join.Run(corpus);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // 4. Consume the results.
  std::printf("similar pairs (jaccard >= %.2f):\n", config.theta);
  for (const fsjoin::SimilarPair& pair : result->pairs) {
    std::printf("  [%u] %s\n  [%u] %s\n  similarity = %.3f\n\n", pair.a,
                lines[pair.a].c_str(), pair.b, lines[pair.b].c_str(),
                pair.similarity);
  }
  std::printf("%s\n", result->report.Summary().c_str());
  return 0;
}

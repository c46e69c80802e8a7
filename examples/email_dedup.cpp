// Near-duplicate detection (the paper's data-cleaning motivation): find
// clusters of near-identical messages in an email-like corpus and report
// the largest duplicate groups.
//
//   ./email_dedup [theta] [path]
//
// Without a path, a synthetic Enron-like corpus is generated; with a path,
// each line of the file is treated as one document.

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/fsjoin.h"
#include "text/corpus_io.h"
#include "text/generator.h"
#include "util/string_util.h"

namespace {

/// Union-find over record ids, used to group pairwise matches into
/// duplicate clusters.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

int main(int argc, char** argv) {
  double theta = 0.8;
  if (argc > 1) {
    fsjoin::Result<double> parsed = fsjoin::ParseFraction(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad theta: %s\nusage: %s [theta] [path]\n",
                   parsed.status().message().c_str(), argv[0]);
      return 2;
    }
    theta = *parsed;
  }

  fsjoin::Corpus corpus;
  if (argc > 2) {
    fsjoin::Result<fsjoin::Corpus> loaded = fsjoin::ReadCorpusText(argv[2]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", argv[2],
                   loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded).value();
  } else {
    std::printf("generating a synthetic Enron-like corpus...\n");
    corpus = fsjoin::GenerateCorpus(fsjoin::EmailLikeConfig(0.5));
  }
  fsjoin::CorpusStats stats = fsjoin::ComputeStats(corpus);
  std::printf("corpus: %s records, vocab %s, avg length %.1f tokens\n",
              fsjoin::WithThousandsSep(stats.num_records).c_str(),
              fsjoin::WithThousandsSep(stats.vocab_size).c_str(),
              stats.avg_len);

  fsjoin::FsJoinConfig config;
  config.theta = theta;
  config.num_vertical_partitions = 16;
  config.num_horizontal_partitions = 8;  // long-record corpora benefit most
  config.exec.num_map_tasks = 16;
  config.exec.num_reduce_tasks = 16;

  fsjoin::Result<fsjoin::FsJoinOutput> result =
      fsjoin::FsJoin(config).Run(corpus);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // Group matches into duplicate clusters.
  UnionFind groups(corpus.NumRecords());
  for (const fsjoin::SimilarPair& pair : result->pairs) {
    groups.Union(pair.a, pair.b);
  }
  std::map<size_t, std::vector<fsjoin::RecordId>> clusters;
  for (fsjoin::RecordId r = 0; r < corpus.NumRecords(); ++r) {
    clusters[groups.Find(r)].push_back(r);
  }

  std::vector<const std::vector<fsjoin::RecordId>*> dup_clusters;
  for (const auto& [root, members] : clusters) {
    if (members.size() > 1) dup_clusters.push_back(&members);
  }
  std::sort(dup_clusters.begin(), dup_clusters.end(),
            [](const auto* a, const auto* b) { return a->size() > b->size(); });

  std::printf(
      "\nfound %zu near-duplicate pairs in %zu clusters (theta = %.2f)\n",
      result->pairs.size(), dup_clusters.size(), theta);
  std::printf("largest duplicate clusters:\n");
  for (size_t i = 0; i < std::min<size_t>(dup_clusters.size(), 5); ++i) {
    std::printf("  cluster of %zu records: ", dup_clusters[i]->size());
    for (size_t j = 0; j < std::min<size_t>(dup_clusters[i]->size(), 8); ++j) {
      std::printf("%u ", (*dup_clusters[i])[j]);
    }
    std::printf("\n");
  }
  std::printf("\n%s\n", result->report.Summary().c_str());
  return 0;
}

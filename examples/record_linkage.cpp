// Record linkage across two collections (the paper's data-integration
// motivation): R-S join between two "databases" describing overlapping
// entities, using FsJoinRS.
//
//   ./record_linkage [theta]
//
// Two synthetic catalogs are generated that share a subset of entities
// with noisy descriptions; the join links them without comparing every
// (R, S) pair.

#include <cstdio>
#include <string>
#include <vector>

#include "core/fsjoin.h"
#include "text/corpus.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

/// Builds two catalogs: `shared` entities appear in both (with per-token
/// noise), plus unique records on each side.
void BuildCatalogs(size_t shared, size_t unique_each, fsjoin::Corpus* r,
                   fsjoin::Corpus* s) {
  fsjoin::Rng rng(2017);
  auto random_description = [&rng]() {
    std::string line;
    const size_t len = 8 + rng.NextBounded(10);
    for (size_t i = 0; i < len; ++i) {
      line += fsjoin::StrFormat("attr%llu ",
                                static_cast<unsigned long long>(
                                    rng.NextBounded(40000)));
    }
    return line;
  };
  auto perturb = [&rng](const std::string& line) {
    std::vector<std::string_view> parts = fsjoin::SplitString(line, " ");
    std::string out;
    for (const auto& p : parts) {
      if (rng.NextBool(0.1)) continue;  // drop ~10% of attributes
      out += std::string(p) + " ";
    }
    out += fsjoin::StrFormat(
        "attr%llu", static_cast<unsigned long long>(rng.NextBounded(40000)));
    return out;
  };

  std::vector<std::string> r_lines, s_lines;
  for (size_t i = 0; i < shared; ++i) {
    std::string base = random_description();
    r_lines.push_back(base);
    s_lines.push_back(perturb(base));
  }
  for (size_t i = 0; i < unique_each; ++i) {
    r_lines.push_back(random_description());
    s_lines.push_back(random_description());
  }
  fsjoin::WordTokenizer tokenizer;
  *r = fsjoin::BuildCorpus(r_lines, tokenizer);
  *s = fsjoin::BuildCorpus(s_lines, tokenizer);
}

}  // namespace

int main(int argc, char** argv) {
  double theta = 0.6;
  if (argc > 1) {
    fsjoin::Result<double> parsed = fsjoin::ParseFraction(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad theta: %s\nusage: %s [theta]\n",
                   parsed.status().message().c_str(), argv[0]);
      return 2;
    }
    theta = *parsed;
  }
  const size_t kShared = 800;
  const size_t kUniqueEach = 1200;

  fsjoin::Corpus r, s;
  BuildCatalogs(kShared, kUniqueEach, &r, &s);
  std::printf("catalog R: %zu records, catalog S: %zu records\n",
              r.NumRecords(), s.NumRecords());
  std::printf("%zu entities appear in both (with ~10%% attribute noise)\n\n",
              kShared);

  fsjoin::FsJoinConfig config;
  config.theta = theta;
  config.num_vertical_partitions = 8;
  fsjoin::Result<fsjoin::FsJoinOutput> result =
      fsjoin::FsJoinRS(r, s, config);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // Result ids: a < |R| is the R-side record; b - |R| is the S-side one.
  const fsjoin::RecordId boundary =
      static_cast<fsjoin::RecordId>(r.NumRecords());
  size_t true_links = 0;
  for (const fsjoin::SimilarPair& pair : result->pairs) {
    fsjoin::RecordId r_id = pair.a;
    fsjoin::RecordId s_id = pair.b - boundary;
    if (r_id == s_id && r_id < kShared) ++true_links;
  }

  std::printf("linked %zu (R, S) pairs at jaccard >= %.2f\n",
              result->pairs.size(), theta);
  std::printf("  %zu of %zu planted links recovered (%.1f%% recall)\n",
              true_links, kShared, 100.0 * true_links / kShared);
  std::printf("  %zu links are other coincidental matches\n",
              result->pairs.size() - true_links);
  std::printf("\n%s\n", result->report.Summary().c_str());
  return 0;
}

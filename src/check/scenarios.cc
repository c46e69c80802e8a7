#include "check/scenarios.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "text/generator.h"
#include "util/string_util.h"

namespace fsjoin::check {

namespace {

const char* const kFamilies[] = {"zipf",       "uniform",     "clustered",
                                 "duplicates", "degenerate",  "same-prefix",
                                 "planted"};
constexpr size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);

/// Sizes and overlap of a pair whose similarity is exactly theta. Both
/// records have `size` tokens; they share `overlap` of them.
struct PlantShape {
  uint32_t size = 0;
  uint32_t overlap = 0;
};

// Searches equal-size shapes (a = b = s) for one whose similarity hits
// theta exactly: Jaccard needs c/(2s-c) == theta, Dice and Cosine c/s ==
// theta. Starts at a randomized size so different plantings differ.
std::optional<PlantShape> ExactShape(SimilarityFunction fn, double theta,
                                     Rng& rng) {
  const uint32_t start = 3 + static_cast<uint32_t>(rng.NextBounded(10));
  for (uint32_t step = 0; step < 40; ++step) {
    const uint32_t s = start + step;
    double c_real = 0.0;
    switch (fn) {
      case SimilarityFunction::kJaccard:
        c_real = 2.0 * s * theta / (1.0 + theta);
        break;
      case SimilarityFunction::kDice:
      case SimilarityFunction::kCosine:
        c_real = s * theta;
        break;
    }
    const uint32_t c = static_cast<uint32_t>(std::llround(c_real));
    if (c < 1 || c > s) continue;
    if (std::abs(ComputeSimilarity(fn, c, s, s) - theta) < 1e-12) {
      return PlantShape{s, c};
    }
  }
  return std::nullopt;
}

// Appends a record pair of `size` tokens each sharing exactly `overlap`
// fresh ids starting at *next_token.
void AppendPair(std::vector<std::vector<uint32_t>>* sets, uint32_t size,
                uint32_t overlap, uint32_t* next_token) {
  std::vector<uint32_t> a, b;
  for (uint32_t i = 0; i < overlap; ++i) {
    a.push_back(*next_token);
    b.push_back(*next_token);
    ++*next_token;
  }
  for (uint32_t i = overlap; i < size; ++i) a.push_back((*next_token)++);
  for (uint32_t i = overlap; i < size; ++i) b.push_back((*next_token)++);
  sets->push_back(std::move(a));
  sets->push_back(std::move(b));
}

// Draws a set of `len` distinct ids in [0, vocab).
std::vector<uint32_t> DrawSet(uint32_t len, uint32_t vocab, Rng& rng) {
  std::unordered_set<uint32_t> seen;
  std::vector<uint32_t> out;
  len = std::min(len, vocab);
  while (out.size() < len) {
    uint32_t t = static_cast<uint32_t>(rng.NextBounded(vocab));
    if (seen.insert(t).second) out.push_back(t);
  }
  return out;
}

std::vector<std::vector<uint32_t>> GeneratorFamily(uint64_t seed, double skew,
                                                   Rng& rng) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 20 + rng.NextBounded(28);
  cfg.vocab_size = 60 + rng.NextBounded(140);
  cfg.zipf_skew = skew;
  cfg.avg_len = 5 + static_cast<double>(rng.NextBounded(8));
  cfg.len_sigma = 0.5;
  cfg.min_len = 1;
  cfg.max_len = 40;
  cfg.near_duplicate_fraction = 0.3;
  cfg.mutation_rate = 0.1;
  cfg.seed = seed * 2654435761ull + 17;
  return SetsFromCorpus(GenerateCorpus(cfg));
}

std::vector<std::vector<uint32_t>> ClusteredFamily(Rng& rng) {
  const uint32_t topics = 3 + static_cast<uint32_t>(rng.NextBounded(4));
  const uint32_t pool = 10 + static_cast<uint32_t>(rng.NextBounded(12));
  const uint32_t records = 20 + static_cast<uint32_t>(rng.NextBounded(24));
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t i = 0; i < records; ++i) {
    const uint32_t topic = static_cast<uint32_t>(rng.NextBounded(topics));
    const uint32_t len = 3 + static_cast<uint32_t>(rng.NextBounded(8));
    std::vector<uint32_t> set = DrawSet(len, pool, rng);
    for (uint32_t& t : set) t += topic * pool;  // disjoint per-topic pools
    sets.push_back(std::move(set));
  }
  return sets;
}

std::vector<std::vector<uint32_t>> DuplicatesFamily(Rng& rng) {
  const uint32_t base_count = 5 + static_cast<uint32_t>(rng.NextBounded(6));
  const uint32_t records = 24 + static_cast<uint32_t>(rng.NextBounded(20));
  std::vector<std::vector<uint32_t>> base;
  for (uint32_t i = 0; i < base_count; ++i) {
    base.push_back(
        DrawSet(4 + static_cast<uint32_t>(rng.NextBounded(8)), 80, rng));
  }
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t i = 0; i < records; ++i) {
    std::vector<uint32_t> copy = base[rng.NextBounded(base_count)];
    if (rng.NextBool(0.3) && !copy.empty()) {
      // One-token mutation: high-similarity but non-identical neighbors.
      copy[rng.NextBounded(copy.size())] =
          80 + static_cast<uint32_t>(rng.NextBounded(40));
    }
    sets.push_back(std::move(copy));
  }
  return sets;
}

std::vector<std::vector<uint32_t>> DegenerateFamily(Rng& rng) {
  const uint32_t records = 16 + static_cast<uint32_t>(rng.NextBounded(24));
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t i = 0; i < records; ++i) {
    const uint64_t kind = rng.NextBounded(4);
    if (kind == 0) {
      sets.emplace_back();  // empty set
    } else if (kind == 1) {
      // Single token, drawn from a tiny domain so some collide exactly.
      sets.push_back({static_cast<uint32_t>(rng.NextBounded(6))});
    } else {
      sets.push_back(
          DrawSet(1 + static_cast<uint32_t>(rng.NextBounded(6)), 60, rng));
    }
  }
  return sets;
}

std::vector<std::vector<uint32_t>> SamePrefixFamily(Rng& rng) {
  const uint32_t prefix_len = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  const uint32_t records = 20 + static_cast<uint32_t>(rng.NextBounded(20));
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t i = 0; i < records; ++i) {
    // Shared rare prefix: ids 0..prefix_len-1 appear in every record, so a
    // frequency-ascending global ordering puts them at the *end*; suffixes
    // draw from a shifted domain. Adversarial for prefix-filtered joins:
    // candidate generation must survive all records colliding on tokens.
    std::vector<uint32_t> set;
    for (uint32_t p = 0; p < prefix_len; ++p) set.push_back(p);
    std::vector<uint32_t> suffix =
        DrawSet(2 + static_cast<uint32_t>(rng.NextBounded(8)), 50, rng);
    for (uint32_t t : suffix) set.push_back(prefix_len + t);
    sets.push_back(std::move(set));
  }
  return sets;
}

}  // namespace

std::vector<std::string> ScenarioFamilies() {
  return std::vector<std::string>(kFamilies, kFamilies + kNumFamilies);
}

void PlantNearThresholdPairs(std::vector<std::vector<uint32_t>>* sets,
                             SimilarityFunction fn, double theta, size_t count,
                             uint32_t next_token, Rng& rng) {
  for (size_t i = 0; i < count; ++i) {
    std::optional<PlantShape> shape = ExactShape(fn, theta, rng);
    if (!shape.has_value()) {
      // Theta is not exactly representable at small sizes; plant the
      // closest bracketing pairs instead so the boundary is still probed.
      const uint32_t s = 6 + static_cast<uint32_t>(rng.NextBounded(8));
      const uint32_t c = std::max<uint32_t>(
          1, static_cast<uint32_t>(std::floor(theta * s)));
      AppendPair(sets, s, std::min(c, s), &next_token);
      if (c + 1 <= s) AppendPair(sets, s, c + 1, &next_token);
      continue;
    }
    // sim == theta exactly.
    AppendPair(sets, shape->size, shape->overlap, &next_token);
    // sim just below theta (one shared token fewer).
    if (shape->overlap > 1) {
      AppendPair(sets, shape->size, shape->overlap - 1, &next_token);
    }
    // sim just above theta (one shared token more, or identical records).
    if (shape->overlap < shape->size) {
      AppendPair(sets, shape->size, shape->overlap + 1, &next_token);
    } else if (theta < 1.0) {
      AppendPair(sets, shape->size, shape->size, &next_token);
    }
  }
}

Corpus CorpusFromSets(const std::vector<std::vector<uint32_t>>& sets) {
  std::vector<std::string> lines;
  lines.reserve(sets.size());
  for (const std::vector<uint32_t>& set : sets) {
    std::string line;
    for (uint32_t t : set) {
      if (!line.empty()) line += ' ';
      line += StrFormat("t%u", t);
    }
    lines.push_back(std::move(line));
  }
  WhitespaceTokenizer tokenizer;
  return BuildCorpus(lines, tokenizer);
}

std::vector<std::vector<uint32_t>> SetsFromCorpus(const Corpus& corpus) {
  std::vector<std::vector<uint32_t>> sets;
  sets.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    std::vector<uint32_t> set;
    set.reserve(rec.tokens.size());
    for (TokenId t : rec.tokens) {
      const std::string_view s = corpus.dictionary.TokenString(t);
      uint32_t id = 0;
      bool parsed = s.size() > 1 && s[0] == 't';
      if (parsed) {
        for (size_t i = 1; i < s.size(); ++i) {
          if (s[i] < '0' || s[i] > '9') {
            parsed = false;
            break;
          }
          id = id * 10 + static_cast<uint32_t>(s[i] - '0');
        }
      }
      // Corpora not built from "t<id>" strings fall back to raw TokenIds,
      // which are just as stable for rebuild purposes.
      set.push_back(parsed ? id : static_cast<uint32_t>(t));
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

std::string JoinShape::Name() const {
  if (!rs) return "self";
  return StrFormat("rs%u:%u", r_weight, s_weight);
}

JoinShape SampleJoinShape(uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
  JoinShape shape;
  if (!rng.NextBool(0.5)) return shape;  // self join
  shape.rs = true;
  constexpr uint32_t kRatios[][2] = {{1, 1}, {1, 10}, {10, 1}, {1, 0}};
  const uint64_t pick = rng.NextBounded(4);
  shape.r_weight = kRatios[pick][0];
  shape.s_weight = kRatios[pick][1];
  return shape;
}

Scenario MakeScenario(uint64_t seed, SimilarityFunction fn, double theta) {
  return MakeScenario(seed, fn, theta, JoinShape{});
}

Scenario MakeScenario(uint64_t seed, SimilarityFunction fn, double theta,
                      const JoinShape& shape) {
  Scenario scenario;
  scenario.seed = seed;
  scenario.family = kFamilies[seed % kNumFamilies];
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);

  std::vector<std::vector<uint32_t>> sets;
  size_t plant_count = 2;
  switch (seed % kNumFamilies) {
    case 0:
      sets = GeneratorFamily(seed, 0.8 + 0.4 * rng.NextDouble(), rng);
      break;
    case 1:
      sets = GeneratorFamily(seed, 0.0, rng);
      break;
    case 2:
      sets = ClusteredFamily(rng);
      break;
    case 3:
      sets = DuplicatesFamily(rng);
      break;
    case 4:
      sets = DegenerateFamily(rng);
      break;
    case 5:
      sets = SamePrefixFamily(rng);
      break;
    default:  // planted: a small base corpus dominated by boundary pairs
      sets = GeneratorFamily(seed, 1.0, rng);
      sets.resize(std::min<size_t>(sets.size(), 16));
      plant_count = 4;
      break;
  }
  const size_t base_count = sets.size();

  // Every family gets near-threshold pairs: the boundary sim ∈
  // {tau - eps, tau, tau + eps} is where exact-join reproductions drift.
  uint32_t next_token = 0;
  for (const std::vector<uint32_t>& set : sets) {
    for (uint32_t t : set) next_token = std::max(next_token, t + 1);
  }
  PlantNearThresholdPairs(&sets, fn, theta, plant_count, next_token, rng);

  if (!shape.rs) {
    scenario.corpus = CorpusFromSets(sets);
    return scenario;
  }

  // Split into R and S. Planted records arrive as consecutive (a, b) pairs
  // after base_count: a goes to R and b to S, so every near-threshold pair
  // straddles the boundary. Base records draw their side from the ratio.
  // s_weight == 0 keeps S empty (everything, planted pairs included, in R).
  std::vector<std::vector<uint32_t>> r_sets, s_sets;
  const double r_probability =
      shape.s_weight == 0
          ? 1.0
          : static_cast<double>(shape.r_weight) /
                static_cast<double>(shape.r_weight + shape.s_weight);
  for (size_t i = 0; i < sets.size(); ++i) {
    bool to_r;
    if (shape.s_weight == 0) {
      to_r = true;
    } else if (i >= base_count) {
      to_r = (i - base_count) % 2 == 0;
    } else {
      to_r = rng.NextBool(r_probability);
    }
    (to_r ? r_sets : s_sets).push_back(std::move(sets[i]));
  }
  scenario.family += '/';
  scenario.family += shape.Name();
  scenario.rs_boundary = static_cast<RecordId>(r_sets.size());
  for (std::vector<uint32_t>& set : s_sets) r_sets.push_back(std::move(set));
  scenario.corpus = CorpusFromSets(r_sets);
  return scenario;
}

}  // namespace fsjoin::check

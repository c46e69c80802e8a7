#include "check/minimizer.h"

#include <algorithm>
#include <utility>

#include "check/scenarios.h"
#include "exec/exec_config.h"
#include "util/string_util.h"

namespace fsjoin::check {

namespace {

/// Counts predicate evaluations against the budget so minimization always
/// terminates, even on predicates that are slow or flaky-ish.
class Shrinker {
 public:
  Shrinker(const FailurePredicate& fails, size_t budget)
      : fails_(fails), budget_(budget) {}

  bool StillFails(const std::vector<std::vector<uint32_t>>& sets,
                  const LatticePoint& point) {
    if (runs_ >= budget_) return false;
    ++runs_;
    return fails_(CorpusFromSets(sets), point);
  }

  bool Exhausted() const { return runs_ >= budget_; }
  size_t runs() const { return runs_; }

 private:
  const FailurePredicate& fails_;
  size_t budget_;
  size_t runs_ = 0;
};

/// Classic ddmin over whole records: remove ever-finer complement chunks as
/// long as the failure survives. In R-S mode removing records shifts ids
/// across the boundary, so each candidate recomputes it as the number of
/// surviving records that were on the R side — the minimized repro keeps a
/// consistent two-collection shape all the way down.
void DdminRecords(Shrinker& shrinker, LatticePoint* point,
                  std::vector<std::vector<uint32_t>>* sets) {
  size_t n = 2;
  while (sets->size() >= 2 && !shrinker.Exhausted()) {
    const size_t size = sets->size();
    const size_t chunk = (size + n - 1) / n;
    bool reduced = false;
    for (size_t start = 0; start < size; start += chunk) {
      std::vector<std::vector<uint32_t>> candidate;
      candidate.reserve(size - 1);
      RecordId kept_r = 0;
      for (size_t i = 0; i < size; ++i) {
        if (i < start || i >= start + chunk) {
          if (point->rs_boundary.has_value() && i < *point->rs_boundary) {
            ++kept_r;
          }
          candidate.push_back((*sets)[i]);
        }
      }
      if (candidate.size() == size) continue;
      LatticePoint candidate_point = *point;
      if (candidate_point.rs_boundary.has_value()) {
        candidate_point.rs_boundary = kept_r;
      }
      if (shrinker.StillFails(candidate, candidate_point)) {
        *sets = std::move(candidate);
        *point = std::move(candidate_point);
        n = std::max<size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= size) break;
      n = std::min(size, n * 2);
    }
  }
}

/// Greedy single-token removal inside each surviving record.
void ShrinkTokens(Shrinker& shrinker, const LatticePoint& point,
                  std::vector<std::vector<uint32_t>>* sets) {
  for (size_t r = 0; r < sets->size(); ++r) {
    for (size_t t = 0; t < (*sets)[r].size() && !shrinker.Exhausted();) {
      std::vector<std::vector<uint32_t>> candidate = *sets;
      candidate[r].erase(candidate[r].begin() + static_cast<ptrdiff_t>(t));
      if (shrinker.StillFails(candidate, point)) {
        *sets = std::move(candidate);
      } else {
        ++t;
      }
    }
  }
}

template <typename Fn>
void MutateExec(LatticePoint* point, Fn mutate) {
  mutate(&point->fsjoin.exec);
  mutate(&point->baseline.exec);
}

/// Resets knobs toward their defaults, keeping each reset only if the
/// failure survives. Theta, the similarity function, the join method and
/// the filter toggles are semantic — they stay as sampled.
void ShrinkConfig(Shrinker& shrinker,
                  const std::vector<std::vector<uint32_t>>& sets,
                  LatticePoint* point) {
  auto try_mutation = [&](auto mutate) {
    LatticePoint candidate = *point;
    mutate(&candidate);
    if (shrinker.StillFails(sets, candidate)) *point = candidate;
  };

  try_mutation([](LatticePoint* p) {
    MutateExec(p, [](exec::ExecConfig* e) { e->num_threads = 0; });
  });
  try_mutation([](LatticePoint* p) {
    MutateExec(p, [](exec::ExecConfig* e) { e->shuffle_memory_bytes = 0; });
  });
  try_mutation([](LatticePoint* p) {
    MutateExec(p, [](exec::ExecConfig* e) {
      e->num_map_tasks = 1;
      e->num_reduce_tasks = 1;
    });
  });
  if (point->algorithm == Algorithm::kFsJoin) {
    try_mutation(
        [](LatticePoint* p) { p->fsjoin.num_horizontal_partitions = 0; });
    try_mutation(
        [](LatticePoint* p) { p->fsjoin.pivot_strategy = PivotStrategy::kEvenTf; });
    for (uint32_t v : {1u, 2u, 4u}) {
      if (v >= point->fsjoin.num_vertical_partitions) break;
      LatticePoint candidate = *point;
      candidate.fsjoin.num_vertical_partitions = v;
      if (shrinker.StillFails(sets, candidate)) {
        *point = candidate;
        break;
      }
    }
    try_mutation([](LatticePoint* p) { p->fsjoin.seed = 7; });
  }
  if (point->algorithm == Algorithm::kMassJoin) {
    try_mutation([](LatticePoint* p) { p->massjoin_length_group = 1; });
  }
}

const char* FunctionLiteral(SimilarityFunction fn) {
  switch (fn) {
    case SimilarityFunction::kJaccard:
      return "SimilarityFunction::kJaccard";
    case SimilarityFunction::kDice:
      return "SimilarityFunction::kDice";
    case SimilarityFunction::kCosine:
      return "SimilarityFunction::kCosine";
  }
  return "SimilarityFunction::kJaccard";
}

const char* PivotLiteral(PivotStrategy strategy) {
  switch (strategy) {
    case PivotStrategy::kRandom:
      return "PivotStrategy::kRandom";
    case PivotStrategy::kEvenInterval:
      return "PivotStrategy::kEvenInterval";
    case PivotStrategy::kEvenTf:
      return "PivotStrategy::kEvenTf";
  }
  return "PivotStrategy::kEvenTf";
}

const char* MethodLiteral(JoinMethod method) {
  switch (method) {
    case JoinMethod::kLoop:
      return "JoinMethod::kLoop";
    case JoinMethod::kIndex:
      return "JoinMethod::kIndex";
    case JoinMethod::kPrefix:
      return "JoinMethod::kPrefix";
  }
  return "JoinMethod::kPrefix";
}

void EmitExecOverrides(const exec::ExecConfig& exec, const std::string& var,
                       std::string* out) {
  const exec::ExecConfig defaults;
  if (exec.num_map_tasks != defaults.num_map_tasks) {
    *out += StrFormat("  %s.exec.num_map_tasks = %u;\n", var.c_str(),
                      exec.num_map_tasks);
  }
  if (exec.num_reduce_tasks != defaults.num_reduce_tasks) {
    *out += StrFormat("  %s.exec.num_reduce_tasks = %u;\n", var.c_str(),
                      exec.num_reduce_tasks);
  }
  if (exec.num_threads != defaults.num_threads) {
    *out += StrFormat("  %s.exec.num_threads = %zu;\n", var.c_str(),
                      exec.num_threads);
  }
  if (exec.shuffle_memory_bytes != defaults.shuffle_memory_bytes) {
    *out += StrFormat("  %s.exec.shuffle_memory_bytes = %llu;\n", var.c_str(),
                      static_cast<unsigned long long>(
                          exec.shuffle_memory_bytes));
  }
}

}  // namespace

Corpus MinimizedRepro::RebuildCorpus() const { return CorpusFromSets(sets); }

std::string MinimizedRepro::ToCppTestCase() const {
  std::string out;
  out += "// Minimized repro generated by fsjoin_fuzz.\n";
  out += "// Point: " + point.Name() + "\n";
  if (!failure.empty()) {
    out += "// Failure: " + failure.substr(0, failure.find('\n')) + "\n";
  }
  out += "TEST(FuzzRepro, Minimized) {\n";
  out += "  const Corpus corpus = testing::CorpusFromTokenSets({\n";
  for (const auto& set : sets) {
    out += "      {";
    for (size_t i = 0; i < set.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(set[i]);
    }
    out += "},\n";
  }
  out += "  });\n";

  const double theta = point.theta();
  const SimilarityFunction fn = point.function();
  if (point.algorithm == Algorithm::kFsJoin) {
    const FsJoinConfig& cfg = point.fsjoin;
    const FsJoinConfig defaults;
    out += "  FsJoinConfig config;\n";
    out += StrFormat("  config.theta = %.17g;\n", theta);
    out += StrFormat("  config.function = %s;\n", FunctionLiteral(fn));
    if (cfg.num_vertical_partitions != defaults.num_vertical_partitions) {
      out += StrFormat("  config.num_vertical_partitions = %u;\n",
                       cfg.num_vertical_partitions);
    }
    if (cfg.pivot_strategy != defaults.pivot_strategy) {
      out += StrFormat("  config.pivot_strategy = %s;\n",
                       PivotLiteral(cfg.pivot_strategy));
    }
    if (cfg.num_horizontal_partitions != defaults.num_horizontal_partitions) {
      out += StrFormat("  config.num_horizontal_partitions = %u;\n",
                       cfg.num_horizontal_partitions);
    }
    if (cfg.join_method != defaults.join_method) {
      out += StrFormat("  config.join_method = %s;\n",
                       MethodLiteral(cfg.join_method));
    }
    if (cfg.use_length_filter != defaults.use_length_filter) {
      out += "  config.use_length_filter = false;\n";
    }
    if (cfg.use_segment_length_filter != defaults.use_segment_length_filter) {
      out += "  config.use_segment_length_filter = false;\n";
    }
    if (cfg.use_segment_intersection_filter !=
        defaults.use_segment_intersection_filter) {
      out += "  config.use_segment_intersection_filter = false;\n";
    }
    if (cfg.use_segment_difference_filter !=
        defaults.use_segment_difference_filter) {
      out += "  config.use_segment_difference_filter = false;\n";
    }
    if (cfg.seed != defaults.seed) {
      out += StrFormat("  config.seed = %llu;\n",
                       static_cast<unsigned long long>(cfg.seed));
    }
    EmitExecOverrides(cfg.exec, "config", &out);
    if (point.rs_boundary.has_value()) {
      out += StrFormat("  config.rs_boundary = %u;\n", *point.rs_boundary);
      out += StrFormat(
          "  const JoinResultSet expected = BruteForceJoinRS(\n"
          "      testing::OrderedView(corpus), %u, config.function, "
          "config.theta);\n",
          *point.rs_boundary);
    } else {
      out +=
          "  const JoinResultSet expected = BruteForceJoin(\n"
          "      testing::OrderedView(corpus), config.function, "
          "config.theta);\n";
    }
    out +=
        "  Result<FsJoinOutput> out = FsJoin(config).Run(corpus);\n"
        "  ASSERT_TRUE(out.ok()) << out.status().ToString();\n"
        "  EXPECT_TRUE(SamePairs(expected, out->pairs))\n"
        "      << DiffResults(expected, out->pairs);\n";
  } else {
    const char* runner = point.algorithm == Algorithm::kVernica
                             ? "RunVernicaJoin"
                             : point.algorithm == Algorithm::kVSmart
                                   ? "RunVSmartJoin"
                                   : "RunMassJoin";
    if (point.algorithm == Algorithm::kMassJoin) {
      out += "  MassJoinConfig config;\n";
      if (point.massjoin_length_group != 1) {
        out += StrFormat("  config.length_group = %u;\n",
                         point.massjoin_length_group);
      }
    } else {
      out += "  BaselineConfig config;\n";
    }
    out += StrFormat("  config.theta = %.17g;\n", theta);
    out += StrFormat("  config.function = %s;\n", FunctionLiteral(fn));
    EmitExecOverrides(point.baseline.exec, "config", &out);
    if (point.rs_boundary.has_value()) {
      out += StrFormat("  config.rs_boundary = %u;\n", *point.rs_boundary);
      out += StrFormat(
          "  const JoinResultSet expected = BruteForceJoinRS(\n"
          "      testing::OrderedView(corpus), %u, config.function, "
          "config.theta);\n",
          *point.rs_boundary);
    } else {
      out +=
          "  const JoinResultSet expected = BruteForceJoin(\n"
          "      testing::OrderedView(corpus), config.function, "
          "config.theta);\n";
    }
    out += StrFormat(
        "  Result<BaselineOutput> out = %s(corpus, config);\n"
        "  ASSERT_TRUE(out.ok()) << out.status().ToString();\n"
        "  EXPECT_TRUE(SamePairs(expected, out->pairs))\n"
        "      << DiffResults(expected, out->pairs);\n",
        runner);
  }
  out += "}\n";
  return out;
}

MinimizedRepro Minimize(const Corpus& corpus, const LatticePoint& point,
                        const FailurePredicate& fails, size_t budget) {
  MinimizedRepro repro;
  repro.point = point;
  repro.sets = SetsFromCorpus(corpus);
  repro.original_records = repro.sets.size();

  Shrinker shrinker(fails, budget);
  // The input must actually fail, or every shrink step would be vacuous.
  if (!shrinker.StillFails(repro.sets, repro.point)) {
    repro.predicate_runs = shrinker.runs();
    return repro;
  }
  // Record removal, token removal and config simplification unlock each
  // other: dropping a token shifts frequencies, the global ordering, and
  // the pivots; fewer vertical partitions make the failure less
  // pivot-sensitive, which can make a record that previously carried the
  // failure removable (and vice versa). R-S repros are especially
  // pivot-sensitive, so iterate the passes to a fixpoint instead of
  // running each once.
  for (;;) {
    const size_t records_before = repro.sets.size();
    size_t tokens_before = 0;
    for (const auto& set : repro.sets) tokens_before += set.size();
    DdminRecords(shrinker, &repro.point, &repro.sets);
    ShrinkTokens(shrinker, repro.point, &repro.sets);
    ShrinkConfig(shrinker, repro.sets, &repro.point);
    size_t tokens_after = 0;
    for (const auto& set : repro.sets) tokens_after += set.size();
    if (shrinker.Exhausted() || (repro.sets.size() == records_before &&
                                 tokens_after == tokens_before)) {
      break;
    }
  }
  repro.predicate_runs = shrinker.runs();
  return repro;
}

}  // namespace fsjoin::check

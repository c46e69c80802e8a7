#ifndef FSJOIN_CORE_COST_MODEL_H_
#define FSJOIN_CORE_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "core/fsjoin_config.h"
#include "text/corpus.h"
#include "util/status.h"

namespace fsjoin {

/// The paper's cost analysis (§V-C, Lemma 5 and Appendix A) as executable
/// code. The analysis prices one FS-Join self-join (filtering +
/// verification jobs; the paper excludes its ordering job) as
///
///   map      Σ|s_i|·C_m                      — tokenize/split each record
///   shuffle  Σ|s_i|·C_s                      — duplicate-free: the map
///                                              output is the input itself
///   reduce   N·(M·p/N)²·avg|seg|·C_r         — loop-join cost per
///                                              fragment, N fragments
///   verify   K·(C_m + C_s + C_r) + K·β·C_o   — K = α·pair-candidates
///
/// where M = #records, N = #fragments, p = probability a record has a
/// non-empty segment in a fragment, α = candidate rate, β = result rate.
/// (The published formula has obvious typos — a stray N·α term and
/// mismatched parentheses; this is the cleaned-up form implied by the
/// Appendix A derivation, documented in DESIGN.md.)
struct CostModelParams {
  double cost_map = 1.0;      ///< C_m per token
  double cost_shuffle = 2.0;  ///< C_s per token
  double cost_reduce = 1.0;   ///< C_r per token comparison
  double cost_output = 1.0;   ///< C_o per output record
  /// Fixed cost per fragment (reduce-task scheduling, index setup). Not in
  /// the paper's formula — without it more fragments always win and the
  /// Lemma 5 optimum degenerates to "as many as possible"; any real
  /// cluster pays per-task overhead.
  double cost_per_fragment = 50000.0;

  /// Probability a record contributes a non-empty segment to a fragment
  /// (the paper's p). 1.0 is the conservative default.
  double segment_presence = 1.0;
  /// Fraction of co-fragment record pairs that become candidates (α).
  double candidate_rate = 0.001;
  /// Fraction of candidates that pass verification (β).
  double result_rate = 0.1;
};

/// Cost estimate in abstract cost units, by phase.
struct CostEstimate {
  double map = 0.0;
  double shuffle = 0.0;
  double reduce = 0.0;
  double verify = 0.0;

  double Total() const { return map + shuffle + reduce + verify; }
  std::string ToString() const;
};

/// Evaluates Lemma 5 for a corpus profile and fragment count.
CostEstimate EstimateFsJoinCost(const CorpusStats& stats,
                                uint32_t num_fragments,
                                const CostModelParams& params);

/// The fragment count minimizing the Lemma 5 estimate over [1, max_n].
/// More fragments cut the quadratic reduce term (the (M·p/N)² factor) but
/// cannot reduce map/shuffle — so the curve is convex and the argmin is
/// where reduce stops dominating.
uint32_t OptimalFragments(const CorpusStats& stats, uint32_t max_n,
                          const CostModelParams& params);

/// Applies the paper's sizing rules to a corpus: fragments = max(#workers,
/// ceil(data / worker memory)) (§IV "The Number of Pivots"), refined by the
/// Lemma 5 optimum; horizontal partitions sized so the expected fragment
/// fits in `worker_memory_bytes`.
FsJoinConfig AutoTuneConfig(const CorpusStats& stats, uint32_t num_workers,
                            uint64_t worker_memory_bytes, double theta);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_COST_MODEL_H_

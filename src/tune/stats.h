#ifndef FSJOIN_TUNE_STATS_H_
#define FSJOIN_TUNE_STATS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "text/corpus.h"

namespace fsjoin::tune {

/// Default record-sampling rate of the tuner's statistics pass: 5% keeps
/// the pass well under the ordering job's cost on every bench corpus while
/// the per-fragment load estimates stay within a few percent of exact
/// (tune_test measures the convergence).
inline constexpr double kDefaultSampleRate = 0.05;

/// Whether record `rid` belongs to the seeded sample at `rate`.
///
/// Bernoulli per record with a *fixed* per-record uniform: u(rid) is derived
/// from hash(seed, rid) once, and the record is included iff u(rid) < rate.
/// This makes samples **nested** — the sample at rate r1 is a subset of the
/// sample at any r2 >= r1 — so estimates converge monotonically in
/// expectation as rate -> 1, and at rate 1.0 the sample is exactly the
/// corpus (sampled frequencies equal the dictionary counts, no residual
/// noise). Exposed so the refiner and the property tests agree on
/// membership without materializing record lists.
bool SampleIncludesRecord(uint64_t seed, RecordId rid, double rate);

/// Token-frequency and length statistics over a seeded record sample — the
/// raw inputs of the pivot refiner and the horizontal-t choice.
struct SampleStats {
  double rate = 1.0;            ///< requested inclusion rate in (0, 1]
  uint64_t seed = 0;            ///< membership seed (SampleIncludesRecord)
  uint64_t sampled_records = 0;
  uint64_t total_records = 0;
  uint64_t sampled_tokens = 0;  ///< set elements across sampled records
  /// R-S sampling only (both zero on self-join passes): how the sample
  /// splits across the probe (R) and build (S) sides of the boundary.
  uint64_t sampled_probe = 0;
  uint64_t sampled_build = 0;

  /// Raw per-token occurrence counts within the sample (size = vocab).
  std::vector<uint64_t> sampled_frequency;
  /// |tokens| of every sampled record, corpus order.
  std::vector<uint32_t> sampled_lengths;

  /// Horvitz–Thompson estimate of the exact dictionary frequency:
  /// count / rate. Equals the dictionary count exactly at rate 1.0.
  double EstimatedFrequency(TokenId t) const {
    return static_cast<double>(sampled_frequency[t]) / rate;
  }
};

/// One pass over the corpus: draws the seeded sample at `rate` (clamped to
/// (0, 1]; <= 0 means kDefaultSampleRate) and accumulates the statistics
/// above. Deterministic for a fixed corpus, rate and seed.
SampleStats SampleCorpusStats(const Corpus& corpus, double rate,
                              uint64_t seed);

/// R-S variant over a merged corpus: samples both sides of `rs_boundary`
/// with the same seeded membership, then guarantees every *non-empty* side
/// contributes at least one record by force-including the side's
/// smallest-uniform record when the Bernoulli draw left it empty. Without
/// the guarantee a tiny S (or R) would routinely sample to nothing and the
/// tuner would plan pivots for a one-sided token distribution. The forced
/// inclusion is deterministic (same hash the membership test uses), so the
/// pass stays reproducible across runners. With rs_boundary
/// unset this is exactly SampleCorpusStats above.
SampleStats SampleCorpusStatsRS(const Corpus& corpus, double rate,
                                uint64_t seed,
                                std::optional<RecordId> rs_boundary);

}  // namespace fsjoin::tune

#endif  // FSJOIN_TUNE_STATS_H_

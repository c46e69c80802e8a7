#ifndef FSJOIN_BASELINES_MASSJOIN_H_
#define FSJOIN_BASELINES_MASSJOIN_H_

#include "baselines/baseline.h"
#include "util/status.h"

namespace fsjoin {

/// MassJoin (Deng et al., ICDE 2014) — competitor [4], adapted to set
/// similarity as described in the FS-Join paper's related work: every
/// record generates *per-candidate-partner-length* signatures, which is the
/// source of its enormous intermediate data ("for each integer from 80 to
/// 125, string t will generate signatures separately").
///
/// Pipeline (3 jobs after the paper's ordering stage, which the driver
/// builds from the dictionary's document frequencies like FS-Join's):
///   1. signature job — map: each record emits (a) index signatures: its
///      conservative prefix tokens, and (b) probe signatures: for every
///      candidate partner length l in [lb(|t|), |t|] (grouped into buckets
///      of `length_group` for Merge+Light), the exact-length prefix tokens;
///      reduce: per-token groups match probes to index entries with a
///      matching length, emitting candidate rid pairs.
///   2. merge job — dedups candidates per left rid and attaches the left
///      record's content ("outputs the same string multiple times with the
///      items" — the paper's critique).
///   3. verify job — attaches the right record's content, computes the
///      exact overlap and applies the threshold.
struct MassJoinConfig : public BaselineConfig {
  /// Partner-length bucket width: 1 reproduces the Merge variant, larger
  /// values the Merge+Light token/length-grouping optimization.
  uint32_t length_group = 1;
};

Result<BaselineOutput> RunMassJoin(const Corpus& corpus,
                                   const MassJoinConfig& config);

}  // namespace fsjoin

#endif  // FSJOIN_BASELINES_MASSJOIN_H_

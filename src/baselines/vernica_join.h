#ifndef FSJOIN_BASELINES_VERNICA_JOIN_H_
#define FSJOIN_BASELINES_VERNICA_JOIN_H_

#include "baselines/baseline.h"
#include "util/status.h"

namespace fsjoin {

/// RIDPairsPPJoin (Vernica, Carey, Li: "Efficient parallel set-similarity
/// joins using MapReduce", SIGMOD 2010) — the paper's main competitor [18].
///
/// Pipeline:
///   1. token ordering (stage 1) — built on the driver from the
///      dictionary's document frequencies, the same order as FS-Join's.
///   2. kernel job — map: emit one *full copy of the record per prefix
///      token* (the duplication FS-Join eliminates); reduce: per-token
///      groups run a PPJoin-style in-memory join with length filtering and
///      first-common-prefix-token deduplication, verifying candidates
///      in-reducer against the full records.
///
/// Returns exactly the FS-Join/brute-force result set.
Result<BaselineOutput> RunVernicaJoin(const Corpus& corpus,
                                      const BaselineConfig& config);

}  // namespace fsjoin

#endif  // FSJOIN_BASELINES_VERNICA_JOIN_H_

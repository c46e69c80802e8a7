#ifndef FSJOIN_SIM_SERIAL_JOIN_H_
#define FSJOIN_SIM_SERIAL_JOIN_H_

#include <cstdint>
#include <vector>

#include "sim/global_order.h"
#include "sim/join_result.h"
#include "sim/similarity.h"

namespace fsjoin {

/// Counters shared by the serial joins, reported by the benchmark harness.
struct SerialJoinStats {
  uint64_t candidates = 0;     ///< pairs reaching verification
  uint64_t verified = 0;       ///< pairs surviving verification
  uint64_t prefix_probes = 0;  ///< posting-list entries scanned
};

/// Exact O(n^2) self-join: the correctness oracle for every other join in
/// the repository. Records must have sorted token vectors.
JoinResultSet BruteForceJoin(const std::vector<OrderedRecord>& records,
                             SimilarityFunction fn, double theta);

/// Exact R-S oracle over a merged id space: records with id < rs_boundary
/// are the R side, the rest are S, and only pairs that straddle the
/// boundary are produced (so every pair has a < rs_boundary <= b). The
/// ground truth for every two-collection join in the repository.
JoinResultSet BruteForceJoinRS(const std::vector<OrderedRecord>& records,
                               RecordId rs_boundary, SimilarityFunction fn,
                               double theta);

/// Serial AllPairs (Bayardo et al.): prefix-filter index + length filter +
/// merge verification, without PPJoin's positional filter. A reference
/// join: SerialJoinTest.PositionalFilterOnlyPrunes compares PPJoin against
/// it: the positional filter may prune candidates, never result pairs.
JoinResultSet AllPairsJoin(const std::vector<OrderedRecord>& records,
                           SimilarityFunction fn, double theta,
                           SerialJoinStats* stats = nullptr);

/// Serial PPJoin (Xiao et al.): AllPairs plus the positional filter.
JoinResultSet PPJoin(const std::vector<OrderedRecord>& records,
                     SimilarityFunction fn, double theta,
                     SerialJoinStats* stats = nullptr);

}  // namespace fsjoin

#endif  // FSJOIN_SIM_SERIAL_JOIN_H_

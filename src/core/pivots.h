#ifndef FSJOIN_CORE_PIVOTS_H_
#define FSJOIN_CORE_PIVOTS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/fsjoin_config.h"
#include "sim/global_order.h"

namespace fsjoin {

/// Selects `num_pivots` vertical pivots over the global ordering
/// (Definition 4, §IV). Returned ranks are strictly increasing and lie in
/// (0, order.NumTokens()): pivot p makes rank p the first rank of the next
/// segment, i.e. segment v covers ranks [pivots[v-1], pivots[v]).
///
/// Fewer pivots may be returned when the domain is too small to host
/// `num_pivots` distinct boundaries.
std::vector<TokenRank> SelectPivots(const GlobalOrder& order,
                                    PivotStrategy strategy,
                                    uint32_t num_pivots, uint64_t seed);

/// Segment index (0-based fragment id) a rank falls into for the given
/// pivot boundaries: the number of pivots <= rank, by binary search.
inline uint32_t SegmentOfRank(const std::vector<TokenRank>& pivots,
                              TokenRank rank) {
  return static_cast<uint32_t>(
      std::upper_bound(pivots.begin(), pivots.end(), rank) - pivots.begin());
}

/// Total term frequency covered by each of the pivots.size()+1 fragments —
/// the quantity Even-TF balances (used by tests and the pivot benchmark).
std::vector<uint64_t> FragmentFrequencies(const GlobalOrder& order,
                                          const std::vector<TokenRank>& pivots);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_PIVOTS_H_

#include "core/pivots.h"

#include <algorithm>

#include "util/logging.h"
#include "util/random.h"

namespace fsjoin {

std::vector<TokenRank> SelectPivots(const GlobalOrder& order,
                                    PivotStrategy strategy,
                                    uint32_t num_pivots, uint64_t seed) {
  const uint64_t n = order.NumTokens();
  std::vector<TokenRank> pivots;
  if (num_pivots == 0 || n <= 1) return pivots;
  // A pivot at rank r starts a new segment, so valid pivots are 1..n-1.
  const uint64_t max_pivots = std::min<uint64_t>(num_pivots, n - 1);

  switch (strategy) {
    case PivotStrategy::kRandom: {
      Rng rng(seed);
      std::vector<TokenRank> all(n - 1);
      for (uint64_t i = 0; i < n - 1; ++i) all[i] = static_cast<TokenRank>(i + 1);
      Shuffle(all, rng);
      pivots.assign(all.begin(), all.begin() + max_pivots);
      std::sort(pivots.begin(), pivots.end());
      break;
    }
    case PivotStrategy::kEvenInterval: {
      for (uint64_t k = 1; k <= max_pivots; ++k) {
        TokenRank p = static_cast<TokenRank>(k * n / (max_pivots + 1));
        if (p == 0) p = 1;
        if (pivots.empty() || p > pivots.back()) pivots.push_back(p);
      }
      break;
    }
    case PivotStrategy::kEvenTf: {
      const uint64_t total = order.TotalFrequency();
      if (total == 0) {
        // Degenerate corpus: fall back to even intervals.
        return SelectPivots(order, PivotStrategy::kEvenInterval, num_pivots,
                            seed);
      }
      uint64_t cum = 0;
      uint64_t next_target = 1;
      for (uint64_t r = 0; r < n && pivots.size() < max_pivots; ++r) {
        const uint64_t freq = order.FrequencyAt(static_cast<TokenRank>(r));
        const uint64_t cum_after = cum + freq;
        // Place a boundary when the cumulative frequency crosses the
        // next_target-th equal share of the total, choosing the side of
        // rank r closer to the target to minimize fragment imbalance.
        while (pivots.size() < max_pivots &&
               cum_after * (max_pivots + 1) >= next_target * total) {
          const double target = static_cast<double>(next_target) * total /
                                (max_pivots + 1);
          // Boundary before r if cum is closer to the target, else after.
          TokenRank p = (target - static_cast<double>(cum) <
                         static_cast<double>(cum_after) - target)
                            ? static_cast<TokenRank>(r)
                            : static_cast<TokenRank>(r + 1);
          if (p > 0 && p < n && (pivots.empty() || p > pivots.back())) {
            pivots.push_back(p);
          }
          ++next_target;
        }
        cum = cum_after;
      }
      break;
    }
  }
  return pivots;
}

std::vector<uint64_t> FragmentFrequencies(
    const GlobalOrder& order, const std::vector<TokenRank>& pivots) {
  std::vector<uint64_t> freq(pivots.size() + 1, 0);
  for (uint64_t r = 0; r < order.NumTokens(); ++r) {
    freq[SegmentOfRank(pivots, static_cast<TokenRank>(r))] +=
        order.FrequencyAt(static_cast<TokenRank>(r));
  }
  return freq;
}

}  // namespace fsjoin

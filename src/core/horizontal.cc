#include "core/horizontal.h"

#include <algorithm>

#include "util/logging.h"

namespace fsjoin {

HorizontalScheme::HorizontalScheme(std::vector<uint32_t> length_pivots,
                                   SimilarityFunction fn, double theta)
    : pivots_(std::move(length_pivots)), fn_(fn), theta_(theta) {
  for (size_t i = 1; i < pivots_.size(); ++i) {
    FSJOIN_CHECK(pivots_[i] > pivots_[i - 1]);
  }
}

uint32_t HorizontalScheme::MainGroupOf(uint32_t len) const {
  // Number of pivots <= len.
  return static_cast<uint32_t>(
      std::upper_bound(pivots_.begin(), pivots_.end(), len) -
      pivots_.begin());
}

void HorizontalScheme::GroupsOf(uint32_t len,
                                std::vector<uint32_t>* groups) const {
  groups->clear();
  const uint32_t main = MainGroupOf(len);
  groups->push_back(main);
  const uint32_t t = NumPivots();
  // Minimal exact band membership (tighter than the paper's symmetric
  // [θ·L_k, L_k/θ] window, which duplicates records into bands where the
  // anchor rule can never join them):
  //  * as the *shorter* side of a straddling pair the record is anchored
  //    to band main+1 only — and only if some θ-similar longer partner can
  //    exist (len >= PartnerSizeLowerBound(L_{main+1}));
  //  * as the *longer* side it must attend band k for every pivot
  //    L_k in [PartnerSizeLowerBound(len), len]: exactly the pivots a
  //    θ-similar shorter partner could sit below.
  if (main < t) {
    const uint32_t next_pivot = pivots_[main];
    if (len >= PartnerSizeLowerBound(fn_, theta_, next_pivot)) {
      groups->push_back(t + main + 1);
    }
  }
  // Longer-side bands all have k <= main, so they can never collide with
  // the shorter-side band main+1 above.
  const uint64_t partner_lo = PartnerSizeLowerBound(fn_, theta_, len);
  for (uint32_t k = 1; k <= t; ++k) {
    const uint32_t pivot = pivots_[k - 1];
    if (pivot > len) break;  // pivots ascend; the rest are above len
    if (pivot >= partner_lo) groups->push_back(t + k);
  }
}

bool HorizontalScheme::ShouldJoinInGroup(uint32_t group, uint32_t len_a,
                                         uint32_t len_b) const {
  const uint32_t t = NumPivots();
  if (group <= t) {
    // Main group: join iff both records live in this main group.
    return MainGroupOf(len_a) == group && MainGroupOf(len_b) == group;
  }
  const uint32_t k = group - t;          // band index 1..t
  const uint32_t pivot = pivots_[k - 1];  // L_k
  const uint32_t prev = (k >= 2) ? pivots_[k - 2] : 0;  // L_{k-1}
  const uint32_t shorter = std::min(len_a, len_b);
  const uint32_t longer = std::max(len_a, len_b);
  return shorter >= prev && shorter < pivot && longer >= pivot;
}

std::vector<uint32_t> SelectLengthPivots(
    const std::vector<OrderedRecord>& records, uint32_t t,
    SimilarityFunction fn, double theta) {
  std::vector<uint32_t> lengths;
  lengths.reserve(records.size());
  for (const OrderedRecord& r : records) {
    lengths.push_back(static_cast<uint32_t>(r.Size()));
  }
  return SelectLengthPivotsFromLengths(std::move(lengths), t, fn, theta);
}

std::vector<uint32_t> SelectLengthPivotsFromLengths(
    std::vector<uint32_t> lengths, uint32_t t, SimilarityFunction fn,
    double theta) {
  std::vector<uint32_t> pivots;
  if (t == 0 || lengths.empty()) return pivots;
  std::sort(lengths.begin(), lengths.end());
  for (uint32_t k = 1; k <= t; ++k) {
    size_t idx = static_cast<size_t>(
        static_cast<uint64_t>(k) * lengths.size() / (t + 1));
    if (idx >= lengths.size()) idx = lengths.size() - 1;
    uint32_t pivot = lengths[idx];
    if (pivot == 0) pivot = 1;
    if (pivots.empty()) {
      pivots.push_back(pivot);
      continue;
    }
    // Geometric gap: accept only pivots whose similarity window cannot
    // also contain the previous pivot.
    if (pivot > pivots.back() &&
        PartnerSizeLowerBound(fn, theta, pivot) > pivots.back()) {
      pivots.push_back(pivot);
    }
  }
  return pivots;
}

}  // namespace fsjoin

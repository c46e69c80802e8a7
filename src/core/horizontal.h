#ifndef FSJOIN_CORE_HORIZONTAL_H_
#define FSJOIN_CORE_HORIZONTAL_H_

#include <cstdint>
#include <vector>

#include "sim/global_order.h"
#include "sim/similarity.h"

namespace fsjoin {

/// Horizontal (length-based) partitioning, §V-A "Optimization".
///
/// With t length pivots L_1 < ... < L_t there are 2t+1 groups:
///  * main groups 0..t: group k holds strings with L_k <= |s| < L_{k+1}
///    (L_0 = 0, L_{t+1} = ∞); all pairs within a main group are joined.
///  * band groups t+1..2t: band t+k (k = 1..t) holds strings whose length
///    allows a θ-similar pair straddling pivot L_k; only pairs with
///    L_{k-1} <= |s| < L_k <= |t| are joined there. Anchoring the shorter
///    record to the band's left main group makes each straddling pair's
///    band assignment unique (the paper's rule alone can double-report
///    pairs falling into two overlapping bands; see DESIGN.md).
class HorizontalScheme {
 public:
  /// Disabled scheme: a single group 0.
  HorizontalScheme() = default;

  /// \param length_pivots strictly increasing pivot lengths L_1..L_t.
  HorizontalScheme(std::vector<uint32_t> length_pivots,
                   SimilarityFunction fn, double theta);

  /// Number of groups (1 when disabled, else 2t+1).
  uint32_t NumGroups() const {
    return static_cast<uint32_t>(2 * pivots_.size() + 1);
  }

  uint32_t NumPivots() const { return static_cast<uint32_t>(pivots_.size()); }
  const std::vector<uint32_t>& pivots() const { return pivots_; }

  /// All groups a record of length `len` belongs to (main group first).
  std::vector<uint32_t> GroupsOf(uint32_t len) const;

  /// Main group of a record length.
  uint32_t MainGroupOf(uint32_t len) const;

  /// Whether a pair of record lengths may be joined inside `group`
  /// (assuming both records belong to it). Implements the main/band rules
  /// above; it is the reducer-side dedup criterion.
  bool ShouldJoinInGroup(uint32_t group, uint32_t len_a, uint32_t len_b) const;

 private:
  std::vector<uint32_t> pivots_;
  SimilarityFunction fn_ = SimilarityFunction::kJaccard;
  double theta_ = 1.0;
};

/// Picks up to t strictly increasing length pivots at even record-count
/// quantiles of the length distribution (the paper selects pivots from the
/// length histogram so groups carry similar record counts), then thins them
/// so consecutive pivots are more than a similarity window apart
/// (PartnerSizeLowerBound(L_{k+1}) > L_k). The gap guarantee bounds band
/// duplication: any record's longer-side window [lb(len), len] contains at
/// most one pivot, so every record belongs to at most three groups (its
/// main group, one shorter-side band, one longer-side band). Without the
/// gap, dense pivots make records attend O(t) bands and the duplication
/// eats horizontal partitioning's benefit (see DESIGN.md). May return fewer
/// than `t` pivots.
std::vector<uint32_t> SelectLengthPivots(
    const std::vector<OrderedRecord>& records, uint32_t t,
    SimilarityFunction fn, double theta);

/// Same selection from raw record lengths (|s| is ordering-invariant, so
/// callers that have not materialized OrderedRecords, such as the driver,
/// can pass token counts directly). `lengths` may be in any order; it is
/// copied and sorted internally.
std::vector<uint32_t> SelectLengthPivotsFromLengths(
    std::vector<uint32_t> lengths, uint32_t t, SimilarityFunction fn,
    double theta);

}  // namespace fsjoin

#endif  // FSJOIN_CORE_HORIZONTAL_H_

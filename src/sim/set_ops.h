#ifndef FSJOIN_SIM_SET_OPS_H_
#define FSJOIN_SIM_SET_OPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fsjoin {

/// Kernels over sorted, duplicate-free uint32 sequences (token sets ordered
/// by the global ordering). These are the hot loops of every join. The
/// pointer/length forms are the primary entry points (the columnar
/// SegmentBatch hands out raw arena windows); the vector overloads are thin
/// wrappers kept for row-oriented callers.

/// Size-skew crossover for SortedOverlap: once one input is at least this
/// many times longer than the other, probing the long side by exponential
/// search beats scanning it linearly (measured in bench_micro_kernels; the
/// galloping win appears past ~10x skew, so 32 keeps a comfortable margin
/// against its worse constant factor near the break-even point).
inline constexpr std::size_t kGallopRatio = 32;

/// Bitmap-gate dispatch bound for the word-packed overlap kernel: segments
/// with at most this many tokens get the 64-bit summary reject test before
/// the exact merge. Past it the summary saturates (nearly every bucket bit
/// set), so the test can no longer reject and is skipped. Measured in
/// bench_micro_kernels (--json, the overlap_short group): the gate pays for
/// itself whenever even a few percent of candidate pairs are
/// bucket-disjoint, and costs two loads and an AND when not.
inline constexpr std::size_t kPackedMaxTokens = 64;

/// |a ∩ b|. Dispatches between the linear merge and the galloping probe
/// based on kGallopRatio, so heavily skewed pairs (a short fragment against
/// a long record) cost O(|small| * log(|large|/|small|)) instead of
/// O(|a| + |b|).
uint64_t SortedOverlap(const uint32_t* a, std::size_t na, const uint32_t* b,
                       std::size_t nb);

/// |a ∩ b| by linear merge, O(|a| + |b|), regardless of skew. Exposed so
/// benchmarks can measure both strategies; prefer SortedOverlap.
uint64_t LinearOverlap(const uint32_t* a, std::size_t na, const uint32_t* b,
                       std::size_t nb);

/// |a ∩ b| by galloping (exponential) search: walks the smaller input and
/// locates each element in the larger one with doubling probes followed by a
/// binary search over the bracketed range. Exposed so benchmarks can measure
/// both strategies; prefer SortedOverlap.
uint64_t GallopingOverlap(const uint32_t* a, std::size_t na, const uint32_t* b,
                          std::size_t nb);

/// ---- Word-packed summaries ---------------------------------------------
/// A token sequence is summarized as a 64-bit bucket bitmap: token t sets
/// bit ((t - base) >> shift) & 63, i.e. the rank range starting at `base`
/// is cut into 64 buckets of 2^shift consecutive ranks (folding past the
/// 64th bucket). Summaries built with the same (base, shift) satisfy
///   (bitmap(a) & bitmap(b)) == 0  =>  a ∩ b = ∅,
/// a one-AND reject test that skips the exact merge for bucket-disjoint
/// pairs. All segments of one fragment share a rank range (their pivot
/// interval), so a per-fragment (base, shift) keeps the buckets dense with
/// information; SegmentBatch precomputes one summary per segment.

/// Shift such that a range of `span` ranks maps onto at most 64 buckets.
uint32_t BitmapShiftForSpan(uint64_t span);

/// The 64-bit bucket bitmap of a token sequence under (base, shift).
uint64_t TokenBitmap(const uint32_t* data, std::size_t n, uint32_t base,
                     uint32_t shift);

/// Word-packed exact overlap: rejects through the precomputed summaries,
/// falls back to SortedOverlap when the buckets intersect. Exact — the
/// summary test is sound, never lossy.
inline uint64_t PackedOverlap(const uint32_t* a, std::size_t na,
                              uint64_t bitmap_a, const uint32_t* b,
                              std::size_t nb, uint64_t bitmap_b) {
  if ((bitmap_a & bitmap_b) == 0) return 0;
  return SortedOverlap(a, na, b, nb);
}

/// Like SortedOverlap but bails out early (returning 0) as soon as the
/// remaining elements cannot reach `required` — the positional cutoff used
/// by verification in AllPairs/PPJoin.
uint64_t SortedOverlapAtLeast(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b,
                              uint64_t required);

/// ---- Vector wrappers ----------------------------------------------------

inline uint64_t SortedOverlap(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  return SortedOverlap(a.data(), a.size(), b.data(), b.size());
}

inline uint64_t LinearOverlap(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b) {
  return LinearOverlap(a.data(), a.size(), b.data(), b.size());
}

inline uint64_t GallopingOverlap(const std::vector<uint32_t>& a,
                                 const std::vector<uint32_t>& b) {
  return GallopingOverlap(a.data(), a.size(), b.data(), b.size());
}

inline uint64_t TokenBitmap(const std::vector<uint32_t>& v, uint32_t base,
                            uint32_t shift) {
  return TokenBitmap(v.data(), v.size(), base, shift);
}

}  // namespace fsjoin

#endif  // FSJOIN_SIM_SET_OPS_H_

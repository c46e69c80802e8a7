#include "sim/set_ops.h"

#include <algorithm>

namespace fsjoin {

namespace {

/// First index in [from, n) with data[idx] >= x. Doubles the probe distance
/// from `from` until it brackets x, then binary-searches the bracket:
/// O(log d) where d is the distance to the answer, so consecutive probes for
/// an ascending sequence of needles stay cheap.
size_t GallopLowerBound(const uint32_t* data, size_t n, size_t from,
                        uint32_t x) {
  if (from >= n || data[from] >= x) return from;
  // data[from] < x; widen until data[from + bound] >= x or past the end.
  size_t bound = 1;
  while (from + bound < n && data[from + bound] < x) bound *= 2;
  // The answer lies in (from + bound/2, from + bound]; bound/2 was probed.
  const size_t lo = from + bound / 2 + 1;
  const size_t hi = std::min(from + bound, n);
  return static_cast<size_t>(std::lower_bound(data + lo, data + hi, x) - data);
}

}  // namespace

uint64_t LinearOverlap(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

uint64_t GallopingOverlap(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb) {
  const uint32_t* small = na <= nb ? a : b;
  const size_t small_n = na <= nb ? na : nb;
  const uint32_t* data = na <= nb ? b : a;
  const size_t n = na <= nb ? nb : na;
  uint64_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < small_n; ++i) {
    const uint32_t x = small[i];
    j = GallopLowerBound(data, n, j, x);
    if (j == n) break;
    if (data[j] == x) {
      ++count;
      ++j;
    }
  }
  return count;
}

uint64_t SortedOverlap(const uint32_t* a, size_t na, const uint32_t* b,
                       size_t nb) {
  const size_t small = std::min(na, nb);
  const size_t large = std::max(na, nb);
  if (small > 0 && large / small >= kGallopRatio) {
    return GallopingOverlap(a, na, b, nb);
  }
  return LinearOverlap(a, na, b, nb);
}

uint32_t BitmapShiftForSpan(uint64_t span) {
  if (span == 0) return 0;
  uint32_t shift = 0;
  while (((span - 1) >> shift) >= 64) ++shift;
  return shift;
}

uint64_t TokenBitmap(const uint32_t* data, size_t n, uint32_t base,
                     uint32_t shift) {
  uint64_t bitmap = 0;
  for (size_t i = 0; i < n; ++i) {
    bitmap |= uint64_t{1} << (((data[i] - base) >> shift) & 63);
  }
  return bitmap;
}

uint64_t SortedOverlapAtLeast(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b,
                              uint64_t required) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  const size_t na = a.size(), nb = b.size();
  while (i < na && j < nb) {
    // Optimistic bound on the final overlap: matches so far plus everything
    // that could still match. Below `required` means the pair cannot pass.
    uint64_t best = count + static_cast<uint64_t>(std::min(na - i, nb - j));
    if (best < required) return 0;
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count >= required ? count : 0;
}

uint64_t SortedSuffixOverlap(const std::vector<uint32_t>& a,
                             std::size_t a_start,
                             const std::vector<uint32_t>& b,
                             std::size_t b_start) {
  uint64_t count = 0;
  size_t i = a_start, j = b_start;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

uint64_t SortedSymmetricDifference(const std::vector<uint32_t>& a,
                                   const std::vector<uint32_t>& b) {
  uint64_t overlap = SortedOverlap(a, b);
  return a.size() + b.size() - 2 * overlap;
}

bool SortedIntersects(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace fsjoin

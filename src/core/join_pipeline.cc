#include "core/join_pipeline.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <utility>

#include "core/filters.h"
#include "sim/set_ops.h"
#include "sim/similarity.h"

namespace fsjoin {

namespace {

constexpr int MethodIndex(JoinMethod method) {
  return static_cast<int>(method);
}

/// Word-packed bucket-bitmap reject (the PR 3 gate): one AND decides
/// "provably disjoint" for short segments; longer ones saturate the 64-bit
/// summary and skip the test.
inline bool BitmapGateRejects(const SegmentBatch& batch, uint32_t i,
                              uint32_t j) {
  return std::min(batch.length(i), batch.length(j)) <= kPackedMaxTokens &&
         (batch.bitmap(i) & batch.bitmap(j)) == 0;
}

/// Filters that run before the overlap is known: the pairing rule, Lemma 1
/// and Lemma 2. Counts the pair as considered; false = pruned.
template <uint32_t Mask>
bool PassesPreOverlapT(const FragmentJoinOptions& opts, const SegmentView& x,
                       const SegmentView& y, FilterCounters* counters) {
  ++counters->pairs_considered;
  if (opts.pair_allowed && !opts.pair_allowed(x, y)) {
    ++counters->pruned_role;
    return false;
  }
  if constexpr ((Mask & kPipelineStrL) != 0) {
    if (StrLengthPrunes(opts.function, opts.theta, x.record_size,
                        y.record_size)) {
      ++counters->pruned_strl;
      return false;
    }
  }
  if constexpr ((Mask & kPipelineSegL) != 0) {
    if (SegmentLengthPrunes(opts.function, opts.theta, x, y)) {
      ++counters->pruned_segl;
      return false;
    }
  }
  return true;
}

/// Lemma 4, then the emit: the tail of every path once the exact overlap
/// has passed SegI.
template <uint32_t Mask>
void EmitPairT(const FragmentJoinOptions& opts, const SegmentView& x,
               const SegmentView& y, uint64_t overlap,
               std::vector<PartialOverlap>* out, FilterCounters* counters) {
  if constexpr ((Mask & kPipelineSegD) != 0) {
    if (SegmentDifferencePrunes(opts.function, opts.theta, x, y, overlap)) {
      ++counters->pruned_segd;
      return;
    }
  }
  if (x.rid <= y.rid) {
    out->push_back(
        PartialOverlap{x.rid, y.rid, x.record_size, y.record_size, overlap});
  } else {
    out->push_back(
        PartialOverlap{y.rid, x.rid, y.record_size, x.record_size, overlap});
  }
  ++counters->emitted;
}

/// The filters after a known, non-zero exact overlap: Lemma 3 with the
/// local-overlap gate, then EmitPairT.
template <uint32_t Mask>
void FinishPairT(const FragmentJoinOptions& opts, const SegmentView& x,
                 const SegmentView& y, uint64_t overlap,
                 std::vector<PartialOverlap>* out, FilterCounters* counters) {
  if constexpr ((Mask & kPipelineSegI) != 0) {
    if (SegmentIntersectionPrunes(opts.function, opts.theta, x, y, overlap)) {
      ++counters->pruned_segi;
      return;
    }
    // Local-overlap gate: any θ-similar pair satisfies
    // c_i >= SegmentMinLocalOverlap for BOTH segments (the bound behind
    // the Prefix Join; see DESIGN.md), so partial counts below it belong
    // to dissimilar pairs and can be dropped without affecting the result.
    if (overlap < SegmentMinLocalOverlap(opts.function, opts.theta, x) ||
        overlap < SegmentMinLocalOverlap(opts.function, opts.theta, y)) {
      ++counters->pruned_segi;
      return;
    }
  }
  EmitPairT<Mask>(opts, x, y, overlap, out, counters);
}

/// The filter pipeline on one candidate segment pair, monomorphized on the
/// enabled-filter mask; disabled filters compile away. The overlap kernel is
/// the bitmap gate, then the exact SortedOverlap merge.
template <uint32_t Mask>
void ProcessPairT(const SegmentBatch& batch, uint32_t i, uint32_t j,
                  const FragmentJoinOptions& opts,
                  std::vector<PartialOverlap>* out, FilterCounters* counters) {
  const SegmentView x = batch.View(i);
  const SegmentView y = batch.View(j);
  if (!PassesPreOverlapT<Mask>(opts, x, y, counters)) return;
  if (BitmapGateRejects(batch, i, j)) {
    ++counters->empty_overlap;
    return;
  }
  const uint64_t overlap =
      SortedOverlap(x.tokens, x.num_tokens, y.tokens, y.num_tokens);
  if (overlap == 0) {
    ++counters->empty_overlap;
    return;
  }
  FinishPairT<Mask>(opts, x, y, overlap, out, counters);
}

/// ProcessPairT for a pair whose exact overlap the probe already counted:
/// the same filter chain, minus the kernel.
template <uint32_t Mask>
void ProcessCountedPairT(const SegmentBatch& batch, uint32_t i, uint32_t j,
                         uint64_t overlap, const FragmentJoinOptions& opts,
                         std::vector<PartialOverlap>* out,
                         FilterCounters* counters) {
  const SegmentView x = batch.View(i);
  const SegmentView y = batch.View(j);
  if (!PassesPreOverlapT<Mask>(opts, x, y, counters)) return;
  FinishPairT<Mask>(opts, x, y, overlap, out, counters);
}

/// Runs probes [0, probes) in morsels of opts.morsel_size on the shared
/// pool; `fn(begin, end, out, counters)` must append the probe range's
/// results in serial order. Each morsel writes its own buffers, merged in
/// morsel-index order afterwards, so the concatenation equals the serial
/// probe order and the counter sums are exact — output and counters are
/// byte-identical to the serial run regardless of morsel size, thread
/// count, or scheduling. Falls back to one serial call when morsels are
/// disabled or the fragment fits in a single morsel.
template <typename RangeFn>
void RunMorsels(uint32_t probes, const FragmentJoinOptions& opts,
                const RangeFn& fn, std::vector<PartialOverlap>* out,
                FilterCounters* counters) {
  const size_t morsel = opts.morsel_size;
  if (opts.morsel_pool == nullptr || morsel == 0 || probes <= morsel) {
    fn(0, probes, out, counters);
    return;
  }
  const size_t num_morsels = (probes + morsel - 1) / morsel;
  std::vector<std::vector<PartialOverlap>> morsel_out(num_morsels);
  std::vector<FilterCounters> morsel_counters(num_morsels);
  opts.morsel_pool->ParallelFor(
      num_morsels, 1, [&](size_t begin_m, size_t end_m) {
        for (size_t m = begin_m; m < end_m; ++m) {
          const uint32_t begin = static_cast<uint32_t>(m * morsel);
          const uint32_t end =
              static_cast<uint32_t>(std::min<size_t>(probes, begin + morsel));
          fn(begin, end, &morsel_out[m], &morsel_counters[m]);
        }
      });
  size_t total = 0;
  for (const auto& part : morsel_out) total += part.size();
  out->reserve(out->size() + total);
  for (size_t m = 0; m < num_morsels; ++m) {
    counters->Add(morsel_counters[m]);
    out->insert(out->end(), morsel_out[m].begin(), morsel_out[m].end());
  }
}

/// Prefix index over the indexed rows of a batch: every row for a self
/// join, the build (S) rows for an R-S join. Built once up front so probe
/// morsels are independent. `order` sorts the rows by ascending
/// (record_size, rid); postings hold order *positions*, so each list
/// ascends both in insertion position and in record size. A self-join probe
/// at position `oi` considers exactly the postings with position < oi and
/// record_size above its length-filter bound — the same candidates, in the
/// same order, as the incremental build-while-probing formulation (whose
/// front-trimming this replaces with a stateless binary search; sound
/// because the bound is monotone in the probe's record size).
///
/// The postings are one CSR table over the window [lo, lo + starts.size()
/// - 1) of prefix ranks observed in the batch: rank t's list is
/// entries[starts[t - lo], starts[t - lo + 1]). A fragment is one pivot
/// interval, so its ranks are dense and the window is no wider than the
/// interval — never the vocabulary.
struct PrefixIndex {
  std::vector<uint32_t> order;        ///< indexed rows in probe order
  std::vector<uint32_t> prefix_len;   ///< per order position
  std::vector<uint32_t> record_size;  ///< per order position
  TokenRank lo = 0;
  std::vector<size_t> starts;    ///< window width + 1; empty: no postings
  std::vector<uint32_t> entries;  ///< order positions, ascending per rank

  /// Posting list of rank t; empty outside the window.
  std::span<const uint32_t> Postings(TokenRank t) const {
    if (t < lo || size_t{t - lo} + 1 >= starts.size()) return {};
    return {entries.data() + starts[t - lo],
            entries.data() + starts[t - lo + 1]};
  }
};

/// Builds the index over `rows` in three linear passes over the prefixes:
/// count per rank, prefix-sum into list ends, then fill each list back to
/// front, walking positions in descending order so every list ends up
/// ascending.
template <typename LenFn>
PrefixIndex BuildPrefixIndex(const SegmentBatch& batch,
                             std::vector<uint32_t> rows, LenFn prefix_len) {
  PrefixIndex index;
  index.order = std::move(rows);
  std::sort(index.order.begin(), index.order.end(),
            [&](uint32_t a, uint32_t b) {
              if (batch.record_size(a) != batch.record_size(b)) {
                return batch.record_size(a) < batch.record_size(b);
              }
              return batch.rid(a) < batch.rid(b);
            });
  const uint32_t n = static_cast<uint32_t>(index.order.size());
  index.prefix_len.resize(n);
  index.record_size.resize(n);
  TokenRank lo = std::numeric_limits<TokenRank>::max();
  TokenRank hi = 0;
  size_t total = 0;
  for (uint32_t oi = 0; oi < n; ++oi) {
    const uint32_t row = index.order[oi];
    const uint32_t px = static_cast<uint32_t>(prefix_len(row));
    index.prefix_len[oi] = px;
    index.record_size[oi] = batch.record_size(row);
    if (px == 0) continue;
    lo = std::min(lo, batch.tokens(row)[0]);  // prefixes ascend
    hi = std::max(hi, batch.tokens(row)[px - 1]);
    total += px;
  }
  if (total == 0) return index;
  index.lo = lo;
  index.starts.assign(size_t{hi - lo} + 2, 0);
  for (uint32_t oi = 0; oi < n; ++oi) {
    const TokenRank* tokens = batch.tokens(index.order[oi]);
    for (uint32_t p = 0; p < index.prefix_len[oi]; ++p) {
      ++index.starts[tokens[p] - lo];
    }
  }
  std::partial_sum(index.starts.begin(), index.starts.end(),
                   index.starts.begin());
  index.entries.resize(total);
  for (uint32_t oi = n; oi-- > 0;) {
    const TokenRank* tokens = batch.tokens(index.order[oi]);
    for (uint32_t p = 0; p < index.prefix_len[oi]; ++p) {
      index.entries[--index.starts[tokens[p] - lo]] = oi;
    }
  }
  return index;
}

/// Per-morsel probe scratch over the indexed order positions: for each, the
/// probe that last reached it and how many of that probe's prefix tokens
/// did; plus the probe's candidates in first-seen order. Probe ids are
/// unique within one batch join, so a recycled scratch is never reset.
struct ProbeScratch {
  struct Slot {
    uint32_t stamp = std::numeric_limits<uint32_t>::max();
    uint32_t hits = 0;
  };
  std::vector<Slot> slots;
  std::vector<uint32_t> candidates;
};

/// Recycles ProbeScratch across the morsels of one batch join.
class ScratchPool {
 public:
  explicit ScratchPool(size_t n) : n_(n) {}

  std::unique_ptr<ProbeScratch> Acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        auto scratch = std::move(free_.back());
        free_.pop_back();
        return scratch;
      }
    }
    auto scratch = std::make_unique<ProbeScratch>();
    scratch->slots.resize(n_);
    return scratch;
  }

  void Release(std::unique_ptr<ProbeScratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

 private:
  size_t n_;
  std::mutex mu_;
  std::vector<std::unique_ptr<ProbeScratch>> free_;
};

/// One indexed probe, PPJoin/AllPairs style. Scans the probe's prefix
/// postings, cut by `window(list) -> [first, last)`, counting per candidate
/// how many prefix tokens reached it; then runs the filter chain once per
/// candidate in first-seen order. Both window cuts depend on the candidate
/// only, never on the token, so a candidate's hit count is
/// |prefix(probe) ∩ prefix(candidate)|. When both prefixes are the whole
/// segment that is the exact segment overlap and the kernel is skipped;
/// otherwise the pair takes the gated merge.
template <uint32_t Mask, typename WindowFn>
void ProbeT(const SegmentBatch& batch, const FragmentJoinOptions& opts,
            const PrefixIndex& index, uint32_t xi, uint32_t px,
            uint32_t probe_id, const WindowFn& window, ProbeScratch* scratch,
            std::vector<PartialOverlap>* out, FilterCounters* counters) {
  std::vector<uint32_t>& candidates = scratch->candidates;
  candidates.clear();
  ProbeScratch::Slot* slots = scratch->slots.data();
  const TokenRank* tokens = batch.tokens(xi);
  for (uint32_t p = 0; p < px; ++p) {
    const auto [first, last] = window(index.Postings(tokens[p]));
    for (const uint32_t* e = first; e != last; ++e) {
      ProbeScratch::Slot& slot = slots[*e];
      if (slot.stamp != probe_id) {
        slot.stamp = probe_id;
        slot.hits = 1;
        candidates.push_back(*e);
      } else {
        ++slot.hits;
      }
    }
  }
  const bool probe_full = px == batch.length(xi);
  for (uint32_t e : candidates) {
    const uint32_t j = index.order[e];
    if (probe_full && index.prefix_len[e] == batch.length(j)) {
      ProcessCountedPairT<Mask>(batch, j, xi, slots[e].hits, opts, out,
                                counters);
    } else {
      ProcessPairT<Mask>(batch, j, xi, opts, out, counters);
    }
  }
}

/// First posting of `list` whose record size reaches `bound` (record sizes
/// ascend along every list).
inline const uint32_t* FirstAtLeast(const PrefixIndex& index,
                                    std::span<const uint32_t> list,
                                    uint64_t bound) {
  return std::lower_bound(list.data(), list.data() + list.size(), bound,
                          [&](uint32_t e, uint64_t b) {
                            return index.record_size[e] < b;
                          });
}

template <uint32_t Mask>
void LoopJoinRangeT(const SegmentBatch& batch, const FragmentJoinOptions& opts,
                    uint32_t begin, uint32_t end,
                    std::vector<PartialOverlap>* out,
                    FilterCounters* counters) {
  const uint32_t n = batch.size();
  for (uint32_t i = begin; i < end; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      ProcessPairT<Mask>(batch, i, j, opts, out, counters);
    }
  }
}

/// R-S nested loop: probe rows [begin, end) of the side-tagged probe list
/// against every build row. Same-side pairs are never enumerated.
template <uint32_t Mask>
void RsLoopJoinRangeT(const SegmentBatch& batch,
                      const FragmentJoinOptions& opts, uint32_t begin,
                      uint32_t end, std::vector<PartialOverlap>* out,
                      FilterCounters* counters) {
  const std::vector<uint32_t>& probes = batch.probe_rows();
  const std::vector<uint32_t>& builds = batch.build_rows();
  for (uint32_t pi = begin; pi < end; ++pi) {
    const uint32_t i = probes[pi];
    for (uint32_t j : builds) {
      ProcessPairT<Mask>(batch, i, j, opts, out, counters);
    }
  }
}

/// Self-join probes at order positions [begin, end): candidates are the
/// postings before the probe whose record size passes the length-filter
/// bound.
template <uint32_t Mask>
void IndexedProbeRangeT(const SegmentBatch& batch,
                        const FragmentJoinOptions& opts,
                        const PrefixIndex& index, uint32_t begin, uint32_t end,
                        ProbeScratch* scratch,
                        std::vector<PartialOverlap>* out,
                        FilterCounters* counters) {
  for (uint32_t oi = begin; oi < end; ++oi) {
    const uint32_t xi = index.order[oi];
    uint64_t min_partner = 0;
    if constexpr ((Mask & kPipelineStrL) != 0) {
      min_partner = PartnerSizeLowerBound(opts.function, opts.theta,
                                          batch.record_size(xi));
    }
    const auto window = [&](std::span<const uint32_t> list) {
      const uint32_t* first =
          min_partner > 0 ? FirstAtLeast(index, list, min_partner)
                          : list.data();
      const uint32_t* last =
          std::lower_bound(first, list.data() + list.size(), oi);
      return std::pair{first, last};
    };
    ProbeT<Mask>(batch, opts, index, xi, index.prefix_len[oi], oi, window,
                 scratch, out, counters);
  }
}

/// R-S indexed probe: probe rows [begin, end) of the probe list against a
/// prefix index built over the build side only. Unlike the self-join
/// formulation the index holds records both shorter AND longer than the
/// probe, so the candidate window is bounded by the partner-size bounds on
/// both ends, and there is no position-<-probe cut: probes are never
/// inserted. `probe_prefix` holds the probe rows' own prefix lengths,
/// computed with the same per-row policy as the index side, which keeps the
/// prefix-sharing soundness argument pairwise identical to the self-join.
template <uint32_t Mask>
void RsIndexedProbeRangeT(const SegmentBatch& batch,
                          const FragmentJoinOptions& opts,
                          const PrefixIndex& index,
                          const std::vector<uint32_t>& probe_prefix,
                          uint32_t begin, uint32_t end, ProbeScratch* scratch,
                          std::vector<PartialOverlap>* out,
                          FilterCounters* counters) {
  const std::vector<uint32_t>& probes = batch.probe_rows();
  for (uint32_t pi = begin; pi < end; ++pi) {
    const uint32_t xi = probes[pi];
    uint64_t min_partner = 0;
    uint64_t max_partner = std::numeric_limits<uint64_t>::max();
    if constexpr ((Mask & kPipelineStrL) != 0) {
      min_partner = PartnerSizeLowerBound(opts.function, opts.theta,
                                          batch.record_size(xi));
      max_partner = PartnerSizeUpperBound(opts.function, opts.theta,
                                          batch.record_size(xi));
    }
    const auto window = [&](std::span<const uint32_t> list) {
      const uint32_t* first = list.data();
      const uint32_t* last = list.data() + list.size();
      if constexpr ((Mask & kPipelineStrL) != 0) {
        first = FirstAtLeast(index, list, min_partner);
        last = std::upper_bound(first, last, max_partner,
                                [&](uint64_t bound, uint32_t e) {
                                  return bound < index.record_size[e];
                                });
      }
      return std::pair{first, last};
    };
    ProbeT<Mask>(batch, opts, index, xi, probe_prefix[pi], pi, window,
                 scratch, out, counters);
  }
}

/// Compiled pipeline, nested-loop shape. Self vs. R-S is a run-time branch
/// taken once per fragment — doubling the template instantiations for it
/// would buy nothing (the side lists are loop bounds, not per-pair work).
template <uint32_t Mask>
void LoopPipeline(const SegmentBatch& batch, const FragmentJoinOptions& opts,
                  std::vector<PartialOverlap>* out, FilterCounters* counters) {
  if (opts.rs_boundary.has_value()) {
    RunMorsels(
        static_cast<uint32_t>(batch.probe_rows().size()), opts,
        [&](uint32_t begin, uint32_t end,
            std::vector<PartialOverlap>* range_out,
            FilterCounters* range_counters) {
          RsLoopJoinRangeT<Mask>(batch, opts, begin, end, range_out,
                                 range_counters);
        },
        out, counters);
    return;
  }
  RunMorsels(
      batch.size(), opts,
      [&](uint32_t begin, uint32_t end, std::vector<PartialOverlap>* range_out,
          FilterCounters* range_counters) {
        LoopJoinRangeT<Mask>(batch, opts, begin, end, range_out,
                             range_counters);
      },
      out, counters);
}

/// Compiled pipeline, indexed-probe shape — serves both kIndex and kPrefix
/// (the per-row prefix length is a run-time choice made once at index
/// build, not a loop-shape difference worth doubling the instantiations
/// for).
template <uint32_t Mask>
void IndexedPipeline(const SegmentBatch& batch,
                     const FragmentJoinOptions& opts,
                     std::vector<PartialOverlap>* out,
                     FilterCounters* counters) {
  const auto prefix_len = [&](uint32_t row) -> uint64_t {
    if (opts.method == JoinMethod::kIndex) return batch.length(row);
    if (opts.aggressive_segment_prefix) {
      // Paper §V-A: each segment filtered like an independent mini-join
      // at threshold θ. Fast but can drop partial counts (see
      // FsJoinConfig::aggressive_segment_prefix).
      return PrefixLength(opts.function, opts.theta, batch.length(row));
    }
    return SegmentPrefixLength(opts.function, opts.theta, batch.View(row));
  };
  if (opts.rs_boundary.has_value()) {
    // Index the build (S) side only; probe with the R side. Probes are
    // never inserted, so same-side pairs are structurally impossible.
    const PrefixIndex index =
        BuildPrefixIndex(batch, batch.build_rows(), prefix_len);
    const std::vector<uint32_t>& probes = batch.probe_rows();
    std::vector<uint32_t> probe_prefix(probes.size());
    for (uint32_t pi = 0; pi < probes.size(); ++pi) {
      probe_prefix[pi] = static_cast<uint32_t>(prefix_len(probes[pi]));
    }
    ScratchPool scratch_pool(index.order.size());
    RunMorsels(
        static_cast<uint32_t>(probes.size()), opts,
        [&](uint32_t begin, uint32_t end,
            std::vector<PartialOverlap>* range_out,
            FilterCounters* range_counters) {
          auto scratch = scratch_pool.Acquire();
          RsIndexedProbeRangeT<Mask>(batch, opts, index, probe_prefix,
                                     begin, end, scratch.get(), range_out,
                                     range_counters);
          scratch_pool.Release(std::move(scratch));
        },
        out, counters);
    return;
  }
  std::vector<uint32_t> rows(batch.size());
  std::iota(rows.begin(), rows.end(), 0u);
  const PrefixIndex index = BuildPrefixIndex(batch, std::move(rows), prefix_len);
  ScratchPool scratch_pool(index.order.size());
  RunMorsels(
      batch.size(), opts,
      [&](uint32_t begin, uint32_t end, std::vector<PartialOverlap>* range_out,
          FilterCounters* range_counters) {
        auto scratch = scratch_pool.Acquire();
        IndexedProbeRangeT<Mask>(batch, opts, index, begin, end,
                                 scratch.get(), range_out, range_counters);
        scratch_pool.Release(std::move(scratch));
      },
      out, counters);
}

/// Fills one filter-mask column of the table.
template <uint32_t Mask, typename Table>
void RegisterMask(Table& table) {
  table[MethodIndex(JoinMethod::kLoop)][Mask] = &LoopPipeline<Mask>;
  table[MethodIndex(JoinMethod::kIndex)][Mask] = &IndexedPipeline<Mask>;
  table[MethodIndex(JoinMethod::kPrefix)][Mask] = &IndexedPipeline<Mask>;
}

}  // namespace

PipelineShape ShapeOf(const FragmentJoinOptions& opts) {
  PipelineShape shape;
  shape.method = opts.method;
  shape.filter_mask = (opts.use_length_filter ? kPipelineStrL : 0) |
                      (opts.use_segment_length_filter ? kPipelineSegL : 0) |
                      (opts.use_segment_intersection_filter ? kPipelineSegI
                                                            : 0) |
                      (opts.use_segment_difference_filter ? kPipelineSegD : 0);
  return shape;
}

KernelRegistry::KernelRegistry() {
  [this]<std::size_t... M>(std::index_sequence<M...>) {
    (RegisterMask<static_cast<uint32_t>(M)>(table_), ...);
  }(std::make_index_sequence<kNumFilterMasks>{});
}

const KernelRegistry& KernelRegistry::Get() {
  static const KernelRegistry registry;
  return registry;
}

PipelineFn KernelRegistry::Lookup(const PipelineShape& shape) const {
  return table_[MethodIndex(shape.method)][shape.filter_mask & 15u];
}

}  // namespace fsjoin

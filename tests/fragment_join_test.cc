// Fragment-local joins (§V-A "Join Algorithms"): Loop, Index and Prefix
// must produce identical surviving partial overlaps (Loop is the oracle),
// every compiled pipeline must match a brute-force reference, and the
// filter counters must account for every considered pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "core/filters.h"
#include "core/fragment_join.h"
#include "core/join_pipeline.h"
#include "core/pivots.h"
#include "core/segments.h"
#include "sim/set_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace fsjoin {
namespace {

// Head and tail (the record's tokens outside this fragment) are drawn from
// [context_lo, context_hi]. A short context leaves most segment prefixes
// partial; a long one makes every segment its own prefix.
std::vector<SegmentRecord> RandomFragment(Rng& rng, size_t n,
                                          uint32_t rank_lo, uint32_t rank_hi,
                                          uint32_t context_lo = 0,
                                          uint32_t context_hi = 5) {
  std::vector<SegmentRecord> segments;
  const uint64_t context_span = context_hi - context_lo + 1;
  for (size_t i = 0; i < n; ++i) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(i);
    for (uint32_t r = rank_lo; r < rank_hi; ++r) {
      if (rng.NextBool(0.3)) seg.tokens.push_back(r);
    }
    if (seg.tokens.empty()) seg.tokens.push_back(rank_lo);
    seg.head = context_lo + static_cast<uint32_t>(rng.NextBounded(context_span));
    uint32_t tail =
        context_lo + static_cast<uint32_t>(rng.NextBounded(context_span));
    seg.record_size =
        seg.head + static_cast<uint32_t>(seg.tokens.size()) + tail;
    segments.push_back(std::move(seg));
  }
  return segments;
}

/// A fragment family: rank range [0, rank_hi) and head/tail context range.
struct FragmentShape {
  const char* name;
  uint32_t rank_hi;
  uint32_t context_lo;
  uint32_t context_hi;
};

/// "narrow": short context, mostly partial segment prefixes (probes take
/// the overlap-kernel path). "wide": long context, every prefix is the
/// whole segment (probes count overlaps during the posting scan).
constexpr FragmentShape kShapes[] = {{"narrow", 30, 0, 5}, {"wide", 24, 20, 40}};

/// Self join, and R-S with the first third of the rows on the probe side.
std::optional<RecordId> BoundaryFor(bool rs, size_t n) {
  if (!rs) return std::nullopt;
  return static_cast<RecordId>(n / 3);
}

void ExpectSameCounters(const FilterCounters& x, const FilterCounters& y) {
  EXPECT_EQ(x.pairs_considered, y.pairs_considered);
  EXPECT_EQ(x.pruned_role, y.pruned_role);
  EXPECT_EQ(x.pruned_strl, y.pruned_strl);
  EXPECT_EQ(x.pruned_segl, y.pruned_segl);
  EXPECT_EQ(x.pruned_segi, y.pruned_segi);
  EXPECT_EQ(x.pruned_segd, y.pruned_segd);
  EXPECT_EQ(x.empty_overlap, y.empty_overlap);
  EXPECT_EQ(x.emitted, y.emitted);
}

void SortPartials(std::vector<PartialOverlap>* v) {
  std::sort(v->begin(), v->end(),
            [](const PartialOverlap& x, const PartialOverlap& y) {
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
}

bool SamePartials(const std::vector<PartialOverlap>& x,
                  const std::vector<PartialOverlap>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].overlap != y[i].overlap ||
        x[i].size_a != y[i].size_a || x[i].size_b != y[i].size_b) {
      return false;
    }
  }
  return true;
}

TEST(FragmentJoinTest, MethodsProduceIdenticalPartials) {
  for (const FragmentShape& shape : kShapes) {
    for (bool rs : {false, true}) {
      SCOPED_TRACE(std::string(shape.name) + (rs ? "/rs" : "/self"));
      Rng rng(2024);
      for (int iter = 0; iter < 50; ++iter) {
        std::vector<SegmentRecord> fragment = RandomFragment(
            rng, 25, 0, shape.rank_hi, shape.context_lo, shape.context_hi);
        for (double theta : {0.5, 0.8}) {
          FragmentJoinOptions opts;
          opts.theta = theta;
          opts.rs_boundary = BoundaryFor(rs, fragment.size());
          std::vector<PartialOverlap> loop, index, prefix;
          FilterCounters cl, ci, cp;
          opts.method = JoinMethod::kLoop;
          JoinFragment(fragment, opts, &loop, &cl);
          opts.method = JoinMethod::kIndex;
          JoinFragment(fragment, opts, &index, &ci);
          opts.method = JoinMethod::kPrefix;
          JoinFragment(fragment, opts, &prefix, &cp);
          SortPartials(&loop);
          SortPartials(&index);
          SortPartials(&prefix);
          EXPECT_TRUE(SamePartials(loop, index));
          EXPECT_TRUE(SamePartials(loop, prefix));
          // Prefix considers no more candidates than Index, which considers
          // no more than Loop.
          EXPECT_LE(ci.pairs_considered, cl.pairs_considered);
          EXPECT_LE(cp.pairs_considered, ci.pairs_considered);
        }
      }
    }
  }
}

// The indexed probes (kIndex, kPrefix) learn a pair's overlap either from
// the posting scan itself (both prefixes are the whole segment) or from the
// gated merge. Whichever path a pair takes, every emitted overlap must be the
// exact segment overlap, and the row adapter must agree with the batch path.
TEST(FragmentJoinTest, IndexedProbeIsExact) {
  for (const FragmentShape& shape : kShapes) {
    for (bool rs : {false, true}) {
      SCOPED_TRACE(std::string(shape.name) + (rs ? "/rs" : "/self"));
      Rng rng(31337);
      uint64_t emitted = 0;
      for (int iter = 0; iter < 20; ++iter) {
        const std::vector<SegmentRecord> fragment = RandomFragment(
            rng, 30, 0, shape.rank_hi, shape.context_lo, shape.context_hi);
        for (double theta : {0.5, 0.8}) {
          if (std::string_view(shape.name) == "wide") {
            // The shape's claim: every segment is its own prefix.
            for (const SegmentRecord& seg : fragment) {
              ASSERT_EQ(SegmentPrefixLength(SimilarityFunction::kJaccard,
                                            theta, seg),
                        seg.tokens.size());
            }
          }
          for (JoinMethod method : {JoinMethod::kIndex, JoinMethod::kPrefix}) {
            for (bool aggressive : {false, true}) {
              FragmentJoinOptions opts;
              opts.theta = theta;
              opts.method = method;
              opts.aggressive_segment_prefix = aggressive;
              opts.rs_boundary = BoundaryFor(rs, fragment.size());
              SegmentBatch batch = SegmentBatch::FromRecords(fragment);
              if (rs) batch.TagSides(*opts.rs_boundary);
              std::vector<PartialOverlap> row_out, batch_out;
              FilterCounters row_counters, batch_counters;
              JoinFragment(fragment, opts, &row_out, &row_counters);
              JoinFragmentBatch(batch, opts, &batch_out, &batch_counters);
              EXPECT_TRUE(SamePartials(row_out, batch_out));
              ExpectSameCounters(row_counters, batch_counters);
              emitted += row_counters.emitted;
              for (const PartialOverlap& p : row_out) {
                const std::vector<TokenRank>& a = fragment[p.a].tokens;
                const std::vector<TokenRank>& b = fragment[p.b].tokens;
                EXPECT_EQ(p.overlap, SortedOverlap(a.data(), a.size(),
                                                   b.data(), b.size()))
                    << p.a << "," << p.b;
              }
            }
          }
        }
      }
      EXPECT_GT(emitted, 0u);  // the shape exercises the emit path
    }
  }
}

// Brute-force reference for one registry slot: enumerates every cross pair
// (self: i < j; R-S: probe x build), keeps the ones the slot's loop shape
// considers, and runs the mask's filter chain on LinearOverlap. The loop
// considers every pair. The indexed probes consider a pair when the prefixes
// share a token (the whole segment for kIndex) and, with StrL on, the
// partner's record size lies in the probe's length window; a self-join
// probe is the later row in (record_size, rid) order.
void BruteForceSlot(const std::vector<SegmentRecord>& fragment,
                    JoinMethod method, uint32_t mask,
                    const FragmentJoinOptions& opts,
                    std::vector<PartialOverlap>* out,
                    FilterCounters* counters) {
  const SimilarityFunction fn = opts.function;
  const double theta = opts.theta;
  auto prefix = [&](const SegmentRecord& s) -> size_t {
    if (method == JoinMethod::kIndex) return s.tokens.size();
    return SegmentPrefixLength(fn, theta, s);
  };
  auto considered = [&](const SegmentRecord& x, const SegmentRecord& probe) {
    if (method == JoinMethod::kLoop) return true;
    if ((mask & kPipelineStrL) != 0) {
      const uint64_t size = x.record_size;
      if (size < PartnerSizeLowerBound(fn, theta, probe.record_size)) {
        return false;
      }
      if (opts.rs_boundary.has_value() &&
          size > PartnerSizeUpperBound(fn, theta, probe.record_size)) {
        return false;
      }
    }
    return LinearOverlap(x.tokens.data(), prefix(x), probe.tokens.data(),
                         prefix(probe)) > 0;
  };
  auto process = [&](const SegmentRecord& x, const SegmentRecord& y) {
    ++counters->pairs_considered;
    if ((mask & kPipelineStrL) != 0 &&
        StrLengthPrunes(fn, theta, x.record_size, y.record_size)) {
      ++counters->pruned_strl;
      return;
    }
    if ((mask & kPipelineSegL) != 0 && SegmentLengthPrunes(fn, theta, x, y)) {
      ++counters->pruned_segl;
      return;
    }
    const uint64_t overlap = LinearOverlap(x.tokens, y.tokens);
    if (overlap == 0) {
      ++counters->empty_overlap;
      return;
    }
    if ((mask & kPipelineSegI) != 0 &&
        (SegmentIntersectionPrunes(fn, theta, x, y, overlap) ||
         overlap < SegmentMinLocalOverlap(fn, theta, x) ||
         overlap < SegmentMinLocalOverlap(fn, theta, y))) {
      ++counters->pruned_segi;
      return;
    }
    if ((mask & kPipelineSegD) != 0 &&
        SegmentDifferencePrunes(fn, theta, x, y, overlap)) {
      ++counters->pruned_segd;
      return;
    }
    const SegmentRecord& lo = x.rid <= y.rid ? x : y;
    const SegmentRecord& hi = x.rid <= y.rid ? y : x;
    out->push_back(PartialOverlap{lo.rid, hi.rid, lo.record_size,
                                  hi.record_size, overlap});
    ++counters->emitted;
  };
  auto before = [](const SegmentRecord& a, const SegmentRecord& b) {
    if (a.record_size != b.record_size) return a.record_size < b.record_size;
    return a.rid < b.rid;
  };
  for (size_t i = 0; i < fragment.size(); ++i) {
    for (size_t j = i + 1; j < fragment.size(); ++j) {
      const SegmentRecord* x = &fragment[i];
      const SegmentRecord* y = &fragment[j];
      if (opts.rs_boundary.has_value()) {
        const bool x_probe = x->rid < *opts.rs_boundary;
        if (x_probe == (y->rid < *opts.rs_boundary)) continue;
        if (x_probe) std::swap(x, y);  // y is the probe
      } else if (before(*y, *x)) {
        std::swap(x, y);  // y is the later row
      }
      if (considered(*x, *y)) process(*x, *y);
    }
  }
}

// All 48 registry slots (3 methods x 16 filter masks), self and R-S, each
// against the brute-force reference: the same partials and the same
// counters. The narrow shape sends most indexed candidates through the gated
// merge; the wide one counts them during the posting scan.
TEST(FragmentJoinTest, EveryRegistrySlotMatchesBruteForce) {
  const KernelRegistry& registry = KernelRegistry::Get();
  std::set<PipelineFn> distinct;
  for (const FragmentShape& shape : kShapes) {
    for (bool rs : {false, true}) {
      Rng rng(4242);
      for (int iter = 0; iter < 4; ++iter) {
        const std::vector<SegmentRecord> fragment = RandomFragment(
            rng, 30, 0, shape.rank_hi, shape.context_lo, shape.context_hi);
        SegmentBatch batch = SegmentBatch::FromRecords(fragment);
        if (rs) batch.TagSides(*BoundaryFor(rs, fragment.size()));
        for (double theta : {0.5, 0.8}) {
          for (JoinMethod method :
               {JoinMethod::kLoop, JoinMethod::kIndex, JoinMethod::kPrefix}) {
            for (uint32_t mask = 0; mask < kNumFilterMasks; ++mask) {
              SCOPED_TRACE(std::string(shape.name) + (rs ? "/rs/" : "/self/") +
                           JoinMethodName(method) + "/mask" +
                           std::to_string(mask) + "/theta" +
                           std::to_string(theta));
              FragmentJoinOptions opts;
              opts.theta = theta;
              opts.method = method;
              opts.use_length_filter = (mask & kPipelineStrL) != 0;
              opts.use_segment_length_filter = (mask & kPipelineSegL) != 0;
              opts.use_segment_intersection_filter =
                  (mask & kPipelineSegI) != 0;
              opts.use_segment_difference_filter = (mask & kPipelineSegD) != 0;
              opts.rs_boundary = BoundaryFor(rs, fragment.size());
              const PipelineShape slot = ShapeOf(opts);
              ASSERT_EQ(slot.method, method);
              ASSERT_EQ(slot.filter_mask, mask);
              const PipelineFn fn = registry.Lookup(slot);
              ASSERT_NE(fn, nullptr);
              distinct.insert(fn);

              std::vector<PartialOverlap> got, want;
              FilterCounters got_counters, want_counters;
              fn(batch, opts, &got, &got_counters);
              BruteForceSlot(fragment, method, mask, opts, &want,
                             &want_counters);
              SortPartials(&got);
              SortPartials(&want);
              EXPECT_TRUE(SamePartials(want, got));
              ExpectSameCounters(want_counters, got_counters);
            }
          }
        }
      }
    }
  }
  // kIndex and kPrefix share one compiled loop per mask.
  EXPECT_EQ(distinct.size(), 2u * kNumFilterMasks);
}

TEST(FragmentJoinTest, CountersAccountForEveryConsideredPair) {
  Rng rng(7);
  std::vector<SegmentRecord> fragment = RandomFragment(rng, 30, 0, 25);
  FragmentJoinOptions opts;
  opts.theta = 0.8;
  opts.method = JoinMethod::kLoop;
  std::vector<PartialOverlap> out;
  FilterCounters c;
  JoinFragment(fragment, opts, &out, &c);
  EXPECT_EQ(c.pairs_considered, 30u * 29u / 2u);
  EXPECT_EQ(c.pairs_considered, c.pruned_role + c.pruned_strl + c.pruned_segl +
                                    c.pruned_segi + c.pruned_segd +
                                    c.empty_overlap + c.emitted);
  EXPECT_EQ(c.emitted, out.size());
}

TEST(FragmentJoinTest, PairAllowedGatesJoins) {
  Rng rng(8);
  std::vector<SegmentRecord> fragment = RandomFragment(rng, 10, 0, 15);
  FragmentJoinOptions opts;
  opts.theta = 0.5;
  opts.use_length_filter = false;
  opts.use_segment_length_filter = false;
  opts.use_segment_intersection_filter = false;
  opts.use_segment_difference_filter = false;
  opts.pair_allowed = [](const SegmentView& a, const SegmentView& b) {
    return (a.rid + b.rid) % 2 == 1;  // only odd-parity pairs
  };
  std::vector<PartialOverlap> out;
  FilterCounters c;
  JoinFragment(fragment, opts, &out, &c);
  for (const PartialOverlap& p : out) {
    EXPECT_EQ((p.a + p.b) % 2, 1u);
  }
  EXPECT_GT(c.pruned_role, 0u);
}

TEST(FragmentJoinTest, PartialsAreNormalizedAndExact) {
  // Two hand-built segments with known overlap.
  SegmentRecord x, y;
  x.rid = 9;
  x.record_size = 6;
  x.head = 1;
  x.tokens = {2, 4, 6, 8};
  y.rid = 3;
  y.record_size = 5;
  y.head = 0;
  y.tokens = {2, 6, 7, 9};
  FragmentJoinOptions opts;
  opts.theta = 0.3;
  opts.method = JoinMethod::kLoop;
  std::vector<PartialOverlap> out;
  FilterCounters c;
  JoinFragment({x, y}, opts, &out, &c);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].a, 3u);  // smaller rid first
  EXPECT_EQ(out[0].b, 9u);
  EXPECT_EQ(out[0].size_a, 5u);
  EXPECT_EQ(out[0].size_b, 6u);
  EXPECT_EQ(out[0].overlap, 2u);  // {2, 6}
}

TEST(FragmentJoinTest, EmptyFragment) {
  FragmentJoinOptions opts;
  std::vector<PartialOverlap> out;
  FilterCounters c;
  JoinFragment({}, opts, &out, &c);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(c.pairs_considered, 0u);
}

// Determinism contract of the morsel path: for every join method, every
// morsel size and every thread count (including 0 = inline debug mode),
// output order and counters are byte-identical to the serial run.
TEST(FragmentJoinTest, MorselJoinIsDeterministicAcrossSizesAndThreads) {
  for (const FragmentShape& shape : kShapes) {
    for (bool rs : {false, true}) {
      SCOPED_TRACE(std::string(shape.name) + (rs ? "/rs" : "/self"));
      Rng rng(99);
      std::vector<SegmentRecord> fragment = RandomFragment(
          rng, 40, 0, shape.rank_hi, shape.context_lo, shape.context_hi);
      for (JoinMethod method :
           {JoinMethod::kLoop, JoinMethod::kIndex, JoinMethod::kPrefix}) {
        FragmentJoinOptions serial_opts;
        serial_opts.theta = 0.5;
        serial_opts.method = method;
        serial_opts.rs_boundary = BoundaryFor(rs, fragment.size());
        std::vector<PartialOverlap> serial_out;
        FilterCounters serial_counters;
        JoinFragment(fragment, serial_opts, &serial_out, &serial_counters);

        for (size_t threads : {size_t{0}, size_t{1}, size_t{8}}) {
          ThreadPool pool(threads);
          for (size_t morsel : {size_t{1}, size_t{7}, size_t{64},
                                std::numeric_limits<size_t>::max()}) {
            FragmentJoinOptions opts = serial_opts;
            opts.morsel_pool = &pool;
            opts.morsel_size = morsel;
            std::vector<PartialOverlap> out;
            FilterCounters counters;
            JoinFragment(fragment, opts, &out, &counters);
            // Unsorted comparison: order itself must match the serial run.
            EXPECT_TRUE(SamePartials(serial_out, out))
                << "method=" << static_cast<int>(method)
                << " threads=" << threads << " morsel=" << morsel;
            ExpectSameCounters(serial_counters, counters);
          }
        }
      }
    }
  }
}

// Property: FilterCounters summed over ANY morsel split of a fragment equal
// the serial counters exactly — Add is a plain component-wise sum, so the
// merge is associative regardless of how probes are partitioned.
TEST(FragmentJoinTest, CountersSumExactlyOverAnyMorselSplit) {
  Rng rng(123);
  std::vector<SegmentRecord> fragment = RandomFragment(rng, 35, 0, 28);
  FragmentJoinOptions opts;
  opts.theta = 0.6;
  opts.method = JoinMethod::kLoop;
  std::vector<PartialOverlap> serial_out;
  FilterCounters serial;
  JoinFragment(fragment, opts, &serial_out, &serial);

  ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    // Random morsel size in [1, n + 5] exercises uneven trailing splits.
    size_t morsel = 1 + rng.NextBounded(fragment.size() + 5);
    FragmentJoinOptions split_opts = opts;
    split_opts.morsel_pool = &pool;
    split_opts.morsel_size = morsel;
    std::vector<PartialOverlap> out;
    FilterCounters summed;
    JoinFragment(fragment, split_opts, &out, &summed);
    EXPECT_EQ(serial.pairs_considered, summed.pairs_considered)
        << "morsel=" << morsel;
    EXPECT_EQ(serial.pruned_role, summed.pruned_role);
    EXPECT_EQ(serial.pruned_strl, summed.pruned_strl);
    EXPECT_EQ(serial.pruned_segl, summed.pruned_segl);
    EXPECT_EQ(serial.pruned_segi, summed.pruned_segi);
    EXPECT_EQ(serial.pruned_segd, summed.pruned_segd);
    EXPECT_EQ(serial.empty_overlap, summed.empty_overlap);
    EXPECT_EQ(serial.emitted, summed.emitted);
    EXPECT_TRUE(SamePartials(serial_out, out));
  }
}

TEST(FragmentJoinTest, BatchJoinMatchesRowJoin) {
  Rng rng(55);
  std::vector<SegmentRecord> fragment = RandomFragment(rng, 20, 0, 24);
  FragmentJoinOptions opts;
  opts.theta = 0.5;
  for (JoinMethod method :
       {JoinMethod::kLoop, JoinMethod::kIndex, JoinMethod::kPrefix}) {
    opts.method = method;
    std::vector<PartialOverlap> row_out, batch_out;
    FilterCounters row_c, batch_c;
    JoinFragment(fragment, opts, &row_out, &row_c);
    SegmentBatch batch = SegmentBatch::FromRecords(fragment);
    JoinFragmentBatch(batch, opts, &batch_out, &batch_c);
    EXPECT_TRUE(SamePartials(row_out, batch_out));
    EXPECT_EQ(row_c.pairs_considered, batch_c.pairs_considered);
    EXPECT_EQ(row_c.emitted, batch_c.emitted);
  }
}

TEST(FragmentJoinTest, FilterCountersAdd) {
  FilterCounters a, b;
  a.pairs_considered = 5;
  a.emitted = 2;
  b.pairs_considered = 7;
  b.pruned_strl = 3;
  a.Add(b);
  EXPECT_EQ(a.pairs_considered, 12u);
  EXPECT_EQ(a.pruned_strl, 3u);
  EXPECT_EQ(a.emitted, 2u);
}

}  // namespace
}  // namespace fsjoin

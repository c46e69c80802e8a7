#include "core/fragment_join.h"

#include "core/join_pipeline.h"
#include "util/logging.h"

namespace fsjoin {

void FilterCounters::Add(const FilterCounters& other) {
  pairs_considered += other.pairs_considered;
  pruned_role += other.pruned_role;
  pruned_strl += other.pruned_strl;
  pruned_segl += other.pruned_segl;
  pruned_segi += other.pruned_segi;
  pruned_segd += other.pruned_segd;
  empty_overlap += other.empty_overlap;
  emitted += other.emitted;
}

void JoinFragmentBatch(const SegmentBatch& batch,
                       const FragmentJoinOptions& opts,
                       std::vector<PartialOverlap>* out,
                       FilterCounters* counters) {
  if (batch.empty()) return;
  FSJOIN_CHECK(batch.sealed());  // the bitmaps back the overlap gate
  // R-S joins iterate the side lists; an untagged batch would join nothing.
  FSJOIN_CHECK(!opts.rs_boundary.has_value() || batch.side_tagged());
  // One registry lookup per fragment; the compiled pipeline carries the
  // method / filter-subset branches in its instantiation instead of
  // re-deciding them per candidate pair (core/join_pipeline.h).
  KernelRegistry::Get().Lookup(ShapeOf(opts))(batch, opts, out, counters);
}

void JoinFragment(const std::vector<SegmentRecord>& segments,
                  const FragmentJoinOptions& opts,
                  std::vector<PartialOverlap>* out, FilterCounters* counters) {
  SegmentBatch batch = SegmentBatch::FromRecords(segments);
  if (opts.rs_boundary.has_value()) batch.TagSides(*opts.rs_boundary);
  JoinFragmentBatch(batch, opts, out, counters);
}

}  // namespace fsjoin

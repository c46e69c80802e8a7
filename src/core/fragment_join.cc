#include "core/fragment_join.h"

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

void JoinFragment(const std::vector<SegmentRecord>& segments,
                  const FragmentJoinOptions& opts,
                  std::vector<PartialOverlap>* out, FilterCounters* counters) {
  SegmentBatch batch = SegmentBatch::FromRecords(segments);
  if (opts.rs_boundary.has_value()) batch.TagSides(*opts.rs_boundary);
  JoinFragmentBatch(batch, opts, out, counters);
}

}  // namespace fsjoin

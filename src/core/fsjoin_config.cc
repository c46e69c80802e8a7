#include "core/fsjoin_config.h"

#include "util/string_util.h"

namespace fsjoin {

const char* PivotStrategyName(PivotStrategy strategy) {
  switch (strategy) {
    case PivotStrategy::kRandom:
      return "random";
    case PivotStrategy::kEvenInterval:
      return "even-interval";
    case PivotStrategy::kEvenTf:
      return "even-tf";
  }
  return "?";
}

const char* JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kLoop:
      return "loop";
    case JoinMethod::kIndex:
      return "index";
    case JoinMethod::kPrefix:
      return "prefix";
  }
  return "?";
}

Status FsJoinConfig::Validate() const {
  if (theta <= 0.0 || theta > 1.0) {
    return Status::InvalidArgument(
        StrFormat("theta must be in (0, 1], got %f", theta));
  }
  if (num_vertical_partitions == 0) {
    return Status::InvalidArgument("num_vertical_partitions must be >= 1");
  }
  return exec.Validate();
}

std::string FsJoinConfig::Summary() const {
  return StrFormat(
      "FS-Join(theta=%.2f, fn=%s, V=%u(%s), H=%u, join=%s, filters=%s%s%s%s)",
      theta, SimilarityFunctionName(function), num_vertical_partitions,
      PivotStrategyName(pivot_strategy), num_horizontal_partitions,
      JoinMethodName(join_method), use_length_filter ? "L" : "",
      use_segment_length_filter ? "l" : "",
      use_segment_intersection_filter ? "i" : "",
      use_segment_difference_filter ? "d" : "");
}

}  // namespace fsjoin

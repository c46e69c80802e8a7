#include "mr/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace fsjoin::mr {

double JobMetrics::DuplicationFactor() const {
  if (map_input_records == 0) return 0.0;
  return static_cast<double>(map_output_records) /
         static_cast<double>(map_input_records);
}

double JobMetrics::ReduceSkew() const {
  if (reduce_tasks.empty()) return 1.0;
  uint64_t max_bytes = 0;
  uint64_t total = 0;
  for (const TaskMetrics& t : reduce_tasks) {
    max_bytes = std::max(max_bytes, t.input_bytes);
    total += t.input_bytes;
  }
  if (total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(reduce_tasks.size());
  return static_cast<double>(max_bytes) / mean;
}

std::string JobMetrics::Summary() const {
  std::ostringstream os;
  os << "job '" << job_name << "'";
  os << ":\n";
  os << StrFormat("  map:     %s records in, %s records out (%s), dup=%.2fx\n",
                  WithThousandsSep(map_input_records).c_str(),
                  WithThousandsSep(map_output_records).c_str(),
                  HumanBytes(map_output_bytes).c_str(), DuplicationFactor());
  os << StrFormat("  shuffle: %s records, %s, reduce skew=%.2f\n",
                  WithThousandsSep(shuffle_records).c_str(),
                  HumanBytes(shuffle_bytes).c_str(), ReduceSkew());
  if (spill_runs > 0) {
    os << StrFormat("  spill:   %s in %u runs\n",
                    HumanBytes(spilled_bytes).c_str(), spill_runs);
  }
  os << StrFormat("  reduce:  %s records out (%s)\n",
                  WithThousandsSep(reduce_output_records).c_str(),
                  HumanBytes(reduce_output_bytes).c_str());
  os << StrFormat("  time:    map %.1f ms, reduce %.1f ms, total %.1f ms",
                  static_cast<double>(map_wall_micros) / 1000.0,
                  static_cast<double>(reduce_wall_micros) / 1000.0,
                  static_cast<double>(total_wall_micros) / 1000.0);
  return os.str();
}

}  // namespace fsjoin::mr

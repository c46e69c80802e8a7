#ifndef FSJOIN_BASELINES_BASELINE_H_
#define FSJOIN_BASELINES_BASELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_config.h"
#include "mr/metrics.h"
#include "sim/join_result.h"
#include "sim/similarity.h"
#include "text/corpus.h"
#include "util/status.h"

namespace fsjoin {

/// Shared parameters of the competitor algorithms (§VI "Alternative
/// Techniques"): RIDPairsPPJoin (Vernica et al.), V-Smart-Join
/// (Online-Aggregation) and MassJoin (Merge / Merge+Light).
struct BaselineConfig {
  double theta = 0.8;
  SimilarityFunction function = SimilarityFunction::kJaccard;

  /// Engine shape (task counts, threads, runner, emission limit) — shared
  /// with FS-Join via exec::ExecConfig.
  exec::ExecConfig exec;

  /// Two-collection R-S joins over a merged corpus (same contract as
  /// FsJoinConfig::rs_boundary): records with id < rs_boundary are R, the
  /// rest are S, and only pairs straddling the boundary are produced. Each
  /// baseline enforces this structurally in its candidate stage — same-side
  /// pairs are never enumerated, not enumerated-then-filtered.
  std::optional<RecordId> rs_boundary;

  Status Validate() const;
};

/// Execution record of one baseline run; same role as FsJoinReport.
struct BaselineReport {
  std::string algorithm;
  std::vector<mr::JobMetrics> jobs;
  /// Name of the signature/kernel stage whose map output holds the
  /// duplicated records ("vernica-kernel", "vsmart-join",
  /// "massjoin-signatures").
  std::string signature_stage;
  uint64_t candidate_pairs = 0;
  uint64_t result_pairs = 0;
  double total_wall_ms = 0.0;

  /// Metrics of the signature stage, looked up by name in `jobs`;
  /// nullptr when the stage is absent (e.g. the run aborted early).
  const mr::JobMetrics* SignatureJob() const;

  /// Map-output records of the signature job divided by input records —
  /// the duplication the paper's Table I compares.
  double DuplicationFactor(uint64_t input_records) const;

  std::string Summary() const;
};

struct BaselineOutput {
  JoinResultSet pairs;
  BaselineReport report;
};

/// Budget shared across a baseline's mappers/reducers to enforce
/// BaselineConfig::emission_limit.
class EmissionBudget {
 public:
  explicit EmissionBudget(uint64_t limit) : limit_(limit) {}

  /// Consumes n emissions; ResourceExhausted when the budget is exceeded.
  Status Consume(uint64_t n) {
    if (limit_ == 0) return Status::OK();
    if (used_.fetch_add(n, std::memory_order_relaxed) + n > limit_) {
      return Status::ResourceExhausted(
          "intermediate record budget exceeded (" + std::to_string(limit_) +
          ")");
    }
    return Status::OK();
  }

  uint64_t used() const { return used_.load(std::memory_order_relaxed); }

 private:
  uint64_t limit_;
  std::atomic<uint64_t> used_{0};
};

}  // namespace fsjoin

#endif  // FSJOIN_BASELINES_BASELINE_H_

#ifndef FSJOIN_BENCH_BENCH_UTIL_H_
#define FSJOIN_BENCH_BENCH_UTIL_H_

#include <functional>
#include <string>
#include <vector>

#include "baselines/baseline.h"
#include "core/fsjoin.h"
#include "mr/cluster_sim.h"
#include "text/corpus.h"
#include "text/generator.h"

namespace fsjoin::bench {

/// Scale multiplier for all bench workloads, from the environment variable
/// FSJOIN_BENCH_SCALE (default 1.0). 0.25 makes the whole suite ~4x
/// faster; 1.0 is the calibrated single-machine "10X" workload.
double BenchScale();

/// Number of reduce tasks per configuration, following the paper's rule of
/// 3 tasks per node on a 10-worker cluster.
inline constexpr uint32_t kReduceTasks = 30;
inline constexpr uint32_t kMapTasks = 30;
inline constexpr uint32_t kDefaultNodes = 10;

/// The three synthetic corpora standing in for Enron Email / PubMed / Wiki
/// (see DESIGN.md for the substitution argument). `fraction` further scales
/// the record count (1.0 = full bench workload = the paper's "10X").
struct Workload {
  std::string name;
  Corpus corpus;
};

Workload MakeWorkload(const std::string& name, double fraction);

/// All three workloads at a fraction.
std::vector<Workload> AllWorkloads(double fraction);

/// Default FS-Join config used across benches (paper defaults: Even-TF,
/// prefix join, all filters, 30 vertical partitions).
FsJoinConfig DefaultFsConfig(double theta);

/// Default baseline config.
BaselineConfig DefaultBaselineConfig(double theta);

/// Simulated cluster time of a job pipeline on `nodes` workers using the
/// default Hadoop-era cost model. Callers pass report.JoinJobs(), the
/// paper's cost scope; the global order is a driver build, not a job.
double SimulatedMs(const std::vector<mr::JobMetrics>& jobs, uint32_t nodes);

/// Same, with a caller-supplied model (Fig. 13 uses a memory-constrained
/// one).
double SimulatedMs(const std::vector<mr::JobMetrics>& jobs, uint32_t nodes,
                   const mr::ClusterCostModel& model);

/// Prints the standard bench banner: experiment id, paper reference, and
/// the workload substitution note.
void PrintBanner(const std::string& experiment, const std::string& claim);

// ---- Repeatable runs and machine-readable output --------------------------

/// Shared command-line options for the driver benches:
///   --warmup=N   untimed runs before measuring (default 0)
///   --repeat=N   timed repetitions; wall time reported as the minimum
///                (default 1)
///   --json[=P]   write a JSON summary to P (default BENCH_<name>.json)
struct BenchOptions {
  int warmup = 0;
  int repeat = 1;
  std::string json_path;  // empty = no JSON output
};

/// Parses the flags above from argv. Unknown arguments print usage and
/// exit(2), so typos never silently run the default configuration.
BenchOptions ParseBenchOptions(const std::string& bench_name, int argc,
                               char** argv);

/// One measured configuration within a bench run. Unused fields stay 0 and
/// are still emitted, keeping the JSON schema uniform across benches.
struct BenchRecord {
  std::string name;               // e.g. "email/h=8" — unique within the run
  double wall_micros = 0;         // measured wall time (min over repeats)
  uint64_t shuffle_bytes = 0;     // bytes through the shuffle(s)
  uint64_t peak_group_bytes = 0;  // largest reduce group (memory pressure)
  double simulated_ms = 0;        // cluster-simulator time, when applicable
  uint64_t spilled_bytes = 0;     // bytes written to spill run files
  uint32_t spill_runs = 0;        // spill run files written
};

/// Writes `records` to options.json_path as
///   {"bench": <name>, "scale": <s>, "warmup": N, "repeat": N,
///    "results": [{...}, ...]}
/// No-op when json_path is empty.
void WriteBenchJson(const BenchOptions& options, const std::string& bench_name,
                    const std::vector<BenchRecord>& records);

/// Runs `fn` options.warmup times untimed, then options.repeat times timed,
/// and returns the fastest run in microseconds (min filters scheduler noise
/// better than mean for single-machine runs).
double MinWallMicros(const BenchOptions& options,
                     const std::function<void()>& fn);

/// Largest reduce group (key + values bytes) across a job's reduce tasks —
/// the per-reducer memory high-water mark horizontal partitioning bounds.
uint64_t MaxGroupBytes(const mr::JobMetrics& job);

}  // namespace fsjoin::bench

#endif  // FSJOIN_BENCH_BENCH_UTIL_H_

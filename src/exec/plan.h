#ifndef FSJOIN_EXEC_PLAN_H_
#define FSJOIN_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "mr/job.h"
#include "mr/kv.h"
#include "util/status.h"

namespace fsjoin::exec {

/// One stage of a logical plan. Stages reuse the mr::Mapper / mr::Reducer
/// operator interfaces, so every FS-Join and baseline operator runs on the
/// engine unchanged.
struct Stage {
  enum class Kind {
    kFlatMap,     ///< narrow: record -> zero or more records
    kGroupByKey,  ///< wide: shuffle by key, grouped reduce
    kUnion,       ///< splice a side dataset into the stream at this point
  };

  Kind kind = Kind::kFlatMap;
  /// Stage label. For kGroupByKey this is also the name the MapReduce
  /// backend gives the materialized job (and thus its JobMetrics entry).
  std::string name;

  mr::MapperFactory mapper;    ///< kFlatMap
  mr::ReducerFactory reducer;  ///< kGroupByKey
  /// Optional map-side combiner for kGroupByKey (Hadoop: per map task).
  mr::ReducerFactory combiner;
  /// Key router for kGroupByKey; HashPartitioner when null.
  std::shared_ptr<const mr::Partitioner> partitioner;
  /// kUnion: records appended to the stream (shared because drivers reuse
  /// one side dataset at several points, e.g. MassJoin's ranked records).
  std::shared_ptr<const mr::Dataset> dataset;

  /// kGroupByKey execution hints (StageHints): fork-boundary side channel
  /// for this stage's shared context, and the registered task-factory name
  /// that lets the stage's tasks re-exec as --worker-task processes.
  mr::TaskSideChannel side;
  std::string task_factory;
  std::string task_payload;
};

/// Optional per-wide-stage execution metadata passed to Plan::GroupByKey.
/// Defaulted so stages that carry no shared mutable context (and offer no
/// re-exec factory) list only their operators.
struct StageHints {
  mr::TaskSideChannel side;
  std::string task_factory;
  std::string task_payload;
};

/// A logical description of one multi-stage computation: a chain of named
/// stages that MapReduceBackend lowers to MapReduce jobs. Drivers *emit a
/// plan* instead of hand-chaining MR jobs, so the chain / identity-map /
/// DFS lowering lives in one place.
///
///   Plan join("join");
///   join.FlatMap("vertical-split", mapper_factory)
///       .GroupByKey("filtering", reducer_factory, partitioner)
///       .GroupByKey("verification", verify_factory);
class Plan {
 public:
  explicit Plan(std::string name) : name_(std::move(name)) {}

  /// Appends a narrow stage.
  Plan& FlatMap(std::string stage_name, mr::MapperFactory factory);

  /// Appends a wide stage. `stage_name` becomes the MapReduce backend's job
  /// name, so reports and regression-pinned metrics key off it.
  Plan& GroupByKey(std::string stage_name, mr::ReducerFactory factory,
                   std::shared_ptr<const mr::Partitioner> partitioner = nullptr,
                   mr::ReducerFactory combiner = nullptr,
                   StageHints hints = {});

  /// Appends a union point: `dataset`'s records join the stream here (the
  /// MassJoin drivers splice ranked record content next to candidates).
  Plan& UnionWith(std::string stage_name,
                  std::shared_ptr<const mr::Dataset> dataset);

  /// Structural checks (factories present, datasets non-null). The backend
  /// calls this before executing.
  Status Validate() const;

  const std::string& name() const { return name_; }
  const std::vector<Stage>& stages() const { return stages_; }

  /// Number of kGroupByKey stages — the length of the execution history
  /// this plan contributes.
  size_t NumWideStages() const;

 private:
  std::string name_;
  std::vector<Stage> stages_;
};

}  // namespace fsjoin::exec

#endif  // FSJOIN_EXEC_PLAN_H_

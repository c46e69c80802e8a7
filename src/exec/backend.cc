#include "exec/backend.h"

#include <string>
#include <utility>
#include <vector>

#include "net/cluster_runner.h"
#include "store/memory_budget.h"
#include "util/endpoint.h"

namespace fsjoin::exec {

namespace {

/// Map phase stand-in when a wide stage has no preceding narrow stages
/// (e.g. FS-Join's verification job): pass every record through unchanged.
class IdentityMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    out->Emit(record.key, record.value);
    return Status::OK();
  }
};

/// Reduce phase stand-in for a plan that ends on narrow stages: re-emit
/// every shuffled value under its key (the MapReduce lowering of a
/// map-only tail — grouping reorders records but preserves content).
class IdentityReducer : public mr::Reducer {
 public:
  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    for (std::string_view v : values) out->Emit(key, v);
    return Status::OK();
  }
};

/// Fuses several narrow stages into one Hadoop map phase: each record runs
/// through the whole mapper chain, intermediate emissions never touch the
/// shuffle.
class ChainMapper : public mr::Mapper {
 public:
  explicit ChainMapper(std::vector<std::unique_ptr<mr::Mapper>> mappers)
      : mappers_(std::move(mappers)) {}

  Status Setup() override {
    for (auto& mapper : mappers_) {
      FSJOIN_RETURN_NOT_OK(mapper->Setup());
    }
    return Status::OK();
  }

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    return Feed(0, record, out);
  }

  Status Finish(mr::Emitter* out) override {
    // Finish hooks cascade: mapper i's trailing emissions still flow
    // through mappers i+1..n before reaching the real emitter.
    for (size_t i = 0; i < mappers_.size(); ++i) {
      ChainEmitter emitter(this, i + 1, out);
      FSJOIN_RETURN_NOT_OK(mappers_[i]->Finish(&emitter));
      FSJOIN_RETURN_NOT_OK(emitter.status());
    }
    return Status::OK();
  }

 private:
  class ChainEmitter : public mr::Emitter {
   public:
    ChainEmitter(ChainMapper* chain, size_t next, mr::Emitter* out)
        : chain_(chain), next_(next), out_(out) {}

    void Emit(std::string_view key, std::string_view value) override {
      if (!status_.ok()) return;
      mr::KeyValue kv{std::string(key), std::string(value)};
      status_ = chain_->Feed(next_, kv, out_);
    }

    const Status& status() const { return status_; }

   private:
    ChainMapper* chain_;
    size_t next_;
    mr::Emitter* out_;
    Status status_;
  };

  Status Feed(size_t i, const mr::KeyValue& record, mr::Emitter* out) {
    if (i == mappers_.size()) {
      out->Emit(record.key, record.value);
      return Status::OK();
    }
    ChainEmitter emitter(this, i + 1, out);
    FSJOIN_RETURN_NOT_OK(mappers_[i]->Map(record, &emitter));
    return emitter.status();
  }

  std::vector<std::unique_ptr<mr::Mapper>> mappers_;
};

/// Lowers a run of pending narrow stages to one Hadoop map phase. A single
/// stage's factory is used as-is so single-FlatMap jobs (every job in the
/// FS-Join and baseline plans) execute exactly like the hand-chained
/// drivers did.
mr::MapperFactory ComposeMappers(std::vector<mr::MapperFactory> pending) {
  if (pending.empty()) {
    return [] { return std::make_unique<IdentityMapper>(); };
  }
  if (pending.size() == 1) return std::move(pending[0]);
  return [pending = std::move(pending)] {
    std::vector<std::unique_ptr<mr::Mapper>> mappers;
    mappers.reserve(pending.size());
    for (const mr::MapperFactory& factory : pending) {
      mappers.push_back(factory());
    }
    return std::make_unique<ChainMapper>(std::move(mappers));
  };
}

mr::EngineOptions EngineOptionsFrom(const ExecConfig& config,
                                    mr::TaskRunner* external) {
  mr::EngineOptions options;
  options.num_threads = config.num_threads;
  options.shuffle_memory_bytes = config.shuffle_memory_bytes;
  options.spill_dir = config.spill_dir;
  options.runner = config.runner;
  options.task_retries = config.task_retries;
  options.external_runner = external;
  return options;
}

/// Builds the cluster runner for RunnerKind::kCluster, or null for every
/// other runner kind. Bring-up failures (bad worker list, connect/handshake
/// errors) land in *error; the backend constructor can't return Status, so
/// the first Execute surfaces them.
std::unique_ptr<mr::TaskRunner> MaybeMakeClusterRunner(
    const ExecConfig& config, Status* error) {
  if (config.runner != mr::RunnerKind::kCluster) return nullptr;
  if (Status st = config.Validate(); !st.ok()) {
    *error = std::move(st);
    return nullptr;
  }
  net::ClusterOptions options;
  if (!config.workers.empty()) {
    auto list = ParseEndpointList(config.workers);
    if (!list.ok()) {
      *error = list.status();
      return nullptr;
    }
    options.workers = std::move(list).value();
  }
  options.spawn_local_workers = config.spawn_local_workers;
  options.heartbeat_ms = config.heartbeat_ms;
  options.num_threads = config.num_threads;
  auto runner = net::ClusterTaskRunner::Create(options);
  if (!runner.ok()) {
    *error = runner.status();
    return nullptr;
  }
  return std::move(runner).value();
}

}  // namespace

MapReduceBackend::MapReduceBackend(const ExecConfig& config)
    : config_(config),
      cluster_runner_(MaybeMakeClusterRunner(config, &init_error_)),
      engine_(EngineOptionsFrom(config, cluster_runner_.get())),
      pipeline_(&engine_, &dfs_) {
  if (config.process_memory_bytes > 0) {
    store::ProcessMemoryBudget().set_limit(config.process_memory_bytes);
  }
}

Result<mr::Dataset> MapReduceBackend::Execute(const Plan& plan,
                                              const mr::Dataset& input) {
  FSJOIN_RETURN_NOT_OK(init_error_);
  FSJOIN_RETURN_NOT_OK(config_.Validate());
  FSJOIN_RETURN_NOT_OK(plan.Validate());
  std::vector<std::string> created;
  auto new_name = [&](const std::string& suffix) {
    std::string name = plan.name() + "/" + std::to_string(dataset_counter_++) +
                       ":" + suffix;
    created.push_back(name);
    return name;
  };
  auto cleanup = [&] {
    for (const std::string& name : created) dfs_.Remove(name);
  };

  std::string current = new_name("input");
  dfs_.Put(current, input);

  std::vector<mr::MapperFactory> pending;
  for (const Stage& stage : plan.stages()) {
    Status st = Status::OK();
    switch (stage.kind) {
      case Stage::Kind::kUnion: {
        if (!pending.empty()) {
          st = Status::Unimplemented(
              "plan '" + plan.name() + "': union '" + stage.name +
              "' after an unflushed FlatMap cannot be lowered to MapReduce "
              "jobs (move the union before the narrow chain)");
          break;
        }
        auto cur = dfs_.Get(current);
        if (!cur.ok()) {
          st = cur.status();
          break;
        }
        mr::Dataset merged = **cur;
        merged.insert(merged.end(), stage.dataset->begin(),
                      stage.dataset->end());
        current = new_name(stage.name);
        dfs_.Put(current, std::move(merged));
        break;
      }
      case Stage::Kind::kFlatMap:
        pending.push_back(stage.mapper);
        break;
      case Stage::Kind::kGroupByKey: {
        mr::JobConfig job;
        job.name = stage.name;
        job.num_map_tasks = config_.num_map_tasks;
        job.num_reduce_tasks = config_.num_reduce_tasks;
        job.mapper_factory = ComposeMappers(std::move(pending));
        job.reducer_factory = stage.reducer;
        job.combiner_factory = stage.combiner;
        job.partitioner = stage.partitioner;
        job.side = stage.side;
        job.task_factory = stage.task_factory;
        job.task_payload = stage.task_payload;
        pending.clear();
        std::string out = new_name(stage.name);
        st = pipeline_.RunJob(job, current, out);
        current = out;
        break;
      }
    }
    if (!st.ok()) {
      cleanup();
      return st;
    }
  }

  if (!pending.empty()) {
    // Map-only tail: one more job whose reduce phase is the identity.
    mr::JobConfig job;
    job.name = plan.name() + "-tail";
    job.num_map_tasks = config_.num_map_tasks;
    job.num_reduce_tasks = config_.num_reduce_tasks;
    job.mapper_factory = ComposeMappers(std::move(pending));
    job.reducer_factory = [] { return std::make_unique<IdentityReducer>(); };
    std::string out = new_name("tail");
    Status st = pipeline_.RunJob(job, current, out);
    if (!st.ok()) {
      cleanup();
      return st;
    }
    current = out;
  }

  auto out = dfs_.Get(current);
  if (!out.ok()) {
    cleanup();
    return out.status();
  }
  mr::Dataset result = **out;
  cleanup();
  return result;
}

}  // namespace fsjoin::exec

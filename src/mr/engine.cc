#include "mr/engine.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>

#include "mr/scheduler.h"
#include "mr/shuffle.h"
#include "store/memory_budget.h"
#include "store/run_file.h"
#include "store/temp_dir.h"
#include "util/logging.h"
#include "util/timer.h"

namespace fsjoin::mr {

namespace {

/// Sanitizes a job name into something safe for a directory component.
std::string SpillDirPrefix(const std::string& job_name) {
  std::string prefix = "fsjoin-spill-";
  for (char c : job_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    prefix.push_back(ok ? c : '_');
  }
  return prefix;
}

/// Writes `input[begin..end)` as one CRC32C-framed transport run (not a
/// spill run: records keep input order, and the bytes are not counted in
/// the job's spill metrics).
Status WriteInputRun(const std::string& path, const Dataset& input,
                     size_t begin, size_t end) {
  store::RunWriter writer(path);
  FSJOIN_RETURN_NOT_OK(writer.Open());
  for (size_t i = begin; i < end; ++i) {
    FSJOIN_RETURN_NOT_OK(writer.Add(input[i].key, input[i].value));
  }
  return writer.Finish();
}

/// Writes a sorted, unspilled shard as one key-ordered transport run so an
/// isolated reduce task can merge-stream it like a spill run.
Status WriteShardRun(const std::string& path, const ShuffleShard& shard) {
  store::RunWriter writer(path);
  FSJOIN_RETURN_NOT_OK(writer.Open());
  for (size_t i = 0; i < shard.NumRecords(); ++i) {
    FSJOIN_RETURN_NOT_OK(writer.Add(shard.key(i), shard.value(i)));
  }
  return writer.Finish();
}

}  // namespace

uint32_t PrefixIdPartitioner::Partition(std::string_view key,
                                        uint32_t num_partitions) const {
  if (key.size() < 4) {
    return static_cast<uint32_t>(Fnv1a64(key) % num_partitions);
  }
  const unsigned char* p = reinterpret_cast<const unsigned char*>(key.data());
  uint32_t id = (static_cast<uint32_t>(p[0]) << 24) |
                (static_cast<uint32_t>(p[1]) << 16) |
                (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  return id % num_partitions;
}

Status EngineOptions::Validate() const {
  if (task_retries < 0) {
    return Status::InvalidArgument(
        "task_retries must be >= 0, got " + std::to_string(task_retries));
  }
  if (shuffle_memory_bytes > 0 &&
      shuffle_memory_bytes < kMinShuffleMemoryBytes) {
    return Status::InvalidArgument(
        "shuffle_memory_bytes " + std::to_string(shuffle_memory_bytes) +
        " is smaller than one arena charge (" +
        std::to_string(kMinShuffleMemoryBytes) +
        "); use 0 for an unbounded in-memory shuffle");
  }
  if (runner == RunnerKind::kCluster && external_runner == nullptr) {
    return Status::InvalidArgument(
        "runner 'cluster' needs an externally-built runner: construct one "
        "with net::ClusterTaskRunner::Create (from --workers host:port,... "
        "or --spawn-local-workers N) and pass it via "
        "EngineOptions::external_runner");
  }
  return Status::OK();
}

Engine::Engine(size_t num_threads) {
  options_.num_threads = num_threads;
  owned_runner_ = MakeTaskRunner(options_.runner, num_threads);
  runner_ = owned_runner_.get();
}

Engine::Engine(const EngineOptions& options) : options_(options) {
  if (options.external_runner != nullptr) {
    runner_ = options.external_runner;
  } else {
    owned_runner_ = MakeTaskRunner(options.runner, options.num_threads);
    runner_ = owned_runner_.get();
  }
}

Status Engine::Run(const JobConfig& config, const Dataset& input,
                   Dataset* output, JobMetrics* metrics) {
  FSJOIN_RETURN_NOT_OK(options_.Validate());
  if (runner_ == nullptr) {
    return Status::InvalidArgument(
        "runner 'cluster' needs an externally-built net::ClusterTaskRunner "
        "(EngineOptions::external_runner); MakeTaskRunner cannot create it");
  }
  if (!config.mapper_factory) {
    return Status::InvalidArgument("job '" + config.name + "': no mapper");
  }
  if (!config.reducer_factory) {
    return Status::InvalidArgument("job '" + config.name + "': no reducer");
  }
  if (config.num_map_tasks == 0 || config.num_reduce_tasks == 0) {
    return Status::InvalidArgument("job '" + config.name +
                                   "': task counts must be positive");
  }

  WallTimer job_timer;
  JobMetrics jm;
  jm.job_name = config.name;
  jm.map_input_records = input.size();
  jm.map_input_bytes = DatasetBytes(input);

  std::shared_ptr<const Partitioner> partitioner = config.partitioner;
  if (partitioner == nullptr) {
    partitioner = std::make_shared<HashPartitioner>();
  }
  const TaskFactories factories{config.mapper_factory, config.reducer_factory,
                                partitioner};

  const uint32_t num_maps = std::min<uint32_t>(
      config.num_map_tasks,
      static_cast<uint32_t>(std::max<size_t>(input.size(), 1)));
  const uint32_t num_reds = config.num_reduce_tasks;

  // Scratch directory: spill runs and (for process-isolated runners) task
  // interchange files. Parent-owned — children never remove it — and
  // removed when this function returns, on every path.
  const bool isolated = runner_->isolated();
  std::optional<store::TempSpillDir> scratch;
  std::optional<store::MemoryBudget> job_budget;
  if (isolated || options_.shuffle_memory_bytes > 0) {
    FSJOIN_ASSIGN_OR_RETURN(
        store::TempSpillDir dir,
        store::TempSpillDir::Create(options_.spill_dir,
                                    SpillDirPrefix(config.name)));
    scratch.emplace(std::move(dir));
  }
  if (options_.shuffle_memory_bytes > 0) {
    job_budget.emplace(options_.shuffle_memory_bytes);
  }

  TaskScheduler scheduler(runner_, options_.task_retries);

  // ---- Map stage -------------------------------------------------------
  // Each task gets a contiguous split of the input (Hadoop block split).
  // With a registered task factory under an isolated runner, the split is
  // additionally materialized as a transport run so the task can re-exec
  // as a --worker-task process that shares nothing with this one.
  const bool exec_capable = isolated && !config.task_factory.empty() &&
                            HasTaskFactory(config.task_factory);
  // Distributed runners stream the shuffle worker-to-worker instead of
  // moving arenas through this process: map tasks retain their sorted
  // partitions on the executing worker, reduce tasks pull them directly
  // (DESIGN.md §5j). Factory-named jobs only — closures cannot cross the
  // wire, and those jobs take the materialized-run path below instead.
  const bool net_shuffle = exec_capable && runner_->distributed();
  // Retained partitions must be dropped on every exit path, success or not.
  struct JobFinisher {
    TaskRunner* runner;
    const std::string& job;
    bool active;
    ~JobFinisher() {
      if (active) runner->FinishJob(job);
    }
  } job_finisher{runner_, config.name, net_shuffle};
  const size_t per_task = (input.size() + num_maps - 1) / num_maps;
  std::vector<TaskSpec> map_specs(num_maps);
  for (uint32_t m = 0; m < num_maps; ++m) {
    TaskSpec& spec = map_specs[m];
    spec.job_name = config.name;
    spec.kind = TaskKind::kMap;
    spec.task_index = m;
    spec.num_partitions = num_reds;
    spec.input_begin = std::min<uint64_t>(input.size(), m * per_task);
    spec.input_end = std::min<uint64_t>(input.size(),
                                        spec.input_begin + per_task);
    if (scratch.has_value()) {
      spec.output_base = scratch->path() + "/map-t" + std::to_string(m);
    }
  }
  if (exec_capable) {
    std::vector<Status> write_status(num_maps);
    runner_->ParallelRun(num_maps, [&](size_t m) {
      TaskSpec& spec = map_specs[m];
      const std::string path =
          scratch->path() + "/map-in-t" + std::to_string(m) + ".run";
      write_status[m] = WriteInputRun(path, input, spec.input_begin,
                                      spec.input_end);
      spec.input_runs = {path};
      spec.factory = config.task_factory;
      spec.payload = config.task_payload;
      spec.retain_shuffle = net_shuffle;
    });
    for (const Status& st : write_status) FSJOIN_RETURN_NOT_OK(st);
  }

  std::vector<std::vector<KvBuffer>> task_buffers(num_maps);
  TaskBody map_body = [&](const TaskSpec& spec, TaskOutput* out) -> Status {
    return ExecuteMapTask(spec, factories,
                          input.data() + spec.input_begin,
                          static_cast<size_t>(spec.input_end -
                                              spec.input_begin),
                          out);
  };
  auto map_done = [&](const TaskSpec& spec, TaskOutput out) -> Status {
    if (net_shuffle) {
      // The data stayed on the worker; only the per-partition stats came
      // back, and they are the job's shuffle accounting.
      if (out.partition_stats.size() != num_reds) {
        return Status::Internal("job '" + config.name + "': map task " +
                                std::to_string(spec.task_index) +
                                " returned wrong partition-stat count");
      }
      for (const PartitionStat& stat : out.partition_stats) {
        jm.shuffle_records += stat.records;
        jm.shuffle_bytes += stat.bytes;
      }
    } else if (out.partitions.size() != num_reds) {
      return Status::Internal("job '" + config.name + "': map task " +
                              std::to_string(spec.task_index) +
                              " returned wrong partition count");
    } else {
      task_buffers[spec.task_index] = std::move(out.partitions);
    }
    jm.map_output_records += out.metrics.output_records;
    jm.map_output_bytes += out.metrics.output_bytes;
    jm.map_wall_micros += out.metrics.wall_micros;
    jm.map_tasks.push_back(out.metrics);
    return Status::OK();
  };
  // Mappers only read shared context, so the map stage needs no side
  // channel even when it forks.
  FSJOIN_RETURN_NOT_OK(
      scheduler.RunStage(std::move(map_specs), map_body, {}, map_done));

  // ---- Shuffle ---------------------------------------------------------
  // Parent-side in every runner mode (on a cluster this is the fetch phase
  // the coordinator orchestrates). Each reducer's shard takes ownership of
  // its arena from every map task in map order: a merge of buffer moves,
  // no record ever copied. With a shuffle memory cap, each shard charges
  // the per-job budget (chained to the process-wide one) and spills
  // key-sorted run files into the scratch directory when a charge trips.
  std::vector<ShuffleShard> shards(num_reds);
  if (!net_shuffle) {
    std::vector<Status> shuffle_status(num_reds);
    runner_->ParallelRun(num_reds, [&](size_t r) {
      if (job_budget.has_value()) {
        std::string prefix = "r";
        prefix += std::to_string(r);
        shards[r].EnableSpill(&*job_budget, scratch->path(),
                              std::move(prefix));
      }
      Status st;
      for (uint32_t m = 0; st.ok() && m < num_maps; ++m) {
        st = shards[r].AddBuffer(std::move(task_buffers[m][r]));
      }
      if (st.ok()) st = shards[r].Seal();
      if (!st.ok()) shuffle_status[r] = std::move(st);
    });
    for (const Status& st : shuffle_status) {
      FSJOIN_RETURN_NOT_OK(st);
    }
    for (const ShuffleShard& shard : shards) {
      jm.shuffle_records += shard.NumRecords();
      jm.shuffle_bytes += shard.PayloadBytes();
    }
  }

  // ---- Reduce stage ----------------------------------------------------
  std::vector<TaskSpec> red_specs(num_reds);
  for (uint32_t r = 0; r < num_reds; ++r) {
    TaskSpec& spec = red_specs[r];
    spec.job_name = config.name;
    spec.kind = TaskKind::kReduce;
    spec.task_index = r;
    spec.num_partitions = num_reds;
    if (scratch.has_value()) {
      spec.output_base = scratch->path() + "/red-t" + std::to_string(r);
    }
  }

  TaskBody red_body;
  if (net_shuffle) {
    // Each reduce pulls every map's retained partition over the shuffle
    // sockets, in map-task order — the loser tree's source-index tie-break
    // then reproduces the in-memory stable sort's order exactly. The
    // cluster runner resolves the empty endpoints from its location table
    // at dispatch time.
    for (uint32_t r = 0; r < num_reds; ++r) {
      TaskSpec& spec = red_specs[r];
      spec.factory = config.task_factory;
      spec.payload = config.task_payload;
      spec.shuffle_sources.reserve(num_maps);
      for (uint32_t m = 0; m < num_maps; ++m) {
        spec.shuffle_sources.push_back(ShuffleSource{config.name, m, ""});
      }
    }
    red_body = [&config](const TaskSpec& spec, TaskOutput*) -> Status {
      return Status::Internal("job '" + config.name + "': reduce task " +
                              std::to_string(spec.task_index) +
                              " with shuffle sources cannot run in-process");
    };
  } else if (isolated) {
    // Every isolated reduce input travels as key-sorted run files — the
    // paper's materialized-intermediate discipline. Spilled shards already
    // are runs; in-memory shards are sorted here and written as one
    // transport run (not counted as spill). The merge tie-break then
    // reproduces the in-memory order exactly, so results stay
    // byte-identical to the in-process path.
    std::vector<Status> write_status(num_reds);
    runner_->ParallelRun(num_reds, [&](size_t r) {
      TaskSpec& spec = red_specs[r];
      ShuffleShard& shard = shards[r];
      if (shard.spilled()) {
        spec.input_runs = shard.run_paths();
      } else if (shard.NumRecords() > 0) {
        shard.SortByKey();
        const std::string path =
            scratch->path() + "/red-in-t" + std::to_string(r) + ".run";
        write_status[r] = WriteShardRun(path, shard);
        spec.input_runs = {path};
      }
      if (exec_capable) {
        spec.factory = config.task_factory;
        spec.payload = config.task_payload;
      }
    });
    for (const Status& st : write_status) FSJOIN_RETURN_NOT_OK(st);
    red_body = [&factories](const TaskSpec& spec, TaskOutput* out) -> Status {
      return ExecuteReduceTaskFromRuns(spec, factories, out);
    };
  } else {
    red_body = [&](const TaskSpec& spec, TaskOutput* out) -> Status {
      WallTimer timer;
      ShuffleShard& shard = shards[spec.task_index];
      if (!shard.spilled()) shard.SortByKey();
      VectorEmitter emit(&out->records);
      std::unique_ptr<Reducer> reducer = config.reducer_factory();
      FSJOIN_RETURN_NOT_OK(ReduceShard(reducer.get(), shard, &emit,
                                       &out->metrics.max_group_bytes));
      out->metrics.wall_micros = timer.ElapsedMicros();
      out->metrics.output_records = emit.records();
      out->metrics.output_bytes = emit.bytes();
      return Status::OK();
    };
  }

  std::vector<Dataset> reduce_outputs(num_reds);
  auto red_done = [&](const TaskSpec& spec, TaskOutput out) -> Status {
    const uint32_t r = spec.task_index;
    reduce_outputs[r] = std::move(out.records);
    TaskMetrics tm = out.metrics;
    if (!net_shuffle) {
      // Shard-side counters are authoritative for both execution paths (a
      // transport run's reader would agree on records/bytes, but spill
      // accounting must not count transport runs). Network-shuffle tasks
      // instead report the totals their stream trailers cross-checked, and
      // never spill on the coordinator.
      tm.input_records = shards[r].NumRecords();
      tm.input_bytes = shards[r].PayloadBytes();
      tm.spilled_bytes = shards[r].spilled_bytes();
      tm.spill_runs = shards[r].spill_runs();
    }
    jm.reduce_output_records += tm.output_records;
    jm.reduce_output_bytes += tm.output_bytes;
    jm.reduce_wall_micros += tm.wall_micros;
    jm.spilled_bytes += tm.spilled_bytes;
    jm.spill_runs += tm.spill_runs;
    jm.reduce_tasks.push_back(tm);
    return Status::OK();
  };
  FSJOIN_RETURN_NOT_OK(scheduler.RunStage(std::move(red_specs), red_body,
                                          config.side, red_done));

  size_t out_total = 0;
  for (const Dataset& d : reduce_outputs) out_total += d.size();
  output->clear();
  output->reserve(out_total);
  for (Dataset& d : reduce_outputs) {
    std::move(d.begin(), d.end(), std::back_inserter(*output));
  }

  jm.total_wall_micros = job_timer.ElapsedMicros();
  if (metrics != nullptr) *metrics = std::move(jm);
  return Status::OK();
}

uint64_t DatasetBytes(const Dataset& dataset) {
  uint64_t total = 0;
  for (const KeyValue& kv : dataset) total += kv.SizeBytes();
  return total;
}

}  // namespace fsjoin::mr

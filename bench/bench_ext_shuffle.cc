// Extension: shuffle data-plane microbenchmark. Pits the seed engine's
// per-record string path (vector<KeyValue> buckets, bytewise stable_sort,
// per-value copies into a std::vector<std::string> per group) against the
// zero-copy arena path (KvBuffer -> ShuffleShard tag sort -> ReduceShard
// over string_views) on a token-count-shaped workload: >= 1M records of
// 4-byte big-endian token keys with varint count values, Zipf-distributed
// tokens. Both paths run the same reducer and must produce identical
// output; the arena path is expected to win by >= 1.5x.
//
// A third configuration forces the external shuffle: the same arena path
// under a memory budget of 1/8th the shuffle volume, so every shard spills
// CRC-framed run files and reduces through the streaming k-way merge. Its
// output must also be byte-identical; the row reports the spill volume and
// run count alongside throughput, quantifying the disk detour's cost.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "mr/job.h"
#include "mr/kv.h"
#include "mr/shuffle.h"
#include "store/memory_budget.h"
#include "store/temp_dir.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/serde.h"

namespace fsjoin::bench {
namespace {

constexpr uint32_t kNumMapTasks = 8;
constexpr uint32_t kNumShards = 8;
constexpr uint32_t kVocab = 1 << 16;

std::vector<uint32_t> ZipfTokens(size_t n) {
  Rng rng(4242);
  ZipfSampler zipf(kVocab, 1.0);
  std::vector<uint32_t> tokens(n);
  for (uint32_t& t : tokens) t = static_cast<uint32_t>(zipf.Sample(rng));
  return tokens;
}

class CollectingEmitter : public mr::Emitter {
 public:
  explicit CollectingEmitter(mr::Dataset* out) : out_(out) {}
  void Emit(std::string_view key, std::string_view value) override {
    out_->push_back(mr::KeyValue{std::string(key), std::string(value)});
  }

 private:
  mr::Dataset* out_;
};

class SumReducer : public mr::Reducer {
 public:
  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    uint64_t total = 0;
    for (std::string_view v : values) {
      Decoder dec(v);
      uint64_t x = 0;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&x));
      total += x;
    }
    std::string value;
    PutVarint64(&value, total);
    out->Emit(key, value);
    return Status::OK();
  }
};

struct PathResult {
  mr::Dataset output;           // shard order, keys sorted within a shard
  uint64_t shuffle_bytes = 0;
  uint64_t peak_group_bytes = 0;
  uint64_t spilled_bytes = 0;
  uint32_t spill_runs = 0;
};

// The seed data plane: every emitted record is a heap KeyValue, the shard
// sort compares strings, and grouping copies each value before reducing.
PathResult RunLegacyPath(const std::vector<uint32_t>& tokens) {
  mr::PrefixIdPartitioner partitioner;
  std::string one;
  PutVarint64(&one, 1);

  std::vector<std::vector<mr::Dataset>> task_out(
      kNumMapTasks, std::vector<mr::Dataset>(kNumShards));
  const size_t per_task = (tokens.size() + kNumMapTasks - 1) / kNumMapTasks;
  for (uint32_t m = 0; m < kNumMapTasks; ++m) {
    const size_t begin = std::min(tokens.size(), m * per_task);
    const size_t end = std::min(tokens.size(), begin + per_task);
    for (size_t i = begin; i < end; ++i) {
      std::string key;
      PutFixed32BE(&key, tokens[i]);
      const uint32_t shard = partitioner.Partition(key, kNumShards);
      task_out[m][shard].push_back(mr::KeyValue{std::move(key), one});
    }
  }

  PathResult result;
  SumReducer reducer;
  CollectingEmitter emitter(&result.output);
  for (uint32_t r = 0; r < kNumShards; ++r) {
    mr::Dataset shard;
    for (uint32_t m = 0; m < kNumMapTasks; ++m) {
      std::move(task_out[m][r].begin(), task_out[m][r].end(),
                std::back_inserter(shard));
      mr::Dataset().swap(task_out[m][r]);
    }
    result.shuffle_bytes += mr::DatasetBytes(shard);
    std::stable_sort(shard.begin(), shard.end(),
                     [](const mr::KeyValue& a, const mr::KeyValue& b) {
                       return a.key < b.key;
                     });
    size_t i = 0;
    while (i < shard.size()) {
      size_t j = i;
      std::vector<std::string> values;  // the copies the arena path removes
      uint64_t group_bytes = 0;
      while (j < shard.size() && shard[j].key == shard[i].key) {
        values.push_back(shard[j].value);
        group_bytes += shard[j].key.size() + shard[j].value.size();
        ++j;
      }
      result.peak_group_bytes = std::max(result.peak_group_bytes, group_bytes);
      std::vector<std::string_view> views(values.begin(), values.end());
      Status st = reducer.Reduce(
          shard[i].key, mr::ValueList(views.data(), views.size()), &emitter);
      if (!st.ok()) FSJOIN_LOG(Fatal) << st.ToString();
      i = j;
    }
  }
  return result;
}

// The zero-copy data plane: emits append bytes to per-shard arenas, the
// shuffle moves arenas, the sort compares 8-byte tags, and the reducer sees
// views into the sorted arena.
PathResult RunArenaPath(const std::vector<uint32_t>& tokens) {
  mr::PrefixIdPartitioner partitioner;
  std::string one;
  PutVarint64(&one, 1);

  std::vector<std::vector<mr::KvBuffer>> task_out(
      kNumMapTasks, std::vector<mr::KvBuffer>(kNumShards));
  const size_t per_task = (tokens.size() + kNumMapTasks - 1) / kNumMapTasks;
  for (uint32_t m = 0; m < kNumMapTasks; ++m) {
    const size_t begin = std::min(tokens.size(), m * per_task);
    const size_t end = std::min(tokens.size(), begin + per_task);
    std::string key;
    for (size_t i = begin; i < end; ++i) {
      key.clear();
      PutFixed32BE(&key, tokens[i]);
      task_out[m][partitioner.Partition(key, kNumShards)].Append(key, one);
    }
  }

  PathResult result;
  SumReducer reducer;
  CollectingEmitter emitter(&result.output);
  for (uint32_t r = 0; r < kNumShards; ++r) {
    mr::ShuffleShard shard;
    for (uint32_t m = 0; m < kNumMapTasks; ++m) {
      shard.AddBuffer(std::move(task_out[m][r]));
    }
    result.shuffle_bytes += shard.PayloadBytes();
    shard.SortByKey();
    mr::TaskMetrics metrics;
    Status st = mr::ReduceShard(&reducer, shard, &emitter, &metrics);
    if (!st.ok()) FSJOIN_LOG(Fatal) << st.ToString();
    result.peak_group_bytes =
        std::max(result.peak_group_bytes, metrics.max_group_bytes);
  }
  return result;
}

// The arena path with a deliberately starved memory budget: shards spill
// key-sorted runs into a scratch directory and the reduce streams a merge.
PathResult RunSpillPath(const std::vector<uint32_t>& tokens,
                        uint64_t budget_bytes) {
  mr::PrefixIdPartitioner partitioner;
  std::string one;
  PutVarint64(&one, 1);

  auto scratch = store::TempSpillDir::Create("", "fsjoin-bench-spill");
  if (!scratch.ok()) FSJOIN_LOG(Fatal) << scratch.status().ToString();
  store::MemoryBudget budget(budget_bytes);

  std::vector<std::vector<mr::KvBuffer>> task_out(
      kNumMapTasks, std::vector<mr::KvBuffer>(kNumShards));
  const size_t per_task = (tokens.size() + kNumMapTasks - 1) / kNumMapTasks;
  for (uint32_t m = 0; m < kNumMapTasks; ++m) {
    const size_t begin = std::min(tokens.size(), m * per_task);
    const size_t end = std::min(tokens.size(), begin + per_task);
    std::string key;
    for (size_t i = begin; i < end; ++i) {
      key.clear();
      PutFixed32BE(&key, tokens[i]);
      task_out[m][partitioner.Partition(key, kNumShards)].Append(key, one);
    }
  }

  PathResult result;
  SumReducer reducer;
  CollectingEmitter emitter(&result.output);
  for (uint32_t r = 0; r < kNumShards; ++r) {
    mr::ShuffleShard shard;
    std::string prefix = "r";
    prefix += std::to_string(r);
    shard.EnableSpill(&budget, scratch->path(), std::move(prefix));
    for (uint32_t m = 0; m < kNumMapTasks; ++m) {
      Status st = shard.AddBuffer(std::move(task_out[m][r]));
      if (!st.ok()) FSJOIN_LOG(Fatal) << st.ToString();
    }
    Status st = shard.Seal();
    if (!st.ok()) FSJOIN_LOG(Fatal) << st.ToString();
    result.shuffle_bytes += shard.PayloadBytes();
    result.spilled_bytes += shard.spilled_bytes();
    result.spill_runs += shard.spill_runs();
    if (!shard.spilled()) shard.SortByKey();
    mr::TaskMetrics metrics;
    st = mr::ReduceShard(&reducer, shard, &emitter, &metrics);
    if (!st.ok()) FSJOIN_LOG(Fatal) << st.ToString();
    result.peak_group_bytes =
        std::max(result.peak_group_bytes, metrics.max_group_bytes);
  }
  return result;
}

bool SameOutput(const PathResult& a, const PathResult& b) {
  if (a.output.size() != b.output.size()) return false;
  for (size_t i = 0; i < a.output.size(); ++i) {
    if (a.output[i].key != b.output[i].key ||
        a.output[i].value != b.output[i].value) {
      return false;
    }
  }
  return a.shuffle_bytes == b.shuffle_bytes &&
         a.peak_group_bytes == b.peak_group_bytes;
}

void Run(const BenchOptions& options) {
  PrintBanner("Extension — shuffle data plane: arena vs per-record strings",
              "arena-backed shuffle >= 1.5x faster at identical accounting");

  const size_t num_records =
      std::max<size_t>(1, static_cast<size_t>((1 << 20) * BenchScale()));
  const std::vector<uint32_t> tokens = ZipfTokens(num_records);
  std::printf("workload: %zu records, %u map tasks, %u shards, Zipf(1.0) "
              "over %u tokens\n\n",
              tokens.size(), kNumMapTasks, kNumShards, kVocab);

  // All paths must agree record-for-record and counter-for-counter before
  // their timings mean anything.
  const PathResult legacy_check = RunLegacyPath(tokens);
  const PathResult arena_check = RunArenaPath(tokens);
  if (!SameOutput(legacy_check, arena_check)) {
    std::printf("FAIL: paths disagree (legacy %zu records / %llu bytes, "
                "arena %zu records / %llu bytes)\n",
                legacy_check.output.size(),
                static_cast<unsigned long long>(legacy_check.shuffle_bytes),
                arena_check.output.size(),
                static_cast<unsigned long long>(arena_check.shuffle_bytes));
    std::exit(1);
  }
  // Budget = 1/8th of the shuffle volume: several spill passes per shard.
  const uint64_t spill_budget = std::max<uint64_t>(
      1, arena_check.shuffle_bytes / 8);
  const PathResult spill_check = RunSpillPath(tokens, spill_budget);
  if (!SameOutput(arena_check, spill_check)) {
    std::printf("FAIL: spill path disagrees (arena %zu records, spill %zu "
                "records)\n",
                arena_check.output.size(), spill_check.output.size());
    std::exit(1);
  }
  if (spill_check.spill_runs == 0) {
    std::printf("FAIL: spill budget of %llu bytes produced no runs\n",
                static_cast<unsigned long long>(spill_budget));
    std::exit(1);
  }

  const double legacy_micros =
      MinWallMicros(options, [&] { RunLegacyPath(tokens); });
  const double arena_micros =
      MinWallMicros(options, [&] { RunArenaPath(tokens); });
  const double spill_micros = MinWallMicros(
      options, [&] { RunSpillPath(tokens, spill_budget); });
  const double speedup = legacy_micros / arena_micros;

  struct Row {
    const char* name;
    double micros;
    const PathResult* result;
  };
  const Row rows[] = {{"legacy", legacy_micros, &legacy_check},
                      {"arena", arena_micros, &arena_check},
                      {"spill", spill_micros, &spill_check}};

  std::printf("%-8s %12s %14s %14s %16s %14s %6s\n", "path", "wall (ms)",
              "MB/s", "shuffle (MB)", "peak group (B)", "spilled (MB)",
              "runs");
  std::vector<BenchRecord> records;
  for (const Row& row : rows) {
    std::printf("%-8s %12.1f %14.2f %14.2f %16llu %14.2f %6u\n", row.name,
                row.micros / 1e3, row.result->shuffle_bytes / row.micros,
                row.result->shuffle_bytes / 1e6,
                static_cast<unsigned long long>(row.result->peak_group_bytes),
                row.result->spilled_bytes / 1e6, row.result->spill_runs);
    BenchRecord record;
    record.name = row.name;
    record.wall_micros = row.micros;
    record.shuffle_bytes = row.result->shuffle_bytes;
    record.peak_group_bytes = row.result->peak_group_bytes;
    record.spilled_bytes = row.result->spilled_bytes;
    record.spill_runs = row.result->spill_runs;
    records.push_back(std::move(record));
  }
  std::printf("\nspeedup (legacy/arena): %.2fx  [target >= 1.50x: %s]\n",
              speedup, speedup >= 1.5 ? "PASS" : "FAIL");
  std::printf("spill overhead (spill/arena): %.2fx with %u runs / %.2f MB "
              "on disk\n",
              spill_micros / arena_micros, spill_check.spill_runs,
              spill_check.spilled_bytes / 1e6);
  WriteBenchJson(options, "ext_shuffle", records);
}

}  // namespace
}  // namespace fsjoin::bench

int main(int argc, char** argv) {
  fsjoin::bench::Run(
      fsjoin::bench::ParseBenchOptions("ext_shuffle", argc, argv));
  return 0;
}

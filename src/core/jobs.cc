#include "core/jobs.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/segments.h"
#include "mr/task.h"
#include "util/serde.h"

namespace fsjoin {

namespace {

// ---- Ordering job ------------------------------------------------------

class OrderingMapper : public mr::Mapper {
 public:
  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens));
    std::string one;
    PutVarint64(&one, 1);
    for (TokenId t : tokens) {
      std::string key;
      PutFixed32BE(&key, t);
      out->Emit(std::move(key), one);
    }
    return Status::OK();
  }
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

// ---- Filtering job -----------------------------------------------------

class FilteringMapper : public mr::Mapper {
 public:
  explicit FilteringMapper(std::shared_ptr<FilteringContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens));

    // Sort the record by the global ordering (paper: mapper-side sort).
    OrderedRecord ordered;
    ordered.id = rid;
    ordered.tokens.reserve(tokens.size());
    for (TokenId t : tokens) {
      if (t >= ctx_->order->NumTokens()) {
        return Status::Internal("token id outside the global ordering");
      }
      ordered.tokens.push_back(ctx_->order->RankOf(t));
    }
    std::sort(ordered.tokens.begin(), ordered.tokens.end());

    const uint32_t len = static_cast<uint32_t>(ordered.Size());
    SegmentSplit split = SplitIntoSegments(ordered, ctx_->pivots);
    for (uint32_t h : ctx_->horizontal.GroupsOf(len)) {
      for (size_t i = 0; i < split.segments.size(); ++i) {
        std::string key;
        PutFixed32BE(&key, h);
        PutFixed32BE(&key, split.fragment_ids[i]);
        std::string value;
        EncodeSegment(split.segments[i], &value);
        out->Emit(std::move(key), std::move(value));
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<FilteringContext> ctx_;
};

class FilteringReducer : public mr::Reducer {
 public:
  explicit FilteringReducer(std::shared_ptr<FilteringContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    // Only the length group steers the join; the fragment id is decoded
    // to validate the key.
    Decoder key_dec(key);
    uint32_t group = 0, fragment = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&group));
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&fragment));

    // Columnar build: shuffle values decode straight into one flat token
    // arena — no per-segment token vector is ever allocated. One reserve,
    // sized from the values' headers, covers the whole fragment.
    size_t num_tokens = 0;
    for (std::string_view v : values) num_tokens += EncodedSegmentTokens(v);
    SegmentBatch batch;
    batch.Reserve(values.size(), num_tokens);
    for (std::string_view v : values) {
      FSJOIN_RETURN_NOT_OK(batch.AppendEncoded(v));
    }
    batch.Seal();

    FragmentJoinOptions opts;
    const FsJoinConfig& cfg = ctx_->config;
    if (cfg.rs_boundary.has_value()) {
      // Side-tag the fragment so the join loops enumerate only cross-side
      // pairs (probe R rows against build S rows; see DESIGN.md §5k).
      batch.TagSides(*cfg.rs_boundary);
      opts.rs_boundary = cfg.rs_boundary;
    }
    opts.function = cfg.function;
    opts.theta = cfg.theta;
    opts.method = cfg.join_method;
    opts.aggressive_segment_prefix = cfg.aggressive_segment_prefix;
    opts.use_length_filter = cfg.use_length_filter;
    opts.use_segment_length_filter = cfg.use_segment_length_filter;
    opts.use_segment_intersection_filter = cfg.use_segment_intersection_filter;
    opts.use_segment_difference_filter = cfg.use_segment_difference_filter;
    opts.kernel = cfg.exec.kernel;

    const HorizontalScheme* horizontal = &ctx_->horizontal;
    // Same-side R-S pairs need no rule here: the side-tagged join loops
    // never enumerate them in the first place.
    opts.pair_allowed = [group, horizontal](const SegmentView& a,
                                            const SegmentView& b) {
      return a.rid != b.rid && horizontal->ShouldJoinInGroup(
                                   group, a.record_size, b.record_size);
    };
    if (ctx_->join_pool != nullptr && cfg.exec.parallel_fragment_join) {
      opts.morsel_pool = ctx_->join_pool.get();
      opts.morsel_size = cfg.exec.join_morsel_size;
    }

    std::vector<PartialOverlap> partials;
    FilterCounters counters;
    JoinFragmentBatch(batch, opts, &partials, &counters);
    {
      std::lock_guard<std::mutex> lock(ctx_->mu);
      ctx_->totals.Add(counters);
      if (cfg.collect_partial_overlaps) {
        ctx_->captured_partials.insert(ctx_->captured_partials.end(),
                                       partials.begin(), partials.end());
      }
    }

    for (const PartialOverlap& p : partials) {
      std::string out_key, out_value;
      EncodePartialOverlap(p, &out_key, &out_value);
      out->Emit(std::move(out_key), std::move(out_value));
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<FilteringContext> ctx_;
};

// ---- Verification job --------------------------------------------------

class VerificationReducer : public mr::Reducer {
 public:
  explicit VerificationReducer(std::shared_ptr<VerificationContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    uint64_t total_overlap = 0;
    uint64_t size_a = 0, size_b = 0;
    for (std::string_view v : values) {
      Decoder dec(v);
      uint64_t c = 0, la = 0, lb = 0;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&la));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&lb));
      total_overlap += c;
      size_a = la;
      size_b = lb;
    }
    ++local_candidates_;
    const FsJoinConfig& cfg = ctx_->config;
    if (PassesThreshold(cfg.function, total_overlap, size_a, size_b,
                        cfg.theta)) {
      double sim =
          ComputeSimilarity(cfg.function, total_overlap, size_a, size_b);
      std::string value;
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(sim));
      std::memcpy(&bits, &sim, sizeof(bits));
      PutFixed64BE(&value, bits);
      out->Emit(key, std::move(value));
    }
    return Status::OK();
  }

  Status Finish(mr::Emitter* out) override {
    (void)out;
    std::lock_guard<std::mutex> lock(ctx_->mu);
    ctx_->candidate_pairs += local_candidates_;
    return Status::OK();
  }

 private:
  std::shared_ptr<VerificationContext> ctx_;
  uint64_t local_candidates_ = 0;
};

// ---- Task factories and side channels ----------------------------------

/// The ordering job's operators are stateless and parameter-free, so its
/// tasks can be described by a registered name and re-executed by a
/// re-execed --worker-task process (mr/task.h). The filtering and
/// verification jobs capture driver-built shared contexts in their
/// closures; their tasks stay fork-only and report context mutations
/// through the side channels below.
[[maybe_unused]] const bool kOrderingFactoryRegistered =
    mr::RegisterTaskFactory(
        "core.ordering",
        [](const std::string&) -> Result<mr::TaskFactories> {
          mr::TaskFactories factories;
          factories.mapper = [] { return std::make_unique<OrderingMapper>(); };
          factories.reducer = [] { return std::make_unique<SumReducer>(); };
          factories.combiner = [] { return std::make_unique<SumReducer>(); };
          return factories;
        });

/// Fork-boundary channel for FilteringContext: a child task starts from
/// zeroed counters (and no inherited morsel pool — its threads do not
/// survive fork; joins run serially with byte-identical results), captures
/// its deltas as bytes, and the scheduler merges them into the parent's
/// context exactly once per logical task.
mr::TaskSideChannel FilteringSideChannel(
    std::shared_ptr<FilteringContext> ctx) {
  mr::TaskSideChannel side;
  side.reset = [ctx] {
    // Leak the pool, never destroy it: ~ThreadPool joins worker threads
    // that do not exist in a forked child, deadlocking forever on their
    // inherited thread descriptors. The memory is a COW page the child's
    // _exit reclaims; a null pool makes morsel joins run serially.
    (void)ctx->join_pool.release();
    ctx->totals = FilterCounters{};
    ctx->captured_partials.clear();
  };
  side.capture = [ctx]() -> std::string {
    std::string bytes;
    std::lock_guard<std::mutex> lock(ctx->mu);
    const FilterCounters& c = ctx->totals;
    PutVarint64(&bytes, c.pairs_considered);
    PutVarint64(&bytes, c.pruned_role);
    PutVarint64(&bytes, c.pruned_strl);
    PutVarint64(&bytes, c.pruned_segl);
    PutVarint64(&bytes, c.pruned_segi);
    PutVarint64(&bytes, c.pruned_segd);
    PutVarint64(&bytes, c.empty_overlap);
    PutVarint64(&bytes, c.emitted);
    PutVarint64(&bytes, ctx->captured_partials.size());
    for (const PartialOverlap& p : ctx->captured_partials) {
      PutVarint32(&bytes, p.a);
      PutVarint32(&bytes, p.b);
      PutVarint32(&bytes, p.size_a);
      PutVarint32(&bytes, p.size_b);
      PutVarint64(&bytes, p.overlap);
    }
    return bytes;
  };
  side.merge = [ctx](const std::string& bytes) -> Status {
    Decoder dec(bytes);
    FilterCounters c;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pairs_considered));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_role));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_strl));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_segl));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_segi));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.pruned_segd));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.empty_overlap));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&c.emitted));
    uint64_t num_partials = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&num_partials));
    std::vector<PartialOverlap> partials;
    partials.reserve(num_partials);
    for (uint64_t i = 0; i < num_partials; ++i) {
      PartialOverlap p;
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.a));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.b));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.size_a));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&p.size_b));
      FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&p.overlap));
      partials.push_back(p);
    }
    if (!dec.done()) {
      return Status::Corruption("trailing bytes in filtering side state");
    }
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->totals.Add(c);
    ctx->captured_partials.insert(ctx->captured_partials.end(),
                                  partials.begin(), partials.end());
    return Status::OK();
  };
  return side;
}

/// Fork-boundary channel for VerificationContext: candidate-pair count only.
mr::TaskSideChannel VerificationSideChannel(
    std::shared_ptr<VerificationContext> ctx) {
  mr::TaskSideChannel side;
  side.reset = [ctx] { ctx->candidate_pairs = 0; };
  side.capture = [ctx]() -> std::string {
    std::string bytes;
    std::lock_guard<std::mutex> lock(ctx->mu);
    PutVarint64(&bytes, ctx->candidate_pairs);
    return bytes;
  };
  side.merge = [ctx](const std::string& bytes) -> Status {
    Decoder dec(bytes);
    uint64_t count = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&count));
    if (!dec.done()) {
      return Status::Corruption("trailing bytes in verification side state");
    }
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->candidate_pairs += count;
    return Status::OK();
  };
  return side;
}

}  // namespace

mr::Dataset MakeCorpusDataset(const Corpus& corpus) {
  mr::Dataset dataset;
  dataset.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    mr::KeyValue kv;
    PutFixed32BE(&kv.key, rec.id);
    PutUint32Vector(&kv.value, rec.tokens);
    dataset.push_back(std::move(kv));
  }
  return dataset;
}

Status DecodeCorpusRecord(const mr::KeyValue& kv, RecordId* rid,
                          std::vector<TokenId>* tokens) {
  Decoder key_dec(kv.key);
  FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(rid));
  Decoder value_dec(kv.value);
  FSJOIN_RETURN_NOT_OK(value_dec.GetUint32Vector(tokens));
  return Status::OK();
}

mr::JobConfig MakeOrderingJobConfig(uint32_t num_map_tasks,
                                    uint32_t num_reduce_tasks) {
  mr::JobConfig config;
  config.name = "ordering";
  config.num_map_tasks = num_map_tasks;
  config.num_reduce_tasks = num_reduce_tasks;
  config.mapper_factory = [] { return std::make_unique<OrderingMapper>(); };
  config.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  config.combiner_factory = [] { return std::make_unique<SumReducer>(); };
  // Stateless operators: tasks of this job can run via binary re-exec.
  config.task_factory = "core.ordering";
  return config;
}

Result<GlobalOrder> BuildGlobalOrderFromJobOutput(const mr::Dataset& output,
                                                  size_t vocab_size) {
  std::vector<uint64_t> frequency(vocab_size, 0);
  for (const mr::KeyValue& kv : output) {
    Decoder key_dec(kv.key);
    uint32_t token = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&token));
    if (token >= vocab_size) {
      return Status::Internal("ordering output token outside vocabulary");
    }
    Decoder value_dec(kv.value);
    uint64_t count = 0;
    FSJOIN_RETURN_NOT_OK(value_dec.GetVarint64(&count));
    frequency[token] = count;
  }
  return GlobalOrder::FromFrequencies(std::move(frequency));
}

Result<std::shared_ptr<const GlobalOrder>> RunOrderingJob(
    exec::MapReduceBackend* backend, const mr::Dataset& input,
    size_t vocab_size) {
  const exec::ExecConfig& exec = backend->config();
  FSJOIN_ASSIGN_OR_RETURN(
      mr::Dataset frequencies,
      backend->Run(
          MakeOrderingJobConfig(exec.num_map_tasks, exec.num_reduce_tasks),
          input));
  FSJOIN_ASSIGN_OR_RETURN(
      GlobalOrder order,
      BuildGlobalOrderFromJobOutput(frequencies, vocab_size));
  return std::make_shared<const GlobalOrder>(std::move(order));
}

uint32_t FragmentPartitioner::Partition(std::string_view key,
                                        uint32_t num_partitions) const {
  Decoder dec(key);
  uint32_t h = 0, v = 0;
  if (!dec.GetFixed32BE(&h).ok() || !dec.GetFixed32BE(&v).ok()) {
    return static_cast<uint32_t>(Fnv1a64(key) % num_partitions);
  }
  return (h * num_vertical_ + v) % num_partitions;
}

mr::JobConfig MakeFilteringJobConfig(
    const std::shared_ptr<FilteringContext>& context) {
  mr::JobConfig config;
  config.name = "filtering";
  config.num_map_tasks = context->config.exec.num_map_tasks;
  config.num_reduce_tasks = context->config.exec.num_reduce_tasks;
  config.mapper_factory = [context] {
    return std::make_unique<FilteringMapper>(context);
  };
  config.reducer_factory = [context] {
    return std::make_unique<FilteringReducer>(context);
  };
  config.partitioner = std::make_shared<FragmentPartitioner>(
      context->config.num_vertical_partitions);
  config.side = FilteringSideChannel(context);
  return config;
}

mr::JobConfig MakeVerificationJobConfig(
    const std::shared_ptr<VerificationContext>& context) {
  mr::JobConfig config;
  config.name = "verification";
  config.num_map_tasks = context->config.exec.num_map_tasks;
  config.num_reduce_tasks = context->config.exec.num_reduce_tasks;
  config.mapper_factory = [] { return std::make_unique<IdentityMapper>(); };
  // No combiner: a pair's partial overlaps come from different fragments
  // (different filtering reducers), so map-side splits of the partials
  // dataset almost never hold two records of the same pair — a combiner
  // would only add sort cost.
  config.reducer_factory = [context] {
    return std::make_unique<VerificationReducer>(context);
  };
  config.side = VerificationSideChannel(context);
  return config;
}

Result<JoinResultSet> DecodeJoinResults(const mr::Dataset& output) {
  JoinResultSet results;
  results.reserve(output.size());
  for (const mr::KeyValue& kv : output) {
    Decoder key_dec(kv.key);
    uint32_t a = 0, b = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&a));
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&b));
    Decoder value_dec(kv.value);
    uint64_t bits = 0;
    FSJOIN_RETURN_NOT_OK(value_dec.GetFixed64BE(&bits));
    double sim = 0.0;
    std::memcpy(&sim, &bits, sizeof(sim));
    results.push_back(SimilarPair{a, b, sim});
  }
  NormalizeResult(&results);
  return results;
}

void EncodePartialOverlap(const PartialOverlap& partial, std::string* key,
                          std::string* value) {
  PutFixed32BE(key, partial.a);
  PutFixed32BE(key, partial.b);
  PutVarint64(value, partial.overlap);
  PutVarint64(value, partial.size_a);
  PutVarint64(value, partial.size_b);
}

}  // namespace fsjoin

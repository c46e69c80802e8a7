#include "core/jobs.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "core/segments.h"
#include "mr/task.h"
#include "util/serde.h"

namespace fsjoin {

namespace {

// ---- Filtering job -----------------------------------------------------

/// Splits each record into its segments and emits them once per length
/// group. Every buffer is per task and reused, so after warm-up a record
/// allocates nothing: the decoded token ids are overwritten by their ranks,
/// the splitter buckets them by fragment and sorts each bucket, and the
/// segments are encoded back to back into one value string whose slices
/// are emitted as views.
class FilteringMapper : public mr::Mapper {
 public:
  explicit FilteringMapper(std::shared_ptr<FilteringContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens_));

    // Map the record into the global ordering; the splitter sorts it
    // fragment by fragment (paper: mapper-side sort).
    const GlobalOrder& order = *ctx_->order;
    for (TokenId& t : tokens_) {
      if (t >= order.NumTokens()) {
        return Status::Internal("token id outside the global ordering");
      }
      t = order.RankOf(t);
    }
    splitter_.Split(tokens_.data(), tokens_.size(),
                    ctx_->fragment_of_rank.data(),
                    static_cast<uint32_t>(ctx_->pivots.size() + 1));

    const uint32_t len = static_cast<uint32_t>(tokens_.size());
    const TokenRank* ranks = splitter_.ranks().data();
    const std::vector<SegmentRun>& runs = splitter_.runs();
    values_.clear();
    value_ends_.clear();
    for (const SegmentRun& run : runs) {
      const TokenRank* begin = ranks + run.begin;
      const TokenRank* end = ranks + run.end;
      if (std::adjacent_find(begin, end) != end) {
        return Status::InvalidArgument("record " + std::to_string(rid) +
                                       " repeats a token");
      }
      EncodeSegment(SegmentView{rid, len, run.begin, begin,
                                run.end - run.begin},
                    &values_);
      value_ends_.push_back(values_.size());
    }

    ctx_->horizontal.GroupsOf(len, &groups_);
    for (uint32_t h : groups_) {
      size_t value_begin = 0;
      for (size_t i = 0; i < runs.size(); ++i) {
        key_.clear();
        PutFixed32BE(&key_, h);
        PutFixed32BE(&key_, runs[i].fragment);
        out->Emit(key_, std::string_view(values_).substr(
                            value_begin, value_ends_[i] - value_begin));
        value_begin = value_ends_[i];
      }
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<FilteringContext> ctx_;
  std::vector<TokenId> tokens_;  ///< decoded ids, then their ranks
  SegmentSplitter splitter_;
  std::vector<uint32_t> groups_;
  std::string key_;
  std::string values_;              ///< the record's encoded segments
  std::vector<size_t> value_ends_;  ///< end of each segment in values_
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

    const HorizontalScheme* horizontal = &ctx_->horizontal;
    // Same-side R-S pairs need no rule here: the side-tagged join loops
    // never enumerate them in the first place.
    opts.pair_allowed = [group, horizontal](const SegmentView& a,
                                            const SegmentView& b) {
      return a.rid != b.rid && horizontal->ShouldJoinInGroup(
                                   group, a.record_size, b.record_size);
    };
    opts.morsel_pool = ctx_->join_pool;

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
  VerificationReducer(SimilarityFunction function, double theta)
      : function_(function), theta_(theta) {}

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
    if (PassesThreshold(function_, total_overlap, size_a, size_b, theta_)) {
      double sim = ComputeSimilarity(function_, total_overlap, size_a, size_b);
      std::string value;
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(sim));
      std::memcpy(&bits, &sim, sizeof(bits));
      PutFixed64BE(&value, bits);
      out->Emit(key, std::move(value));
    }
    return Status::OK();
  }

 private:
  SimilarityFunction function_;
  double theta_;
};

/// Encodes the verification task payload: the similarity function as one
/// varint, then theta's IEEE-754 bits as Fixed64BE.
std::string EncodeVerificationPayload(SimilarityFunction function,
                                      double theta) {
  std::string payload;
  PutVarint64(&payload, static_cast<uint64_t>(function));
  uint64_t bits = 0;
  std::memcpy(&bits, &theta, sizeof(bits));
  PutFixed64BE(&payload, bits);
  return payload;
}

mr::TaskFactories VerificationFactories(SimilarityFunction function,
                                        double theta) {
  mr::TaskFactories factories;
  factories.mapper = [] { return std::make_unique<IdentityMapper>(); };
  factories.reducer = [function, theta] {
    return std::make_unique<VerificationReducer>(function, theta);
  };
  return factories;
}

/// Parses a verification payload. Trailing bytes, an unknown function and
/// a theta outside (0, 1] are each an error.
Result<mr::TaskFactories> DecodeVerificationPayload(
    std::string_view payload) {
  Decoder dec(payload);
  uint64_t function = 0, bits = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&function));
  FSJOIN_RETURN_NOT_OK(dec.GetFixed64BE(&bits));
  if (!dec.done()) {
    return Status::Corruption("verification payload: trailing bytes");
  }
  if (function > static_cast<uint64_t>(SimilarityFunction::kCosine)) {
    return Status::InvalidArgument("verification payload: unknown function " +
                                   std::to_string(function));
  }
  double theta = 0.0;
  std::memcpy(&theta, &bits, sizeof(theta));
  if (!(theta > 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument(
        "verification payload: theta outside (0, 1]");
  }
  return VerificationFactories(static_cast<SimilarityFunction>(function),
                               theta);
}

// ---- Task factories and side channels ----------------------------------

/// The verification job's operators depend only on its payload, so its
/// tasks can be described by a registered name and re-executed by a
/// re-execed --worker-task process or a cluster worker (mr/task.h). The
/// filtering job captures a driver-built shared context in its closures;
/// its tasks stay fork-only and report context mutations through the side
/// channel below.
[[maybe_unused]] const bool kVerificationFactoryRegistered =
    mr::RegisterTaskFactory("core.verification",
                            [](const std::string& payload) {
                              return DecodeVerificationPayload(payload);
                            });

/// Fork-boundary channel for FilteringContext: a child task starts from
/// zeroed counters and no morsel pool (a pool's threads do not survive
/// fork; joins run serially with byte-identical results), captures its
/// deltas as bytes, and the scheduler merges them into the parent's
/// context exactly once per logical task.
mr::TaskSideChannel FilteringSideChannel(
    std::shared_ptr<FilteringContext> ctx) {
  mr::TaskSideChannel side;
  side.reset = [ctx] {
    // The pool is borrowed, so the child just forgets it. The subprocess
    // runner lends none in the first place; this keeps the child serial
    // whatever context it was handed.
    ctx->join_pool = nullptr;
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

}  // namespace

mr::Dataset MakeCorpusDataset(const Corpus& corpus, ThreadPool* pool) {
  mr::Dataset dataset(corpus.records.size());
  auto encode = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Record& rec = corpus.records[i];
      PutFixed32BE(&dataset[i].key, rec.id);
      PutUint32Vector(&dataset[i].value, rec.tokens);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(dataset.size(), kCorpusRecordGrain, encode);
  } else {
    encode(0, dataset.size());
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
  context->fragment_of_rank =
      FragmentTable(context->pivots, context->order->NumTokens());
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

mr::JobConfig MakeVerificationJobConfig(SimilarityFunction function,
                                        double theta, uint32_t num_map_tasks,
                                        uint32_t num_reduce_tasks) {
  mr::TaskFactories factories = VerificationFactories(function, theta);
  mr::JobConfig config;
  config.name = "verification";
  config.num_map_tasks = num_map_tasks;
  config.num_reduce_tasks = num_reduce_tasks;
  config.mapper_factory = std::move(factories.mapper);
  config.reducer_factory = std::move(factories.reducer);
  // The payload rebuilds the same operators in another process.
  config.task_factory = "core.verification";
  config.task_payload = EncodeVerificationPayload(function, theta);
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

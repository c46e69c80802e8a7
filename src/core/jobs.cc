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

// ---- Ordering job ------------------------------------------------------

/// Parses the ordering task payload: the vocabulary size as one varint.
Result<size_t> DecodeOrderingPayload(std::string_view payload) {
  Decoder dec(payload);
  uint64_t vocab_size = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&vocab_size));
  if (!dec.done()) {
    return Status::Corruption("ordering payload: trailing bytes");
  }
  if (vocab_size > (uint64_t{1} << 32)) {
    return Status::InvalidArgument(
        "ordering payload: vocabulary exceeds the 32-bit token id space");
  }
  return static_cast<size_t>(vocab_size);
}

/// Collects the non-zero slots of one stripe's dense counters as entries.
template <typename Count>
void CollectStripe(uint32_t stripe, const Count* slots,
                   std::vector<StripeEntry>* entries) {
  entries->clear();
  const TokenId base = stripe * kOrderingStripeWidth;
  for (uint32_t i = 0; i < kOrderingStripeWidth; ++i) {
    if (slots[i] != 0) entries->push_back(StripeEntry{base + i, slots[i]});
  }
}

/// Counts the task's token ids in dense per-stripe counters, allocated on
/// first touch, and emits one record per touched stripe from Finish.
class OrderingMapper : public mr::Mapper {
 public:
  explicit OrderingMapper(size_t vocab_size)
      : vocab_size_(vocab_size),
        stripes_((vocab_size + kOrderingStripeWidth - 1) /
                 kOrderingStripeWidth) {}

  Status Map(const mr::KeyValue& record, mr::Emitter* /*out*/) override {
    RecordId rid = 0;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens_));
    for (size_t i = 0; i < tokens_.size(); ++i) {
      const TokenId t = tokens_[i];
      // Records are sorted sets; an adjacent repeat counts once.
      if (i > 0 && t == tokens_[i - 1]) continue;
      if (t >= vocab_size_) {
        return Status::InvalidArgument(
            "ordering: token id " + std::to_string(t) +
            " outside the vocabulary of " + std::to_string(vocab_size_));
      }
      std::unique_ptr<uint32_t[]>& slots = stripes_[t / kOrderingStripeWidth];
      if (slots == nullptr) {
        slots = std::make_unique<uint32_t[]>(kOrderingStripeWidth);
      }
      ++slots[t % kOrderingStripeWidth];
    }
    return Status::OK();
  }

  Status Finish(mr::Emitter* out) override {
    std::vector<StripeEntry> entries;
    std::string key, value;
    for (size_t s = 0; s < stripes_.size(); ++s) {
      if (stripes_[s] == nullptr) continue;
      CollectStripe(static_cast<uint32_t>(s), stripes_[s].get(), &entries);
      key.clear();
      value.clear();
      EncodeOrderingStripe(static_cast<uint32_t>(s), entries, &key, &value);
      out->Emit(key, value);
    }
    return Status::OK();
  }

 private:
  size_t vocab_size_;
  std::vector<TokenId> tokens_;  ///< decode buffer reused across records
  std::vector<std::unique_ptr<uint32_t[]>> stripes_;
};

/// Sums every value of one stripe key into a dense accumulator and emits
/// the summed stripe.
class StripeSumReducer : public mr::Reducer {
 public:
  explicit StripeSumReducer(size_t vocab_size)
      : vocab_size_(vocab_size), sums_(kOrderingStripeWidth, 0) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    std::fill(sums_.begin(), sums_.end(), 0);
    uint32_t stripe = 0;
    for (std::string_view v : values) {
      FSJOIN_RETURN_NOT_OK(
          DecodeOrderingStripe(key, v, vocab_size_, &stripe, &entries_));
      for (const StripeEntry& e : entries_) {
        sums_[e.id % kOrderingStripeWidth] += e.count;
      }
    }
    CollectStripe(stripe, sums_.data(), &entries_);
    std::string out_key, out_value;
    EncodeOrderingStripe(stripe, entries_, &out_key, &out_value);
    out->Emit(out_key, out_value);
    return Status::OK();
  }

 private:
  size_t vocab_size_;
  std::vector<uint64_t> sums_;
  std::vector<StripeEntry> entries_;
};

mr::TaskFactories OrderingFactories(size_t vocab_size) {
  mr::TaskFactories factories;
  factories.mapper = [vocab_size] {
    return std::make_unique<OrderingMapper>(vocab_size);
  };
  factories.reducer = [vocab_size] {
    return std::make_unique<StripeSumReducer>(vocab_size);
  };
  return factories;
}

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

/// The ordering job's operators depend only on the vocabulary size, which
/// travels in the task payload, so its tasks can be described by a
/// registered name and re-executed by a re-execed --worker-task process or
/// a cluster worker (mr/task.h). The filtering and verification jobs
/// capture driver-built shared contexts in their closures; their tasks stay
/// fork-only and report context mutations through the side channels below.
[[maybe_unused]] const bool kOrderingFactoryRegistered =
    mr::RegisterTaskFactory(
        "core.ordering",
        [](const std::string& payload) -> Result<mr::TaskFactories> {
          FSJOIN_ASSIGN_OR_RETURN(size_t vocab_size,
                                  DecodeOrderingPayload(payload));
          return OrderingFactories(vocab_size);
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

void EncodeOrderingStripe(uint32_t stripe,
                          const std::vector<StripeEntry>& entries,
                          std::string* key, std::string* value) {
  PutFixed32BE(key, stripe);
  PutVarint64(value, entries.size());
  TokenId prev = stripe * kOrderingStripeWidth;
  for (const StripeEntry& e : entries) {
    PutVarint32(value, e.id - prev);
    PutVarint64(value, e.count);
    prev = e.id;
  }
}

Status DecodeOrderingStripe(std::string_view key, std::string_view value,
                            size_t vocab_size, uint32_t* stripe,
                            std::vector<StripeEntry>* entries) {
  entries->clear();
  Decoder key_dec(key);
  FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(stripe));
  if (!key_dec.done()) {
    return Status::Corruption("ordering stripe: key longer than 4 bytes");
  }
  const uint64_t begin = uint64_t{*stripe} * kOrderingStripeWidth;
  Decoder dec(value);
  uint64_t n = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&n));
  if (n > kOrderingStripeWidth) {
    return Status::Corruption("ordering stripe: " + std::to_string(n) +
                              " entries exceed the stripe width");
  }
  entries->reserve(n);
  uint64_t id = begin;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = 0, count = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&delta));
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&count));
    if (i > 0 && delta == 0) {
      return Status::Corruption("ordering stripe: ids do not ascend");
    }
    if (delta >= kOrderingStripeWidth ||
        id + delta >= begin + kOrderingStripeWidth) {
      return Status::Corruption("ordering stripe: id outside stripe " +
                                std::to_string(*stripe));
    }
    id += delta;
    if (id >= vocab_size) {
      return Status::Corruption("ordering stripe: token id " +
                                std::to_string(id) +
                                " outside the vocabulary of " +
                                std::to_string(vocab_size));
    }
    entries->push_back(StripeEntry{static_cast<TokenId>(id), count});
  }
  if (!dec.done()) {
    return Status::Corruption("ordering stripe: trailing bytes");
  }
  return Status::OK();
}

mr::JobConfig MakeOrderingJobConfig(uint32_t num_map_tasks,
                                    uint32_t num_reduce_tasks,
                                    size_t vocab_size) {
  mr::TaskFactories factories = OrderingFactories(vocab_size);
  mr::JobConfig config;
  config.name = "ordering";
  config.num_map_tasks = num_map_tasks;
  config.num_reduce_tasks = num_reduce_tasks;
  config.mapper_factory = std::move(factories.mapper);
  config.reducer_factory = std::move(factories.reducer);
  // The payload rebuilds the same operators in another process.
  config.task_factory = "core.ordering";
  PutVarint64(&config.task_payload, vocab_size);
  return config;
}

Result<GlobalOrder> BuildGlobalOrderFromJobOutput(const mr::Dataset& output,
                                                  size_t vocab_size) {
  std::vector<uint64_t> frequency(vocab_size, 0);
  std::vector<StripeEntry> entries;
  uint32_t stripe = 0;
  for (const mr::KeyValue& kv : output) {
    FSJOIN_RETURN_NOT_OK(DecodeOrderingStripe(kv.key, kv.value, vocab_size,
                                              &stripe, &entries));
    for (const StripeEntry& e : entries) frequency[e.id] += e.count;
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
          MakeOrderingJobConfig(exec.num_map_tasks, exec.num_reduce_tasks,
                                vocab_size),
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

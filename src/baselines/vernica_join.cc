#include "baselines/vernica_join.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

#include "core/jobs.h"
#include "exec/backend.h"
#include "sim/global_order.h"
#include "sim/set_ops.h"
#include "util/serde.h"
#include "util/timer.h"

namespace fsjoin {

namespace {

struct VernicaContext {
  BaselineConfig config;
  std::shared_ptr<const GlobalOrder> order;
  std::shared_ptr<EmissionBudget> budget;

  std::mutex mu;
  uint64_t candidate_pairs = 0;
};

void EncodeRankedRecord(RecordId rid, const std::vector<TokenRank>& ranks,
                        std::string* out) {
  PutVarint32(out, rid);
  PutUint32Vector(out, ranks);
}

Status DecodeRankedRecord(std::string_view data, OrderedRecord* rec) {
  Decoder dec(data);
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&rec->id));
  FSJOIN_RETURN_NOT_OK(dec.GetUint32Vector(&rec->tokens));
  return Status::OK();
}

/// Map phase of the kernel: one copy of the record per prefix token.
class KernelMapper : public mr::Mapper {
 public:
  explicit KernelMapper(std::shared_ptr<VernicaContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Map(const mr::KeyValue& record, mr::Emitter* out) override {
    RecordId rid = 0;
    std::vector<TokenId> tokens;
    FSJOIN_RETURN_NOT_OK(DecodeCorpusRecord(record, &rid, &tokens));
    std::vector<TokenRank> ranks;
    ranks.reserve(tokens.size());
    for (TokenId t : tokens) ranks.push_back(ctx_->order->RankOf(t));
    std::sort(ranks.begin(), ranks.end());

    const uint64_t prefix =
        PrefixLength(ctx_->config.function, ctx_->config.theta, ranks.size());
    FSJOIN_RETURN_NOT_OK(ctx_->budget->Consume(prefix));
    std::string value;
    EncodeRankedRecord(rid, ranks, &value);
    for (uint64_t p = 0; p < prefix; ++p) {
      std::string key;
      PutFixed32BE(&key, ranks[p]);
      out->Emit(std::move(key), value);
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<VernicaContext> ctx_;
};

/// Reduce phase: join the records sharing one prefix token.
class KernelReducer : public mr::Reducer {
 public:
  explicit KernelReducer(std::shared_ptr<VernicaContext> ctx)
      : ctx_(std::move(ctx)) {}

  Status Reduce(std::string_view key, mr::ValueList values,
                mr::Emitter* out) override {
    Decoder key_dec(key);
    uint32_t group_token = 0;
    FSJOIN_RETURN_NOT_OK(key_dec.GetFixed32BE(&group_token));

    std::vector<OrderedRecord> group;
    group.reserve(values.size());
    for (std::string_view v : values) {
      OrderedRecord rec;
      FSJOIN_RETURN_NOT_OK(DecodeRankedRecord(v, &rec));
      group.push_back(std::move(rec));
    }
    // Length-sorted group enables the PPJoin-style sliding length window.
    const auto by_size = [](const OrderedRecord& a, const OrderedRecord& b) {
      if (a.Size() != b.Size()) return a.Size() < b.Size();
      return a.id < b.id;
    };
    std::sort(group.begin(), group.end(), by_size);

    const SimilarityFunction fn = ctx_->config.function;
    const double theta = ctx_->config.theta;
    uint64_t local_candidates = 0;
    const auto verify_emit = [&](const OrderedRecord& s,
                                 const OrderedRecord& t) {
      ++local_candidates;
      const uint64_t required = MinOverlap(fn, theta, s.Size(), t.Size());
      const uint64_t c = SortedOverlapAtLeast(s.tokens, t.tokens, required);
      if (c == 0) return;
      if (!PassesThreshold(fn, c, s.Size(), t.Size(), theta)) return;
      std::string out_key, out_value;
      PutFixed32BE(&out_key, std::min(s.id, t.id));
      PutFixed32BE(&out_key, std::max(s.id, t.id));
      double sim = ComputeSimilarity(fn, c, s.Size(), t.Size());
      uint64_t bits = 0;
      std::memcpy(&bits, &sim, sizeof(bits));
      PutFixed64BE(&out_value, bits);
      out->Emit(std::move(out_key), std::move(out_value));
    };
    if (ctx_->config.rs_boundary.has_value()) {
      // R-S: split the group by side and slide each R probe over the S
      // window its length filter allows. Same-side pairs are never formed;
      // the longer record no longer follows the probe in sort order, so the
      // window needs the lower partner bound too, not just the upper.
      const RecordId boundary = *ctx_->config.rs_boundary;
      std::vector<OrderedRecord> probe, build;
      for (OrderedRecord& rec : group) {
        (rec.id < boundary ? probe : build).push_back(std::move(rec));
      }
      for (const OrderedRecord& s : probe) {
        const uint64_t min_partner = PartnerSizeLowerBound(fn, theta,
                                                           s.Size());
        const uint64_t max_partner = PartnerSizeUpperBound(fn, theta,
                                                           s.Size());
        auto it = std::lower_bound(
            build.begin(), build.end(), min_partner,
            [](const OrderedRecord& t, uint64_t bound) {
              return t.Size() < bound;
            });
        for (; it != build.end(); ++it) {
          const OrderedRecord& t = *it;
          if (t.Size() > max_partner) break;  // build sorted by size
          if (FirstCommonPrefixToken(s, t) != group_token) {
            continue;  // this pair is handled by another group (dedup rule)
          }
          verify_emit(s, t);
        }
      }
    } else {
      for (size_t i = 0; i < group.size(); ++i) {
        const OrderedRecord& s = group[i];
        const uint64_t max_partner =
            PartnerSizeUpperBound(fn, theta, s.Size());
        for (size_t j = i + 1; j < group.size(); ++j) {
          const OrderedRecord& t = group[j];
          if (t.Size() > max_partner) break;  // group sorted by size
          if (s.id == t.id) continue;
          if (FirstCommonPrefixToken(s, t) != group_token) {
            continue;  // this pair is handled by another group (dedup rule)
          }
          verify_emit(s, t);
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(ctx_->mu);
      ctx_->candidate_pairs += local_candidates;
    }
    return Status::OK();
  }

 private:
  /// Smallest rank common to both records' prefixes; UINT32_MAX if none.
  uint32_t FirstCommonPrefixToken(const OrderedRecord& a,
                                  const OrderedRecord& b) const {
    const uint64_t pa =
        PrefixLength(ctx_->config.function, ctx_->config.theta, a.Size());
    const uint64_t pb =
        PrefixLength(ctx_->config.function, ctx_->config.theta, b.Size());
    size_t i = 0, j = 0;
    while (i < pa && j < pb) {
      if (a.tokens[i] == b.tokens[j]) return a.tokens[i];
      if (a.tokens[i] < b.tokens[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    return UINT32_MAX;
  }

  std::shared_ptr<VernicaContext> ctx_;
};

}  // namespace

Result<BaselineOutput> RunVernicaJoin(const Corpus& corpus,
                                      const BaselineConfig& config) {
  FSJOIN_RETURN_NOT_OK(config.Validate());
  WallTimer timer;

  exec::MapReduceBackend backend(config.exec);
  mr::Dataset input = MakeCorpusDataset(corpus, backend.pool());

  auto ctx = std::make_shared<VernicaContext>();
  ctx->config = config;
  ctx->budget = std::make_shared<EmissionBudget>(config.exec.emission_limit);
  // Stage 1's token order, from the dictionary's document frequencies
  // like FS-Join's.
  ctx->order =
      std::make_shared<const GlobalOrder>(GlobalOrder::FromCorpus(corpus));

  // RID-pairs kernel. The candidate counter crosses fork-isolated reduce
  // tasks through the job's side channel. The input moves into a
  // temporary, freed as soon as the job returns.
  mr::JobConfig kernel;
  kernel.name = "vernica-kernel";
  kernel.num_map_tasks = config.exec.num_map_tasks;
  kernel.num_reduce_tasks = config.exec.num_reduce_tasks;
  kernel.mapper_factory = [ctx] {
    return std::make_unique<KernelMapper>(ctx);
  };
  kernel.reducer_factory = [ctx] {
    return std::make_unique<KernelReducer>(ctx);
  };
  kernel.side.reset = [ctx] { ctx->candidate_pairs = 0; };
  kernel.side.capture = [ctx]() -> std::string {
    std::string bytes;
    std::lock_guard<std::mutex> lock(ctx->mu);
    PutVarint64(&bytes, ctx->candidate_pairs);
    return bytes;
  };
  kernel.side.merge = [ctx](const std::string& bytes) -> Status {
    Decoder dec(bytes);
    uint64_t count = 0;
    FSJOIN_RETURN_NOT_OK(dec.GetVarint64(&count));
    std::lock_guard<std::mutex> lock(ctx->mu);
    ctx->candidate_pairs += count;
    return Status::OK();
  };
  FSJOIN_ASSIGN_OR_RETURN(
      mr::Dataset results,
      backend.Run(kernel, mr::Dataset(std::move(input))));

  BaselineOutput output;
  FSJOIN_ASSIGN_OR_RETURN(output.pairs, DecodeJoinResults(results));
  output.report.algorithm = "RIDPairsPPJoin";
  output.report.jobs = backend.history();
  output.report.signature_stage = "vernica-kernel";
  output.report.candidate_pairs = ctx->candidate_pairs;
  output.report.result_pairs = output.pairs.size();
  output.report.total_wall_ms = timer.ElapsedMillis();
  return output;
}

}  // namespace fsjoin

// Microbenchmarks (google-benchmark) for the hot kernels under everything:
// sorted-set operations, serde, Zipf sampling, prefix math, segment
// splitting, the fragment join and corpus ingest.
//
// Two modes:
//   (default)        google-benchmark suite, standard --benchmark_* flags.
//   --json[=PATH]    focused kernel comparison written as BENCH_kernels.json
//                    (scalar vs galloping vs word-packed vs SIMD overlap on
//                    short segments, bounded overlap under the SegI bound,
//                    mid-length block merge, container kernels; serial vs
//                    morsel-parallel JoinFragment on a skewed fragment set;
//                    the filtering reducer's fragment build at three sizes;
//                    corpus ingest, serial and default).
//                    Prints the detected SIMD ISA. Honors --warmup/--repeat.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/fragment_join.h"
#include "core/pivots.h"
#include "core/segments.h"
#include "sim/set_ops.h"
#include "sim/similarity.h"
#include "text/corpus.h"
#include "text/generator.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace fsjoin {
namespace {

std::vector<uint32_t> RandomSortedSet(Rng& rng, size_t n, uint32_t domain) {
  std::vector<uint32_t> v;
  v.reserve(n);
  while (v.size() < n) v.push_back(static_cast<uint32_t>(rng.NextBounded(domain)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

void BM_SortedOverlap(benchmark::State& state) {
  Rng rng(1);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 20);
  auto b = RandomSortedSet(rng, state.range(0), 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedOverlap(a, b));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_SortedOverlap)->Arg(64)->Arg(512)->Arg(4096);

// Skewed pair: a `small`-element probe set against one `small * skew`
// elements long. Compares the linear merge, the galloping probe, and the
// dispatching SortedOverlap across the crossover region.
void BM_OverlapSkewedLinear(benchmark::State& state) {
  Rng rng(7);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 22);
  auto b = RandomSortedSet(rng, state.range(0) * state.range(1), 1 << 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LinearOverlap(a, b));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_OverlapSkewedLinear)
    ->Args({64, 8})
    ->Args({64, 64})
    ->Args({64, 512});

void BM_OverlapSkewedGalloping(benchmark::State& state) {
  Rng rng(7);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 22);
  auto b = RandomSortedSet(rng, state.range(0) * state.range(1), 1 << 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GallopingOverlap(a, b));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_OverlapSkewedGalloping)
    ->Args({64, 8})
    ->Args({64, 64})
    ->Args({64, 512});

void BM_OverlapSkewedDispatch(benchmark::State& state) {
  Rng rng(7);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 22);
  auto b = RandomSortedSet(rng, state.range(0) * state.range(1), 1 << 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedOverlap(a, b));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_OverlapSkewedDispatch)
    ->Args({64, 8})
    ->Args({64, 64})
    ->Args({64, 512});

void BM_SortedOverlapAtLeast(benchmark::State& state) {
  Rng rng(2);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 20);
  auto b = a;
  for (size_t i = 0; i < b.size(); i += 3) b[i] += 1;  // ~2/3 overlap
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  const uint64_t required = a.size() * 9 / 10;  // unreachable -> early exit
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedOverlapAtLeast(a, b, required));
  }
}
BENCHMARK(BM_SortedOverlapAtLeast)->Arg(512)->Arg(4096);

void BM_VarintRoundTrip(benchmark::State& state) {
  std::vector<uint32_t> values(1024);
  Rng rng(3);
  for (auto& v : values) v = static_cast<uint32_t>(rng.Next());
  for (auto _ : state) {
    std::string buf;
    PutUint32Vector(&buf, values);
    std::vector<uint32_t> out;
    Decoder dec(buf);
    benchmark::DoNotOptimize(dec.GetUint32Vector(&out));
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_VarintRoundTrip);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(4);
  ZipfSampler zipf(static_cast<uint64_t>(state.range(0)), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(10000)->Arg(1000000);

void BM_MinOverlap(benchmark::State& state) {
  uint64_t a = 80, b = 95;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinOverlap(SimilarityFunction::kJaccard, 0.8, a, b));
    a = (a % 200) + 1;
    b = (b % 180) + 1;
  }
}
BENCHMARK(BM_MinOverlap);

void BM_SplitIntoSegments(benchmark::State& state) {
  Rng rng(5);
  OrderedRecord rec{0, RandomSortedSet(rng, 256, 1 << 16)};
  std::vector<TokenRank> pivots;
  for (int i = 1; i < 30; ++i) pivots.push_back((i << 16) / 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitIntoSegments(rec, pivots));
  }
}
BENCHMARK(BM_SplitIntoSegments);

void BM_FragmentJoin(benchmark::State& state) {
  Rng rng(6);
  std::vector<SegmentRecord> fragment;
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    SegmentRecord seg;
    seg.rid = i;
    seg.tokens = RandomSortedSet(rng, 12, 4096);
    seg.head = 30;
    seg.record_size = 30 + static_cast<uint32_t>(seg.tokens.size()) + 30;
    fragment.push_back(std::move(seg));
  }
  FragmentJoinOptions opts;
  opts.theta = 0.8;
  opts.method = static_cast<JoinMethod>(state.range(1));
  for (auto _ : state) {
    std::vector<PartialOverlap> out;
    FilterCounters counters;
    JoinFragment(fragment, opts, &out, &counters);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FragmentJoin)
    ->Args({200, 0})   // loop
    ->Args({200, 1})   // index
    ->Args({200, 2})   // prefix
    ->Args({1000, 2});  // prefix, larger fragment

// Short segments (vertical partitioning leaves most segments a handful of
// tokens) with fragment-local bucket bitmaps precomputed once, as
// SegmentBatch::Seal does. With 4-token segments over 64 buckets ~3/4 of
// random pairs are rejected by the single AND.
struct ShortSegments {
  std::vector<std::vector<uint32_t>> sets;
  std::vector<uint64_t> bitmaps;
};

ShortSegments MakeShortSegments(Rng& rng, size_t count, size_t len,
                                uint32_t domain) {
  ShortSegments s;
  const uint32_t shift = BitmapShiftForSpan(domain);
  for (size_t i = 0; i < count; ++i) {
    std::vector<uint32_t> v = RandomSortedSet(rng, len, domain);
    s.bitmaps.push_back(TokenBitmap(v.data(), v.size(), 0, shift));
    s.sets.push_back(std::move(v));
  }
  return s;
}

void BM_OverlapShortScalar(benchmark::State& state) {
  Rng rng(42);
  ShortSegments s = MakeShortSegments(rng, 1024, state.range(0), 1024);
  size_t i = 0, j = 1;
  for (auto _ : state) {
    const auto& a = s.sets[i];
    const auto& b = s.sets[j];
    benchmark::DoNotOptimize(
        LinearOverlap(a.data(), a.size(), b.data(), b.size()));
    i = (i + 1) & 1023;
    j = (j + 7) & 1023;
  }
}
BENCHMARK(BM_OverlapShortScalar)->Arg(4)->Arg(8)->Arg(16);

void BM_OverlapShortGalloping(benchmark::State& state) {
  Rng rng(42);
  ShortSegments s = MakeShortSegments(rng, 1024, state.range(0), 1024);
  size_t i = 0, j = 1;
  for (auto _ : state) {
    const auto& a = s.sets[i];
    const auto& b = s.sets[j];
    benchmark::DoNotOptimize(
        GallopingOverlap(a.data(), a.size(), b.data(), b.size()));
    i = (i + 1) & 1023;
    j = (j + 7) & 1023;
  }
}
BENCHMARK(BM_OverlapShortGalloping)->Arg(4)->Arg(8)->Arg(16);

void BM_OverlapShortPacked(benchmark::State& state) {
  Rng rng(42);
  ShortSegments s = MakeShortSegments(rng, 1024, state.range(0), 1024);
  size_t i = 0, j = 1;
  for (auto _ : state) {
    const auto& a = s.sets[i];
    const auto& b = s.sets[j];
    benchmark::DoNotOptimize(PackedOverlap(a.data(), a.size(), s.bitmaps[i],
                                           b.data(), b.size(), s.bitmaps[j]));
    i = (i + 1) & 1023;
    j = (j + 7) & 1023;
  }
}
BENCHMARK(BM_OverlapShortPacked)->Arg(4)->Arg(8)->Arg(16);

void BM_OverlapShortSimd(benchmark::State& state) {
  Rng rng(42);
  ShortSegments s = MakeShortSegments(rng, 1024, state.range(0), 1024);
  size_t i = 0, j = 1;
  for (auto _ : state) {
    const auto& a = s.sets[i];
    const auto& b = s.sets[j];
    benchmark::DoNotOptimize(
        SimdOverlap(a.data(), a.size(), b.data(), b.size()));
    i = (i + 1) & 1023;
    j = (j + 7) & 1023;
  }
}
BENCHMARK(BM_OverlapShortSimd)->Arg(4)->Arg(8)->Arg(16);

// Mid-length balanced sets: the 8-rotation AVX2 block merge against the
// scalar merge and the galloping probe (galloping degenerates when neither
// side is much longer).
void BM_OverlapMid(benchmark::State& state) {
  Rng rng(9);
  auto a = RandomSortedSet(rng, 512, 1 << 14);
  auto b = RandomSortedSet(rng, 512, 1 << 14);
  const int kernel = static_cast<int>(state.range(0));
  for (auto _ : state) {
    uint64_t r;
    if (kernel == 0) {
      r = LinearOverlap(a.data(), a.size(), b.data(), b.size());
    } else if (kernel == 1) {
      r = GallopingOverlap(a.data(), a.size(), b.data(), b.size());
    } else {
      r = SimdOverlap(a.data(), a.size(), b.data(), b.size());
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_OverlapMid)->Arg(0)->Arg(1)->Arg(2);

void BM_OverlapSkewedSimd(benchmark::State& state) {
  Rng rng(7);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 22);
  auto b = RandomSortedSet(rng, state.range(0) * state.range(1), 1 << 22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimdOverlap(a.data(), a.size(), b.data(), b.size()));
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_OverlapSkewedSimd)
    ->Args({64, 8})
    ->Args({64, 64})
    ->Args({64, 512});

// Bounded early exit with an unreachable SegI bound (~2/3 real overlap,
// required at 90%): the kernel may bail as soon as the bound is provably
// unreachable.
void BM_SimdOverlapBounded(benchmark::State& state) {
  Rng rng(2);
  auto a = RandomSortedSet(rng, state.range(0), 1 << 20);
  auto b = a;
  for (size_t i = 0; i < b.size(); i += 3) b[i] += 1;
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  const uint64_t required = a.size() * 9 / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimdOverlapBounded(a.data(), a.size(), b.data(), b.size(), required));
  }
}
BENCHMARK(BM_SimdOverlapBounded)->Arg(512)->Arg(4096);

void BM_FragmentJoinMorsel(benchmark::State& state) {
  Rng rng(6);
  std::vector<SegmentRecord> fragment;
  for (uint32_t i = 0; i < static_cast<uint32_t>(state.range(0)); ++i) {
    SegmentRecord seg;
    seg.rid = i;
    seg.tokens = RandomSortedSet(rng, 12, 4096);
    seg.head = 30;
    seg.record_size = 30 + static_cast<uint32_t>(seg.tokens.size()) + 30;
    fragment.push_back(std::move(seg));
  }
  ThreadPool pool(static_cast<size_t>(state.range(1)));
  FragmentJoinOptions opts;
  opts.theta = 0.8;
  opts.morsel_pool = &pool;
  opts.morsel_size = 64;
  for (auto _ : state) {
    std::vector<PartialOverlap> out;
    FilterCounters counters;
    JoinFragment(fragment, opts, &out, &counters);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FragmentJoinMorsel)
    ->Args({1000, 0})   // inline morsels (scheduling overhead floor)
    ->Args({1000, 4})
    ->Args({1000, 8});

// Shuffle values of one fragment: n EncodeSegment payloads of ~12 tokens.
std::vector<std::string> EncodedFragmentValues(size_t n) {
  Rng rng(11);
  std::vector<std::string> values(n);
  for (size_t i = 0; i < n; ++i) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(i);
    seg.tokens = RandomSortedSet(rng, 12, 4096);
    seg.head = 30;
    seg.record_size = 30 + static_cast<uint32_t>(seg.tokens.size()) + 30;
    EncodeSegment(seg, &values[i]);
  }
  return values;
}

// The filtering reducer's fragment build: one Reserve sized from the
// segment headers, AppendEncoded per shuffle value, then Seal. Its cost
// must grow linearly in the fragment size.
SegmentBatch BuildFragmentBatch(const std::vector<std::string>& values) {
  size_t num_tokens = 0;
  for (const std::string& v : values) num_tokens += EncodedSegmentTokens(v);
  SegmentBatch batch;
  batch.Reserve(values.size(), num_tokens);
  for (const std::string& v : values) {
    if (!batch.AppendEncoded(v).ok()) std::abort();
  }
  batch.Seal();
  return batch;
}

void BM_FragmentBatchBuild(benchmark::State& state) {
  const std::vector<std::string> values =
      EncodedFragmentValues(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    SegmentBatch batch = BuildFragmentBatch(values);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FragmentBatchBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CorpusGeneration(benchmark::State& state) {
  for (auto _ : state) {
    SyntheticCorpusConfig cfg = WikiLikeConfig(0.02);
    benchmark::DoNotOptimize(GenerateCorpus(cfg));
  }
}
BENCHMARK(BM_CorpusGeneration);

// Ingest input: PubMed-like text lines, the generated corpus rendered as
// "t<id>" words as the repository benchmark's input is.
const std::vector<std::string>& PubMedLines() {
  static const std::vector<std::string> lines = [] {
    const Corpus corpus = GenerateCorpus(PubMedLikeConfig(0.25));
    std::vector<std::string> out;
    for (const Record& record : corpus.records) {
      std::string line;
      for (const TokenId t : record.tokens) {
        if (!line.empty()) line += ' ';
        line += corpus.dictionary.TokenString(t);
      }
      out.push_back(std::move(line));
    }
    return out;
  }();
  return lines;
}

// BuildCorpus with the word tokenizer. Arg 0 is the serial path (one
// partition); arg 1 the default, which interns by hash partition on up to
// hardware_concurrency() threads.
Corpus BuildPubMed(int64_t path) {
  const WordTokenizer tokenizer;
  return path == 0 ? internal::BuildCorpusSharded(PubMedLines(), tokenizer, 1)
                   : BuildCorpus(PubMedLines(), tokenizer);
}

// Items are tokens, so the rate reads as tokens per second.
void BM_BuildCorpus(benchmark::State& state) {
  PubMedLines();  // generate the input outside the timed loop
  uint64_t tokens = 0;
  for (auto _ : state) {
    Corpus corpus = BuildPubMed(state.range(0));
    tokens = corpus.TotalTokens();
    benchmark::DoNotOptimize(corpus);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(tokens));
}
BENCHMARK(BM_BuildCorpus)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// ---- --json mode: focused kernel comparison -------------------------------

// Sum of pairwise overlaps over a fixed pair schedule — identical work for
// every kernel, and the checksum doubles as an equality check between them.
template <typename OverlapFn>
uint64_t SweepPairs(const ShortSegments& s, size_t pairs, OverlapFn&& fn) {
  uint64_t sum = 0;
  const size_t n = s.sets.size();
  size_t i = 0, j = 1;
  for (size_t p = 0; p < pairs; ++p) {
    sum += fn(i, j);
    i = i + 1 == n ? 0 : i + 1;
    j = j + 7 >= n ? (j + 7) - n : j + 7;
  }
  return sum;
}

// Skewed fragment set: one oversized fragment plus a tail of small ones —
// the shape that stalls a reduce wave without morsel parallelism.
std::vector<std::vector<SegmentRecord>> MakeSkewedFragments(Rng& rng) {
  std::vector<std::vector<SegmentRecord>> fragments;
  auto make_fragment = [&rng](uint32_t n) {
    std::vector<SegmentRecord> fragment;
    for (uint32_t i = 0; i < n; ++i) {
      SegmentRecord seg;
      seg.rid = i;
      seg.tokens = RandomSortedSet(rng, 12, 4096);
      seg.head = 30;
      seg.record_size = 30 + static_cast<uint32_t>(seg.tokens.size()) + 30;
      fragment.push_back(std::move(seg));
    }
    return fragment;
  };
  fragments.push_back(make_fragment(2600));  // the straggler
  for (int f = 0; f < 20; ++f) fragments.push_back(make_fragment(50));
  return fragments;
}

}  // namespace

int RunKernelComparison(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseBenchOptions("kernels", argc, argv);
  std::vector<bench::BenchRecord> records;
  std::printf("simd: isa=%s (kernels %s)\n", SimdIsaName(DetectedSimdIsa()),
              SimdAvailable() ? "vectorized" : "scalar fallback");

  // 1) Overlap kernels on short segments (4 tokens, 1024-rank fragment).
  Rng rng(42);
  const ShortSegments s = MakeShortSegments(rng, 4096, 4, 1024);
  const size_t kPairs = 2'000'000;
  uint64_t check_scalar = 0, check_gallop = 0, check_packed = 0;
  const double scalar_us = bench::MinWallMicros(options, [&] {
    check_scalar = SweepPairs(s, kPairs, [&s](size_t i, size_t j) {
      return LinearOverlap(s.sets[i].data(), s.sets[i].size(),
                           s.sets[j].data(), s.sets[j].size());
    });
  });
  const double gallop_us = bench::MinWallMicros(options, [&] {
    check_gallop = SweepPairs(s, kPairs, [&s](size_t i, size_t j) {
      return GallopingOverlap(s.sets[i].data(), s.sets[i].size(),
                              s.sets[j].data(), s.sets[j].size());
    });
  });
  const double packed_us = bench::MinWallMicros(options, [&] {
    check_packed = SweepPairs(s, kPairs, [&s](size_t i, size_t j) {
      return PackedOverlap(s.sets[i].data(), s.sets[i].size(), s.bitmaps[i],
                           s.sets[j].data(), s.sets[j].size(), s.bitmaps[j]);
    });
  });
  if (check_scalar != check_gallop || check_scalar != check_packed) {
    std::fprintf(stderr, "kernel mismatch: scalar=%llu gallop=%llu packed=%llu\n",
                 static_cast<unsigned long long>(check_scalar),
                 static_cast<unsigned long long>(check_gallop),
                 static_cast<unsigned long long>(check_packed));
    return 1;
  }
  uint64_t check_simd = 0;
  const double simd_us = bench::MinWallMicros(options, [&] {
    check_simd = SweepPairs(s, kPairs, [&s](size_t i, size_t j) {
      return (s.bitmaps[i] & s.bitmaps[j]) == 0
                 ? uint64_t{0}
                 : SimdOverlap(s.sets[i].data(), s.sets[i].size(),
                               s.sets[j].data(), s.sets[j].size());
    });
  });
  if (check_scalar != check_simd) {
    std::fprintf(stderr, "kernel mismatch: scalar=%llu simd=%llu\n",
                 static_cast<unsigned long long>(check_scalar),
                 static_cast<unsigned long long>(check_simd));
    return 1;
  }
  records.push_back({"overlap_short/scalar", scalar_us});
  records.push_back({"overlap_short/galloping", gallop_us});
  records.push_back({"overlap_short/packed", packed_us});
  records.push_back({"overlap_short/simd", simd_us});
  std::printf("overlap_short (4-token segments, %zu pairs):\n", kPairs);
  std::printf("  scalar    %10.0f us\n", scalar_us);
  std::printf("  galloping %10.0f us\n", gallop_us);
  std::printf("  packed    %10.0f us  (%.2fx vs galloping)\n", packed_us,
              gallop_us / packed_us);
  std::printf("  simd      %10.0f us  (%.2fx vs packed)\n", simd_us,
              packed_us / simd_us);

  // 1b) Bounded overlap on short 16-token segments: the SegI predicate
  // "does the pair reach required?" with required at 3/4 of the segment.
  // Every kernel answers the predicate identically under the bounded
  // contract; the checksum counts qualifying pairs. PR-3's packed kernel
  // has no bound support, so it pays for the exact merge every time, while
  // the bounded kernel bails once the bound is provably unreachable.
  Rng rng16(43);
  const ShortSegments s16 = MakeShortSegments(rng16, 4096, 16, 1024);
  const uint64_t kRequired = 12;
  uint64_t bound_packed = 0, bound_simd = 0;
  const double bound_packed_us = bench::MinWallMicros(options, [&] {
    bound_packed = SweepPairs(s16, kPairs, [&s16](size_t i, size_t j) {
      return uint64_t{PackedOverlap(s16.sets[i].data(), s16.sets[i].size(),
                                    s16.bitmaps[i], s16.sets[j].data(),
                                    s16.sets[j].size(),
                                    s16.bitmaps[j]) >= kRequired};
    });
  });
  const double bound_simd_us = bench::MinWallMicros(options, [&] {
    bound_simd = SweepPairs(s16, kPairs, [&s16](size_t i, size_t j) {
      if ((s16.bitmaps[i] & s16.bitmaps[j]) == 0) return uint64_t{0};
      return uint64_t{
          SimdOverlapBounded(s16.sets[i].data(), s16.sets[i].size(),
                             s16.sets[j].data(), s16.sets[j].size(),
                             kRequired) >= kRequired};
    });
  });
  if (bound_packed != bound_simd) {
    std::fprintf(stderr, "bounded mismatch: packed=%llu simd=%llu\n",
                 static_cast<unsigned long long>(bound_packed),
                 static_cast<unsigned long long>(bound_simd));
    return 1;
  }
  records.push_back({"overlap_bounded_short/packed", bound_packed_us});
  records.push_back({"overlap_bounded_short/simd", bound_simd_us});
  std::printf(
      "overlap_bounded_short (required=%llu of 16 tokens, %zu pairs):\n",
      static_cast<unsigned long long>(kRequired), kPairs);
  std::printf("  packed    %10.0f us\n", bound_packed_us);
  std::printf("  simd      %10.0f us  (%.2fx vs packed)\n", bound_simd_us,
              bound_packed_us / bound_simd_us);

  // 1c) Mid-length balanced sets (512 tokens a side): the block merge vs
  // the scalar merge and galloping, which degenerates without skew.
  Rng mid_rng(9);
  std::vector<std::vector<uint32_t>> mid;
  for (int k = 0; k < 64; ++k) {
    mid.push_back(RandomSortedSet(mid_rng, 512, 1 << 14));
  }
  const size_t kMidPairs = 200'000;
  auto mid_sweep = [&mid](auto&& fn) {
    uint64_t sum = 0;
    size_t i = 0, j = 1;
    for (size_t p = 0; p < kMidPairs; ++p) {
      sum += fn(mid[i], mid[j]);
      i = (i + 1) & 63;
      j = (j + 7) & 63;
    }
    return sum;
  };
  uint64_t mid_scalar = 0, mid_gallop = 0, mid_simd = 0;
  const double mid_scalar_us = bench::MinWallMicros(options, [&] {
    mid_scalar = mid_sweep([](const auto& a, const auto& b) {
      return LinearOverlap(a.data(), a.size(), b.data(), b.size());
    });
  });
  const double mid_gallop_us = bench::MinWallMicros(options, [&] {
    mid_gallop = mid_sweep([](const auto& a, const auto& b) {
      return GallopingOverlap(a.data(), a.size(), b.data(), b.size());
    });
  });
  const double mid_simd_us = bench::MinWallMicros(options, [&] {
    mid_simd = mid_sweep([](const auto& a, const auto& b) {
      return SimdOverlap(a.data(), a.size(), b.data(), b.size());
    });
  });
  if (mid_scalar != mid_gallop || mid_scalar != mid_simd) {
    std::fprintf(stderr, "mid mismatch: scalar=%llu gallop=%llu simd=%llu\n",
                 static_cast<unsigned long long>(mid_scalar),
                 static_cast<unsigned long long>(mid_gallop),
                 static_cast<unsigned long long>(mid_simd));
    return 1;
  }
  records.push_back({"overlap_mid/scalar", mid_scalar_us});
  records.push_back({"overlap_mid/galloping", mid_gallop_us});
  records.push_back({"overlap_mid/simd", mid_simd_us});
  std::printf("overlap_mid (512-token balanced sets, %zu pairs):\n",
              kMidPairs);
  std::printf("  scalar    %10.0f us\n", mid_scalar_us);
  std::printf("  galloping %10.0f us\n", mid_gallop_us);
  std::printf("  simd      %10.0f us  (%.2fx vs galloping, %.2fx vs scalar)\n",
              mid_simd_us, mid_gallop_us / mid_simd_us,
              mid_scalar_us / mid_simd_us);

  // 1d) Container kernels: the same dense mid-length sets as bitsets on the
  // absolute word grid, and clustered sets as run lists.
  std::vector<std::vector<uint64_t>> words(mid.size());
  std::vector<uint32_t> word0(mid.size());
  for (size_t k = 0; k < mid.size(); ++k) {
    const auto& v = mid[k];
    word0[k] = v.front() / 64;
    words[k].assign(v.back() / 64 - word0[k] + 1, 0);
    for (uint32_t t : v) {
      words[k][t / 64 - word0[k]] |= uint64_t{1} << (t % 64);
    }
  }
  std::vector<std::vector<TokenRun>> runs(mid.size());
  for (size_t k = 0; k < mid.size(); ++k) {
    Rng r(static_cast<uint64_t>(k) + 1);
    std::vector<uint32_t> clustered;
    for (uint32_t base = 0; base < 2048 && clustered.size() < 512;
         base += 32 + static_cast<uint32_t>(r.NextBounded(32))) {
      for (uint32_t q = 0; q < 24 && clustered.size() < 512; ++q) {
        clustered.push_back(base + q);
      }
    }
    AppendTokenRuns(clustered.data(), clustered.size(), &runs[k]);
  }
  uint64_t cont_bitset = 0, cont_runs = 0;
  const double bitset_us = bench::MinWallMicros(options, [&] {
    cont_bitset = 0;
    size_t i = 0, j = 1;
    for (size_t p = 0; p < kMidPairs; ++p) {
      cont_bitset += BitsetBitsetOverlap(
          words[i].data(), word0[i], static_cast<uint32_t>(words[i].size()),
          words[j].data(), word0[j], static_cast<uint32_t>(words[j].size()));
      i = (i + 1) & 63;
      j = (j + 7) & 63;
    }
  });
  const double runs_us = bench::MinWallMicros(options, [&] {
    cont_runs = 0;
    size_t i = 0, j = 1;
    for (size_t p = 0; p < kMidPairs; ++p) {
      cont_runs += RunsRunsOverlap(runs[i].data(), runs[i].size(),
                                   runs[j].data(), runs[j].size());
      i = (i + 1) & 63;
      j = (j + 7) & 63;
    }
  });
  benchmark::DoNotOptimize(cont_runs);
  if (cont_bitset != mid_scalar) {
    std::fprintf(stderr, "container mismatch: bitset=%llu scalar=%llu\n",
                 static_cast<unsigned long long>(cont_bitset),
                 static_cast<unsigned long long>(mid_scalar));
    return 1;
  }
  records.push_back({"containers/bitset_bitset", bitset_us});
  records.push_back({"containers/runs_runs", runs_us});
  std::printf("containers (%zu pairs):\n", kMidPairs);
  std::printf("  bitset x bitset %10.0f us  (%.2fx vs sorted-array scalar)\n",
              bitset_us, mid_scalar_us / bitset_us);
  std::printf("  runs x runs     %10.0f us  (clustered 512-token sets)\n",
              runs_us);

  // 1e) Crossover sweep: scalar vs packed vs simd across segment lengths
  // 2..512. The smallest length where the simd column beats packed is the
  // crossover; the rows land in BENCH_kernels.json, so comparing kernel
  // families after a change is a diff of two bench files, not a guess.
  std::printf("crossover (scalar vs packed vs simd by segment length):\n");
  std::printf("  %6s %10s %10s %10s  %s\n", "len", "scalar", "packed", "simd",
              "winner");
  for (size_t len : {2, 4, 8, 16, 32, 64, 128, 256, 512}) {
    Rng cross_rng(1000 + static_cast<uint64_t>(len));
    // Domain scales with length so density (and bitmap selectivity) stays
    // comparable across rows; pair count shrinks so long rows stay cheap.
    const uint32_t domain = static_cast<uint32_t>(len) * 256;
    const size_t count = 1024;
    const ShortSegments cs = MakeShortSegments(cross_rng, count, len, domain);
    const size_t pairs = std::max<size_t>(20'000, 2'000'000 / len);
    uint64_t cross_scalar = 0, cross_packed = 0, cross_simd = 0;
    const double cross_scalar_us = bench::MinWallMicros(options, [&] {
      cross_scalar = SweepPairs(cs, pairs, [&cs](size_t i, size_t j) {
        return LinearOverlap(cs.sets[i].data(), cs.sets[i].size(),
                             cs.sets[j].data(), cs.sets[j].size());
      });
    });
    const double cross_packed_us = bench::MinWallMicros(options, [&] {
      cross_packed = SweepPairs(cs, pairs, [&cs](size_t i, size_t j) {
        return PackedOverlap(cs.sets[i].data(), cs.sets[i].size(),
                             cs.bitmaps[i], cs.sets[j].data(),
                             cs.sets[j].size(), cs.bitmaps[j]);
      });
    });
    const double cross_simd_us = bench::MinWallMicros(options, [&] {
      cross_simd = SweepPairs(cs, pairs, [&cs](size_t i, size_t j) {
        return (cs.bitmaps[i] & cs.bitmaps[j]) == 0
                   ? uint64_t{0}
                   : SimdOverlap(cs.sets[i].data(), cs.sets[i].size(),
                                 cs.sets[j].data(), cs.sets[j].size());
      });
    });
    if (cross_scalar != cross_packed || cross_scalar != cross_simd) {
      std::fprintf(stderr,
                   "crossover mismatch at len=%zu: scalar=%llu packed=%llu "
                   "simd=%llu\n",
                   len, static_cast<unsigned long long>(cross_scalar),
                   static_cast<unsigned long long>(cross_packed),
                   static_cast<unsigned long long>(cross_simd));
      return 1;
    }
    // Normalize to microseconds per million pairs so rows with different
    // pair counts compare directly.
    const double scale = 1'000'000.0 / static_cast<double>(pairs);
    const double ns = cross_scalar_us * scale;
    const double np = cross_packed_us * scale;
    const double nv = cross_simd_us * scale;
    records.push_back({"crossover/len" + std::to_string(len) + "/scalar", ns});
    records.push_back({"crossover/len" + std::to_string(len) + "/packed", np});
    records.push_back({"crossover/len" + std::to_string(len) + "/simd", nv});
    const char* winner =
        nv <= np && nv <= ns ? "simd" : (np <= ns ? "packed" : "scalar");
    std::printf("  %6zu %10.0f %10.0f %10.0f  %s\n", len, ns, np, nv, winner);
  }

  // 2) JoinFragment aggregate, serial vs morsel-parallel on 8 threads.
  Rng frag_rng(6);
  const std::vector<std::vector<SegmentRecord>> fragments =
      MakeSkewedFragments(frag_rng);
  FragmentJoinOptions serial_opts;
  serial_opts.theta = 0.8;
  uint64_t serial_emitted = 0, parallel_emitted = 0;
  const double serial_us = bench::MinWallMicros(options, [&] {
    serial_emitted = 0;
    for (const auto& fragment : fragments) {
      std::vector<PartialOverlap> out;
      FilterCounters counters;
      JoinFragment(fragment, serial_opts, &out, &counters);
      serial_emitted += counters.emitted;
    }
  });
  ThreadPool pool(8);
  FragmentJoinOptions morsel_opts = serial_opts;
  morsel_opts.morsel_pool = &pool;
  morsel_opts.morsel_size = 64;
  const double parallel_us = bench::MinWallMicros(options, [&] {
    parallel_emitted = 0;
    for (const auto& fragment : fragments) {
      std::vector<PartialOverlap> out;
      FilterCounters counters;
      JoinFragment(fragment, morsel_opts, &out, &counters);
      parallel_emitted += counters.emitted;
    }
  });
  if (serial_emitted != parallel_emitted) {
    std::fprintf(stderr, "fragment join mismatch: serial=%llu parallel=%llu\n",
                 static_cast<unsigned long long>(serial_emitted),
                 static_cast<unsigned long long>(parallel_emitted));
    return 1;
  }
  records.push_back({"fragment_join/serial", serial_us});
  records.push_back({"fragment_join/morsel_8t", parallel_us});
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("fragment_join (skewed fragments, prefix method, %u cores):\n",
              cores);
  std::printf("  serial    %10.0f us\n", serial_us);
  std::printf("  morsel 8t %10.0f us  (%.2fx speedup)\n", parallel_us,
              serial_us / parallel_us);
  if (cores < 8) {
    std::printf(
        "  note: only %u hardware threads available; the 8-thread speedup "
        "is bounded by the machine, not the morsel path.\n",
        cores);
  }

  // 3) Fragment build as the filtering reducer does it. Rows are named
  // like the google-benchmark ones; per-segment cost must stay flat
  // across them, so a quadratic build shows as a superlinear jump.
  std::printf("fragment_batch_build (~12-token segments):\n");
  for (size_t n : {1000, 10000, 50000}) {
    const std::vector<std::string> values = EncodedFragmentValues(n);
    size_t built_tokens = 0;
    const double build_us = bench::MinWallMicros(options, [&] {
      built_tokens = BuildFragmentBatch(values).total_tokens();
    });
    size_t expected_tokens = 0;
    for (const std::string& v : values) {
      expected_tokens += EncodedSegmentTokens(v);
    }
    if (built_tokens != expected_tokens) {
      std::fprintf(stderr, "fragment build mismatch at n=%zu: %zu vs %zu\n",
                   n, built_tokens, expected_tokens);
      return 1;
    }
    records.push_back(
        {"BM_FragmentBatchBuild/" + std::to_string(n), build_us});
    std::printf("  %6zu segments %10.0f us  (%.1f ns per segment)\n", n,
                build_us, build_us * 1000.0 / static_cast<double>(n));
  }

  // 4) Corpus ingest, serial and default paths; both must build the same
  // corpus.
  std::printf("build_corpus (PubMed-like lines, word tokenizer):\n");
  for (int64_t path : {0, 1}) {
    uint64_t tokens = 0;
    const double build_us = bench::MinWallMicros(
        options, [&] { tokens = BuildPubMed(path).TotalTokens(); });
    records.push_back({"BM_BuildCorpus/" + std::to_string(path), build_us});
    std::printf("  %-8s %10.0f us  (%.1f ns per token)\n",
                path == 0 ? "serial" : "default", build_us,
                build_us * 1000.0 / static_cast<double>(tokens));
  }
  const Corpus serial = BuildPubMed(0);
  const Corpus parallel = BuildPubMed(1);
  bool same = serial.dictionary.size() == parallel.dictionary.size() &&
              serial.NumRecords() == parallel.NumRecords();
  for (size_t i = 0; same && i < serial.NumRecords(); ++i) {
    same = serial.records[i].tokens == parallel.records[i].tokens;
  }
  if (!same) {
    std::fprintf(stderr, "build_corpus mismatch between serial and default\n");
    return 1;
  }

  bench::WriteBenchJson(options, "kernels", records);
  return 0;
}

}  // namespace fsjoin

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--json", 0) == 0 || arg.rfind("--warmup", 0) == 0 ||
        arg.rfind("--repeat", 0) == 0) {
      return fsjoin::RunKernelComparison(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

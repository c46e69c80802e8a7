// Unit tests for the util layer: Status/Result, serde, RNG/Zipf, string
// helpers, hashing, table printing and the thread pool.

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "util/hash.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace fsjoin {
namespace {

// ---- Status / Result ----------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad theta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad theta");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad theta");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Status UseParsed(int x, int* out) {
  FSJOIN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);

  Result<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);

  int out = 0;
  EXPECT_TRUE(UseParsed(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseParsed(0, &out).ok());
}

// ---- Serde ----------------------------------------------------------------

TEST(SerdeTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0,   1,    127,        128,
                             300, 1u << 20, (1ull << 40), UINT64_MAX};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(dec.GetVarint64(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(dec.done());
}

TEST(SerdeTest, FixedBigEndianIsOrderPreserving) {
  std::string a, b;
  PutFixed32BE(&a, 5);
  PutFixed32BE(&b, 1000);
  EXPECT_LT(a, b);  // bytewise comparison matches numeric order
  a.clear();
  b.clear();
  PutFixed64BE(&a, 1ull << 40);
  PutFixed64BE(&b, (1ull << 40) + 1);
  EXPECT_LT(a, b);
}

TEST(SerdeTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32BE(&buf, 0xdeadbeef);
  PutFixed64BE(&buf, 0x0123456789abcdefULL);
  Decoder dec(buf);
  uint32_t x = 0;
  uint64_t y = 0;
  ASSERT_TRUE(dec.GetFixed32BE(&x).ok());
  ASSERT_TRUE(dec.GetFixed64BE(&y).ok());
  EXPECT_EQ(x, 0xdeadbeefu);
  EXPECT_EQ(y, 0x0123456789abcdefULL);
}

TEST(SerdeTest, LengthPrefixedAndVectorRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutUint32Vector(&buf, {3, 1, 4, 1, 5});
  PutLengthPrefixed(&buf, "");
  Decoder dec(buf);
  std::string_view s;
  ASSERT_TRUE(dec.GetLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "hello");
  std::vector<uint32_t> v;
  ASSERT_TRUE(dec.GetUint32Vector(&v).ok());
  EXPECT_EQ(v, (std::vector<uint32_t>{3, 1, 4, 1, 5}));
  ASSERT_TRUE(dec.GetLengthPrefixed(&s).ok());
  EXPECT_EQ(s, "");
  EXPECT_TRUE(dec.done());
}

TEST(SerdeTest, TruncatedInputsReturnErrors) {
  {
    Decoder dec("");
    uint64_t v = 0;
    EXPECT_FALSE(dec.GetVarint64(&v).ok());
  }
  {
    std::string buf;
    PutFixed32BE(&buf, 7);
    Decoder dec(std::string_view(buf).substr(0, 2));
    uint32_t v = 0;
    EXPECT_FALSE(dec.GetFixed32BE(&v).ok());
  }
  {
    std::string buf;
    PutVarint64(&buf, 100);  // claims 100 bytes follow
    buf += "short";
    Decoder dec(buf);
    std::string_view s;
    EXPECT_FALSE(dec.GetLengthPrefixed(&s).ok());
  }
  {
    std::string buf;
    PutVarint64(&buf, 1000);  // claims 1000 elements
    Decoder dec(buf);
    std::vector<uint32_t> v;
    EXPECT_FALSE(dec.GetUint32Vector(&v).ok());
  }
  {
    // Varint overflow: 10 continuation bytes.
    std::string buf(10, static_cast<char>(0xff));
    Decoder dec(buf);
    uint64_t v = 0;
    EXPECT_FALSE(dec.GetVarint64(&v).ok());
  }
}

// ---- RNG / Zipf ---------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    int64_t r = rng.NextInRange(-5, 9);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(ZipfTest, SkewZeroIsUniform) {
  Rng rng(5);
  ZipfSampler zipf(100, 0.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 350);
}

TEST(ZipfTest, FrequenciesFollowPowerLaw) {
  Rng rng(5);
  const double s = 1.0;
  ZipfSampler zipf(1000, s);
  std::vector<int> counts(1000, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  // Rank 0 should be about twice rank 1 and about 10x rank 9.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.5);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[9], 10.0, 3.0);
}

TEST(ZipfTest, SingleItemDomain) {
  Rng rng(5);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ShuffleTest, IsPermutation) {
  Rng rng(11);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  Shuffle(v, rng);
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 50u);
}

// ---- String helpers -------------------------------------------------------

TEST(StringUtilTest, SplitString) {
  auto parts = SplitString("a b,,c", " ,");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitString("", " ").empty());
  EXPECT_TRUE(SplitString("   ", " ").empty());
}

TEST(StringUtilTest, CaseAndTrim) {
  EXPECT_EQ(ToLowerAscii("HeLLo 123"), "hello 123");
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(StringUtilTest, HumanBytesAndThousands) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(WithThousandsSep(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSep(12), "12");
  EXPECT_EQ(WithThousandsSep(0), "0");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, ParseInt64AcceptsOnlyWholeIntegersInRange) {
  EXPECT_EQ(*ParseInt64("0", 0, 10), 0);
  EXPECT_EQ(*ParseInt64("10", 0, 10), 10);
  EXPECT_EQ(*ParseInt64("-4", -5, 5), -4);
  EXPECT_EQ(*ParseInt64("9223372036854775807", 0, INT64_MAX), INT64_MAX);
  for (const char* bad : {"", "abc", "12abc", "1.5", " 7", "7 ", "+7", "0x10",
                          "--1", "1e3"}) {
    Result<int64_t> r = ParseInt64(bad, 0, 1000);
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("not an integer"), std::string::npos)
        << r.status().ToString();
  }
  for (const char* out : {"-1", "1001", "9223372036854775808",
                          "-99999999999999999999"}) {
    Result<int64_t> r = ParseInt64(out, 0, 1000);
    ASSERT_FALSE(r.ok()) << "'" << out << "'";
    EXPECT_NE(r.status().message().find("out of range [0, 1000]"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(StringUtilTest, ParseFractionAcceptsOnlyZeroToOne) {
  EXPECT_DOUBLE_EQ(*ParseFraction("0.8"), 0.8);
  EXPECT_DOUBLE_EQ(*ParseFraction("1"), 1.0);
  EXPECT_DOUBLE_EQ(*ParseFraction("5e-1"), 0.5);
  for (const char* bad : {"", "abc", "0.8x", " 0.8", "+0.8", "0x0.8"}) {
    Result<double> r = ParseFraction(bad);
    ASSERT_FALSE(r.ok()) << "'" << bad << "'";
    EXPECT_NE(r.status().message().find("not a number"), std::string::npos)
        << r.status().ToString();
  }
  for (const char* out : {"0", "-0.5", "1.0001", "nan", "inf", "1e999"}) {
    Result<double> r = ParseFraction(out);
    ASSERT_FALSE(r.ok()) << "'" << out << "'";
    EXPECT_NE(r.status().message().find("out of range (0, 1]"),
              std::string::npos)
        << r.status().ToString();
  }
}

// Qualified: this file's anonymous namespace has its own ParsePositive.
TEST(StringUtilTest, ParsePositiveAcceptsOnlyZeroToMax) {
  EXPECT_DOUBLE_EQ(*fsjoin::ParsePositive("2.5", 100), 2.5);
  EXPECT_DOUBLE_EQ(*fsjoin::ParsePositive("100", 100), 100.0);
  EXPECT_DOUBLE_EQ(*fsjoin::ParsePositive("1e-3", 100), 0.001);
  for (const char* out : {"0", "-1", "100.5", "nan", "inf"}) {
    Result<double> r = fsjoin::ParsePositive(out, 100);
    ASSERT_FALSE(r.ok()) << "'" << out << "'";
    EXPECT_NE(r.status().message().find("out of range (0, 100]"),
              std::string::npos)
        << r.status().ToString();
  }
  EXPECT_NE(
      fsjoin::ParsePositive("0.5x", 100).status().message().find("not a number"),
      std::string::npos);
}

// ---- Hash -----------------------------------------------------------------

TEST(HashTest, StableAndSpread) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  // Mix64 must separate adjacent integers well.
  std::set<uint64_t> buckets;
  for (uint64_t i = 0; i < 1000; ++i) buckets.insert(Mix64(i) % 64);
  EXPECT_EQ(buckets.size(), 64u);
}

// ---- TablePrinter -------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"col", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator line exists.
  EXPECT_NE(out.find("---"), std::string::npos);
}

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, InlineModeWorks) {
  ThreadPool pool(0);
  int counter = 0;
  pool.Submit([&counter] { ++counter; });
  pool.Wait();
  EXPECT_EQ(counter, 1);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelFor(101, 7, [&hits](size_t begin, size_t end) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end - begin, 7u);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedParallelForZeroThreadsRunsInlineInOrder) {
  // num_threads == 0 is the deterministic-debug mode: every chunk runs on
  // the calling thread in ascending order, so side effects are ordered.
  ThreadPool pool(0);
  std::vector<size_t> begins;
  pool.ParallelFor(20, 6, [&begins](size_t begin, size_t end) {
    begins.push_back(begin);
    EXPECT_LE(end, 20u);
  });
  EXPECT_EQ(begins, (std::vector<size_t>{0, 6, 12, 18}));
}

TEST(ThreadPoolTest, ChunkedParallelForEdgeCases) {
  ThreadPool pool(2);
  // n == 0: fn never runs.
  pool.ParallelFor(0, 4, [](size_t, size_t) { FAIL(); });
  // chunk 0 is treated as 1.
  std::vector<std::atomic<int>> hits(5);
  pool.ParallelFor(5, 0, [&hits](size_t begin, size_t end) {
    EXPECT_EQ(end, begin + 1);
    hits[begin].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // chunk larger than n: one inline chunk covering everything.
  std::atomic<int> calls{0};
  pool.ParallelFor(3, 100, [&calls](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ChunkedParallelForNestedInsideEveryWorkerFinishes) {
  // The fragment joins' shape: tasks on the pool fan out onto the same pool.
  // Every worker holds an outer task (the latch keeps all of them busy
  // until all have started) when the nested calls are made, so no worker
  // is free to help: each caller drains its own chunks, and the helpers it
  // queued find none left and return. Then three times as many outer tasks
  // as workers, so helpers and outer tasks interleave in the queue.
  constexpr size_t kWorkers = 4;
  constexpr size_t kInner = 257;
  ThreadPool pool(kWorkers);
  for (size_t outer : {kWorkers, 3 * kWorkers}) {
    for (int round = 0; round < 10; ++round) {
      std::vector<std::atomic<int>> hits(outer * kInner);
      std::latch all_busy(static_cast<std::ptrdiff_t>(kWorkers));
      pool.ParallelFor(outer, [&](size_t o) {
        if (o < kWorkers) all_busy.arrive_and_wait();
        pool.ParallelFor(kInner, 3, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            hits[o * kInner + i].fetch_add(1);
          }
        });
      });
      for (auto& h : hits) ASSERT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPoolTest, ChunkedParallelForConcurrentCallsShareThePool) {
  // Two threads issue ParallelFor against the same pool at once; both must
  // complete with full coverage (per-call completion state, no cross-talk).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(200), b(200);
  std::thread other([&pool, &b] {
    pool.ParallelFor(200, 9,
                     [&b](size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) b[i].fetch_add(1);
                     });
  });
  pool.ParallelFor(200, 9, [&a](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) a[i].fetch_add(1);
  });
  other.join();
  for (auto& h : a) EXPECT_EQ(h.load(), 1);
  for (auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace fsjoin

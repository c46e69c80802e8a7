// The external-shuffle subsystem: CRC32C, the memory-budget governor, spill
// run files (round trips plus fault-injection on real runs), RAII scratch
// directories and the streaming loser-tree merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "store/memory_budget.h"
#include "store/merge.h"
#include "store/record_stream.h"
#include "store/run_file.h"
#include "store/temp_dir.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/status.h"

namespace fsjoin::store {
namespace {

namespace fs = std::filesystem;

using Record = std::pair<std::string, std::string>;

// ---- CRC32C ----------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  EXPECT_EQ(Crc32c("a"), 0xC1D04330u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
}

TEST(Crc32cTest, ExtendComposesLikeConcatenation) {
  const std::string a = "hello, ";
  const std::string b = "external shuffle";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b), Crc32c(a + b));
  // Byte-at-a-time extension equals one-shot too (exercises the tail loop
  // against the 8-byte slicing loop).
  uint32_t crc = 0;
  const std::string all = a + b;
  for (char c : all) crc = Crc32cExtend(crc, std::string_view(&c, 1));
  EXPECT_EQ(crc, Crc32c(all));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data(300, '\0');
  Rng rng(42);
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  const uint32_t good = Crc32c(data);
  for (size_t i = 0; i < data.size(); i += 37) {
    std::string bad = data;
    bad[i] ^= 0x10;
    EXPECT_NE(Crc32c(bad), good) << "flip at " << i;
  }
}

// ---- MemoryBudget ----------------------------------------------------

TEST(MemoryBudgetTest, ChargesAndReleases) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.Charge(60));
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_TRUE(budget.Charge(40));  // exactly at the limit: still fine
  EXPECT_FALSE(budget.Charge(1));  // over
  budget.Release(1);
  budget.Release(100);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(budget.Charge(100));
}

TEST(MemoryBudgetTest, ZeroLimitTripsEveryCharge) {
  MemoryBudget budget(0);
  EXPECT_FALSE(budget.Charge(1));
  budget.Release(1);
}

TEST(MemoryBudgetTest, UnlimitedNeverTrips) {
  MemoryBudget budget;  // kUnlimited
  EXPECT_TRUE(budget.Charge(UINT64_MAX / 2));
  budget.Release(UINT64_MAX / 2);
}

// ---- TempSpillDir ----------------------------------------------------

TEST(TempSpillDirTest, RemovesContentsOnScopeExit) {
  std::string path;
  {
    auto dir = TempSpillDir::Create("", "fsjoin-store-test");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    path = dir->path();
    ASSERT_TRUE(fs::is_directory(path));
    std::ofstream(path + "/leftover.run") << "bytes";
    ASSERT_TRUE(fs::exists(path + "/leftover.run"));
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(TempSpillDirTest, MoveTransfersOwnership) {
  auto dir = TempSpillDir::Create("", "fsjoin-store-test");
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->path();
  {
    TempSpillDir moved = std::move(dir).value();
    EXPECT_EQ(moved.path(), path);
    EXPECT_TRUE(fs::exists(path));
  }
  EXPECT_FALSE(fs::exists(path));
}

TEST(TempSpillDirTest, CreatesMissingBaseAndDistinctNames) {
  auto base_holder = TempSpillDir::Create("", "fsjoin-store-test");
  ASSERT_TRUE(base_holder.ok());
  const std::string base = base_holder->path() + "/nested/deeper";
  auto a = TempSpillDir::Create(base, "run");
  auto b = TempSpillDir::Create(base, "run");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->path(), b->path());
}

// ---- Run files -------------------------------------------------------

std::vector<Record> SortedRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string key;
    const size_t len = rng.NextBounded(10);
    for (size_t j = 0; j < len; ++j) {
      key.push_back(static_cast<char>('a' + rng.NextBounded(3)));
    }
    records.emplace_back(std::move(key), "v" + std::to_string(i));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.first < b.first;
                   });
  return records;
}

Status WriteRun(const std::string& path, const std::vector<Record>& records,
                size_t block_bytes) {
  RunWriter writer(path, block_bytes);
  FSJOIN_RETURN_NOT_OK(writer.Open());
  for (const Record& r : records) {
    FSJOIN_RETURN_NOT_OK(writer.Add(r.first, r.second));
  }
  return writer.Finish();
}

/// Streams a whole RecordStream into a vector (copies the views).
Status Drain(RecordStream* stream, std::vector<Record>* out) {
  for (;;) {
    bool has = false;
    std::string_view key, value;
    FSJOIN_RETURN_NOT_OK(stream->Next(&has, &key, &value));
    if (!has) return Status::OK();
    out->emplace_back(std::string(key), std::string(value));
  }
}

Status ReadRun(const std::string& path, std::vector<Record>* out) {
  auto reader = RunReader::Open(path);
  FSJOIN_RETURN_NOT_OK(reader.status());
  return Drain(reader->get(), out);
}

class RunFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempSpillDir::Create("", "fsjoin-run-test");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_.emplace(std::move(dir).value());
  }

  std::string Path(const std::string& name) const {
    return dir_->path() + "/" + name;
  }

  std::optional<TempSpillDir> dir_;
};

TEST_F(RunFileTest, RoundTripsAcrossManyBlocks) {
  const std::vector<Record> records = SortedRecords(800, 11);
  // A 64-byte block target forces many small frames.
  ASSERT_TRUE(WriteRun(Path("a.run"), records, 64).ok());

  auto reader = RunReader::Open(Path("a.run"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->records(), records.size());
  std::vector<Record> read;
  ASSERT_TRUE(Drain(reader->get(), &read).ok());
  EXPECT_EQ(read, records);
}

TEST_F(RunFileTest, RoundTripsEmptyRunAndEmptyFields) {
  ASSERT_TRUE(WriteRun(Path("empty.run"), {}, 64).ok());
  std::vector<Record> read;
  ASSERT_TRUE(ReadRun(Path("empty.run"), &read).ok());
  EXPECT_TRUE(read.empty());

  const std::vector<Record> odd = {{"", ""}, {"", "v"}, {"k", ""}};
  ASSERT_TRUE(WriteRun(Path("odd.run"), odd, 64).ok());
  read.clear();
  ASSERT_TRUE(ReadRun(Path("odd.run"), &read).ok());
  EXPECT_EQ(read, odd);
}

TEST_F(RunFileTest, MissingFileIsIoError) {
  auto reader = RunReader::Open(Path("nope.run"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST_F(RunFileTest, ShortFooterIsCorruption) {
  std::ofstream(Path("short.run"), std::ios::binary) << "tiny";
  auto reader = RunReader::Open(Path("short.run"));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(RunFileTest, EveryBitFlipIsDetected) {
  // Flip one byte at a sweep of offsets covering block headers, payloads
  // and the footer: reading the damaged run must fail with Corruption —
  // never crash, never silently return wrong records.
  const std::vector<Record> records = SortedRecords(120, 22);
  ASSERT_TRUE(WriteRun(Path("good.run"), records, 128).ok());
  const std::string good = Slurp(Path("good.run"));
  ASSERT_GT(good.size(), kRunFooterBytes);

  for (size_t i = 0; i < good.size(); i += 7) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    Dump(Path("bad.run"), bad);
    std::vector<Record> read;
    const Status st = ReadRun(Path("bad.run"), &read);
    ASSERT_FALSE(st.ok()) << "flip at offset " << i << " went unnoticed";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST_F(RunFileTest, TruncationsAreDetected) {
  const std::vector<Record> records = SortedRecords(200, 33);
  ASSERT_TRUE(WriteRun(Path("good.run"), records, 128).ok());
  const std::string good = Slurp(Path("good.run"));

  // Cut the file at several points: inside a block, inside the footer,
  // and dropping just the trailing byte.
  for (size_t keep :
       {good.size() - 1, good.size() - kRunFooterBytes, good.size() / 2,
        kRunFooterBytes, size_t{1}}) {
    Dump(Path("cut.run"), good.substr(0, keep));
    std::vector<Record> read;
    const Status st = ReadRun(Path("cut.run"), &read);
    ASSERT_FALSE(st.ok()) << "truncation to " << keep << " went unnoticed";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST_F(RunFileTest, AppendedGarbageIsDetected) {
  // Valid footer bytes preceded by an extra block the footer never
  // promised: the count cross-check at end-of-stream must complain.
  const std::vector<Record> records = SortedRecords(50, 44);
  ASSERT_TRUE(WriteRun(Path("good.run"), records, 1 << 20).ok());
  const std::string good = Slurp(Path("good.run"));
  const std::string body = good.substr(0, good.size() - kRunFooterBytes);
  const std::string footer = good.substr(good.size() - kRunFooterBytes);
  Dump(Path("dup.run"), body + body + footer);
  std::vector<Record> read;
  const Status st = ReadRun(Path("dup.run"), &read);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

// ---- LoserTreeMerge --------------------------------------------------

/// In-memory RecordStream over a sorted vector (test double).
class VectorStream : public RecordStream {
 public:
  explicit VectorStream(std::vector<Record> records)
      : records_(std::move(records)) {}

  Status Next(bool* has_record, std::string_view* key,
              std::string_view* value) override {
    if (pos_ >= records_.size()) {
      *has_record = false;
      return Status::OK();
    }
    *key = records_[pos_].first;
    *value = records_[pos_].second;
    ++pos_;
    *has_record = true;
    return Status::OK();
  }

 private:
  std::vector<Record> records_;
  size_t pos_ = 0;
};

std::vector<Record> ReferenceMerge(
    const std::vector<std::vector<Record>>& sources) {
  // Stable merge == concatenate in source order, then stable sort by key.
  std::vector<Record> all;
  for (const auto& src : sources) {
    all.insert(all.end(), src.begin(), src.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Record& a, const Record& b) {
                     return a.first < b.first;
                   });
  return all;
}

Status MergeAll(std::vector<std::vector<Record>> sources,
                std::vector<Record>* out) {
  std::vector<std::unique_ptr<RecordStream>> streams;
  streams.reserve(sources.size());
  for (auto& src : sources) {
    streams.push_back(std::make_unique<VectorStream>(std::move(src)));
  }
  LoserTreeMerge merge(std::move(streams));
  return Drain(&merge, out);
}

TEST(LoserTreeMergeTest, ZeroAndOneSource) {
  std::vector<Record> out;
  ASSERT_TRUE(MergeAll({}, &out).ok());
  EXPECT_TRUE(out.empty());

  const std::vector<Record> only = {{"a", "1"}, {"a", "2"}, {"b", "3"}};
  out.clear();
  ASSERT_TRUE(MergeAll({only}, &out).ok());
  EXPECT_EQ(out, only);  // single-source fast path forwards verbatim
}

TEST(LoserTreeMergeTest, BreaksTiesOnSourceIndex) {
  // Every source carries the same key: the merge must emit source 0's
  // records first, then source 1's, ... — the arrival order a stable
  // in-memory sort would have kept.
  std::vector<std::vector<Record>> sources;
  for (int s = 0; s < 5; ++s) {
    sources.push_back({{"k", "s" + std::to_string(s) + "a"},
                       {"k", "s" + std::to_string(s) + "b"}});
  }
  std::vector<Record> out;
  ASSERT_TRUE(MergeAll(sources, &out).ok());
  const std::vector<Record> expected = ReferenceMerge(sources);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(out.front().second, "s0a");
  EXPECT_EQ(out.back().second, "s4b");
}

TEST(LoserTreeMergeTest, HandlesEmptySourcesAmongNonEmpty) {
  std::vector<std::vector<Record>> sources = {
      {}, {{"a", "1"}}, {}, {{"a", "2"}, {"c", "3"}}, {}};
  std::vector<Record> out;
  ASSERT_TRUE(MergeAll(sources, &out).ok());
  EXPECT_EQ(out, ReferenceMerge(sources));
}

TEST(LoserTreeMergeTest, RandomizedAgainstStableReference) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t k = 1 + rng.NextBounded(9);  // covers non-powers of two
    std::vector<std::vector<Record>> sources(k);
    for (size_t s = 0; s < k; ++s) {
      const size_t n = rng.NextBounded(40);
      std::vector<Record>& src = sources[s];
      for (size_t i = 0; i < n; ++i) {
        std::string key;
        const size_t len = rng.NextBounded(6);
        for (size_t j = 0; j < len; ++j) {
          key.push_back(static_cast<char>('a' + rng.NextBounded(2)));
        }
        src.emplace_back(std::move(key),
                         "s" + std::to_string(s) + "." + std::to_string(i));
      }
      std::stable_sort(src.begin(), src.end(),
                       [](const Record& a, const Record& b) {
                         return a.first < b.first;
                       });
    }
    std::vector<Record> out;
    ASSERT_TRUE(MergeAll(sources, &out).ok());
    EXPECT_EQ(out, ReferenceMerge(sources)) << "trial " << trial;
  }
}

TEST(LoserTreeMergeTest, MergesRunFilesWrittenToDisk) {
  auto dir = TempSpillDir::Create("", "fsjoin-merge-test");
  ASSERT_TRUE(dir.ok());
  std::vector<std::vector<Record>> sources;
  std::vector<std::unique_ptr<RecordStream>> streams;
  for (int s = 0; s < 3; ++s) {
    sources.push_back(SortedRecords(150, 100 + s));
    const std::string path =
        dir->path() + "/r" + std::to_string(s) + ".run";
    ASSERT_TRUE(WriteRun(path, sources.back(), 96).ok());
    auto reader = RunReader::Open(path);
    ASSERT_TRUE(reader.ok());
    streams.push_back(std::move(reader).value());
  }
  LoserTreeMerge merge(std::move(streams));
  std::vector<Record> out;
  ASSERT_TRUE(Drain(&merge, &out).ok());
  EXPECT_EQ(out, ReferenceMerge(sources));
}

}  // namespace
}  // namespace fsjoin::store

// The zero-copy shuffle data plane: KvBuffer arenas, the fixed-width key
// tag sort, grouped reduce over string_view windows (no per-value copies),
// and the tag-based dataset sort used by the dataflow layer.

#include "mr/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mr/job.h"
#include "mr/kv.h"
#include "store/memory_budget.h"
#include "store/temp_dir.h"
#include "util/random.h"

namespace fsjoin::mr {
namespace {

TEST(KvBufferTest, StoresRecordsContiguously) {
  KvBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  buffer.Append("key1", "value1");
  buffer.Append("", "v");
  buffer.Append("k", "");
  ASSERT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.key(0), "key1");
  EXPECT_EQ(buffer.value(0), "value1");
  EXPECT_EQ(buffer.key(1), "");
  EXPECT_EQ(buffer.value(1), "v");
  EXPECT_EQ(buffer.key(2), "k");
  EXPECT_EQ(buffer.value(2), "");
  EXPECT_EQ(buffer.RecordBytes(0), 10u);
  EXPECT_EQ(buffer.PayloadBytes(), 10u + 1u + 1u);
}

TEST(KvBufferTest, ViewsSurviveArenaGrowth) {
  // Offsets (not pointers) back the entries, so views read after thousands
  // of reallocating appends are still correct.
  KvBuffer buffer;
  for (int i = 0; i < 5000; ++i) {
    buffer.Append("key" + std::to_string(i), std::string(i % 37, 'x'));
  }
  for (int i : {0, 1, 999, 4999}) {
    EXPECT_EQ(buffer.key(i), "key" + std::to_string(i));
    EXPECT_EQ(buffer.value(i), std::string(i % 37, 'x'));
  }
}

TEST(KeyTagTest, OrdersLikeBytewiseComparison) {
  const std::vector<std::string> keys = {
      std::string(),
      std::string("a"),
      std::string("ab"),
      std::string("ab\0", 3),  // embedded NUL: longer key, same tag prefix
      std::string("abc"),
      std::string("abcdefgh"),     // exactly 8 bytes
      std::string("abcdefghi"),    // shares the full 8-byte tag with above
      std::string("abcdefghj"),
      std::string("\x80\xff high bytes"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
  };
  for (const std::string& a : keys) {
    for (const std::string& b : keys) {
      if (KeyTag(a) < KeyTag(b)) {
        EXPECT_LT(a, b) << "tag order disagrees with bytewise order";
      }
      if (a < b) {
        EXPECT_LE(KeyTag(a), KeyTag(b)) << "bytewise order disagrees with tag";
      }
    }
  }
}

// Random keys drawn from a 2-letter alphabet with lengths 0..12: plenty of
// duplicates, shared prefixes, and keys longer than the 8-byte tag.
std::vector<KeyValue> RandomRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyValue> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string key;
    const size_t len = rng.NextBounded(13);
    for (size_t j = 0; j < len; ++j) {
      key.push_back(rng.NextBounded(2) == 0 ? 'a' : 'b');
    }
    std::string value = "v";
    value += std::to_string(i);
    records.push_back(KeyValue{std::move(key), std::move(value)});
  }
  return records;
}

TEST(ShuffleShardTest, SortMatchesStableSortOverConcatenatedBuffers) {
  const std::vector<KeyValue> records = RandomRecords(500, 77);

  // Distribute across three "map task" buffers round-robin, like the
  // engine's shuffle receives them.
  ShuffleShard shard;
  {
    std::vector<KvBuffer> buffers(3);
    for (size_t i = 0; i < records.size(); ++i) {
      buffers[i % 3].Append(records[i].key, records[i].value);
    }
    for (KvBuffer& b : buffers) shard.AddBuffer(std::move(b));
  }
  ASSERT_EQ(shard.NumRecords(), records.size());
  shard.SortByKey();

  // Reference: the seed engine's semantics — concatenate buffers in the
  // same order, bytewise stable_sort.
  Dataset reference;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t i = r; i < records.size(); i += 3) {
      reference.push_back(records[i]);
    }
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const KeyValue& a, const KeyValue& b) {
                     return a.key < b.key;
                   });

  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(shard.key(i), reference[i].key) << "at " << i;
    EXPECT_EQ(shard.value(i), reference[i].value) << "at " << i;
  }
}

// Sort-order pin for ShuffleShard::SortByKey: the result must equal a
// bytewise std::stable_sort over the buffers concatenated in arrival order,
// on hand-picked keys around the 8-byte tag boundary. A faster sort (radix
// or otherwise) must keep this test passing unchanged.
TEST(ShuffleShardTest, SortPinsStableBytewiseOrderOnTagEdgeKeys) {
  const std::vector<std::string> keys = {
      std::string(),
      std::string("a"),
      std::string("ab"),
      std::string("ab\0", 3),      // tag-equal to "ab", one byte longer
      std::string("abcdefg"),      // shorter than the tag
      std::string("abcdefgh"),     // exactly the tag
      std::string("abcdefgh\0", 9),
      std::string("abcdefghi"),    // longer; strict prefix of the next
      std::string("abcdefghij"),
      std::string("abcdefghz"),    // tag-equal, differs after the tag
      std::string("abcdefgha\xff", 10),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\x01", 9),
      std::string("\x00\x00\x00\x00\x00\x00\x00\x00\x00", 9),
  };
  // Four "map task" buffers. Every key appears in several of them, some
  // twice within one buffer, so equal keys must come out in arrival order
  // (buffer order, then position).
  std::vector<std::vector<KeyValue>> per_buffer(4);
  Rng rng(4096);
  for (size_t b = 0; b < per_buffer.size(); ++b) {
    for (size_t round = 0; round < 2; ++round) {
      for (size_t k = 0; k < keys.size(); ++k) {
        if (rng.NextBounded(3) == 0) continue;
        std::string value = "b";
        value += std::to_string(b);
        value += '.';
        value += std::to_string(per_buffer[b].size());
        per_buffer[b].push_back(
            KeyValue{keys[(k * 7 + b + round) % keys.size()], value});
      }
    }
  }

  ShuffleShard shard;
  Dataset reference;
  for (const std::vector<KeyValue>& records : per_buffer) {
    KvBuffer buffer;
    for (const KeyValue& kv : records) {
      buffer.Append(kv.key, kv.value);
      reference.push_back(kv);
    }
    ASSERT_TRUE(shard.AddBuffer(std::move(buffer)).ok());
  }
  shard.SortByKey();
  std::stable_sort(reference.begin(), reference.end(),
                   [](const KeyValue& a, const KeyValue& b) {
                     return std::string_view(a.key) < std::string_view(b.key);
                   });

  ASSERT_EQ(shard.NumRecords(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(shard.key(i), reference[i].key) << "at " << i;
    EXPECT_EQ(shard.value(i), reference[i].value) << "at " << i;
  }
}

TEST(ShuffleShardTest, DropsEmptyBuffersAndCountsPayload) {
  ShuffleShard shard;
  KvBuffer a;
  a.Append("k", "vv");
  shard.AddBuffer(std::move(a));
  shard.AddBuffer(KvBuffer());  // empty: dropped
  KvBuffer b;
  b.Append("j", "w");
  shard.AddBuffer(std::move(b));
  EXPECT_EQ(shard.NumRecords(), 2u);
  EXPECT_EQ(shard.PayloadBytes(), 5u);
  EXPECT_EQ(shard.buffers().size(), 2u);
}

/// Reducer asserting every key/value it sees aliases a shard arena — the
/// zero-copy contract: grouping never duplicates record bytes.
class ViewCheckingReducer : public Reducer {
 public:
  explicit ViewCheckingReducer(const ShuffleShard* shard) : shard_(shard) {}

  Status Reduce(std::string_view key, ValueList values,
                Emitter* out) override {
    if (!PointsIntoArena(key)) {
      return Status::Internal("key copied out of the arena");
    }
    for (std::string_view v : values) {
      if (!v.empty() && !PointsIntoArena(v)) {
        return Status::Internal("value copied out of the arena");
      }
      total_value_bytes_ += v.size();
    }
    out->Emit(key, "");
    ++groups_;
    return Status::OK();
  }

  int groups() const { return groups_; }
  uint64_t total_value_bytes() const { return total_value_bytes_; }

 private:
  bool PointsIntoArena(std::string_view s) const {
    if (s.empty()) return true;  // empty views carry no bytes to alias
    for (const KvBuffer& buffer : shard_->buffers()) {
      const std::string_view arena = buffer.arena();
      if (s.data() >= arena.data() &&
          s.data() + s.size() <= arena.data() + arena.size()) {
        return true;
      }
    }
    return false;
  }

  const ShuffleShard* shard_;
  int groups_ = 0;
  uint64_t total_value_bytes_ = 0;
};

class NullEmitter : public Emitter {
 public:
  void Emit(std::string_view, std::string_view) override {}
};

TEST(ReduceShardTest, ValuesAreViewsIntoTheArena) {
  ShuffleShard shard;
  std::vector<KvBuffer> buffers(2);
  const std::vector<KeyValue> records = RandomRecords(200, 13);
  uint64_t value_bytes = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    buffers[i % 2].Append(records[i].key, records[i].value);
    value_bytes += records[i].value.size();
  }
  for (KvBuffer& b : buffers) shard.AddBuffer(std::move(b));
  shard.SortByKey();

  ViewCheckingReducer reducer(&shard);
  NullEmitter out;
  ASSERT_TRUE(ReduceShard(&reducer, shard, &out).ok());
  EXPECT_GT(reducer.groups(), 0);
  EXPECT_EQ(reducer.total_value_bytes(), value_bytes);
}

/// Records each group it receives for later inspection.
class RecordingReducer : public Reducer {
 public:
  Status Reduce(std::string_view key, ValueList values,
                Emitter*) override {
    groups_.emplace_back(std::string(key), std::vector<std::string>());
    for (std::string_view v : values) groups_.back().second.emplace_back(v);
    return Status::OK();
  }

  const std::vector<std::pair<std::string, std::vector<std::string>>>& groups()
      const {
    return groups_;
  }

 private:
  std::vector<std::pair<std::string, std::vector<std::string>>> groups_;
};

TEST(ReduceShardTest, GroupsByKeyAndTracksLargestGroup) {
  KvBuffer buffer;
  buffer.Append("b", "only");
  buffer.Append("aa", "first");
  buffer.Append("aa", "second");
  buffer.Append("aa", "third!");
  ShuffleShard shard;
  shard.AddBuffer(std::move(buffer));
  shard.SortByKey();

  RecordingReducer reducer;
  NullEmitter out;
  uint64_t max_group_bytes = 0;
  ASSERT_TRUE(ReduceShard(&reducer, shard, &out, &max_group_bytes).ok());
  ASSERT_EQ(reducer.groups().size(), 2u);
  EXPECT_EQ(reducer.groups()[0].first, "aa");
  EXPECT_EQ(reducer.groups()[0].second,
            (std::vector<std::string>{"first", "second", "third!"}));
  EXPECT_EQ(reducer.groups()[1].first, "b");
  EXPECT_EQ(reducer.groups()[1].second, std::vector<std::string>{"only"});
  // Largest group: 3 * (2 key bytes) + 5 + 6 + 6 value bytes.
  EXPECT_EQ(max_group_bytes, 23u);
}

// ---- Spill-to-disk edge cases ---------------------------------------
//
// Each test reduces the same records twice — once through a purely
// in-memory shard, once through a shard forced to spill — and demands
// byte-identical groups (same keys, same values, same order) plus equal
// max_group_bytes, the external-shuffle contract.

using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;

std::vector<KvBuffer> MakeBuffers(const std::vector<KeyValue>& records,
                                  size_t num_buffers) {
  std::vector<KvBuffer> buffers(num_buffers);
  for (size_t i = 0; i < records.size(); ++i) {
    buffers[i % num_buffers].Append(records[i].key, records[i].value);
  }
  return buffers;
}

Groups ShardGroups(const ShuffleShard& shard, uint64_t* max_group_bytes) {
  RecordingReducer reducer;
  NullEmitter out;
  EXPECT_TRUE(ReduceShard(&reducer, shard, &out, max_group_bytes).ok());
  return reducer.groups();
}

Groups InMemoryReference(const std::vector<KeyValue>& records,
                         size_t num_buffers, uint64_t* max_group_bytes) {
  ShuffleShard shard;
  std::vector<KvBuffer> buffers = MakeBuffers(records, num_buffers);
  for (KvBuffer& b : buffers) shard.AddBuffer(std::move(b));
  shard.SortByKey();
  return ShardGroups(shard, max_group_bytes);
}

TEST(ShuffleSpillTest, ZeroBudgetSpillsEveryBufferAndMatchesInMemory) {
  const std::vector<KeyValue> records = RandomRecords(300, 21);
  uint64_t want_max_group = 0;
  const Groups want = InMemoryReference(records, 4, &want_max_group);

  auto dir = store::TempSpillDir::Create("", "fsjoin-shuffle-test");
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  store::MemoryBudget budget(0);  // nothing fits: spill everything
  ShuffleShard shard;
  shard.EnableSpill(&budget, dir->path(), "zero");
  std::vector<KvBuffer> buffers = MakeBuffers(records, 4);
  for (KvBuffer& b : buffers) {
    ASSERT_TRUE(shard.AddBuffer(std::move(b)).ok());
  }
  ASSERT_TRUE(shard.Seal().ok());

  EXPECT_TRUE(shard.spilled());
  EXPECT_EQ(shard.spill_runs(), 4u);  // every buffer trips on arrival
  EXPECT_EQ(shard.spilled_bytes(), shard.PayloadBytes());
  EXPECT_EQ(budget.used(), 0u);  // all charges released at spill time

  uint64_t got_max_group = 0;
  EXPECT_EQ(ShardGroups(shard, &got_max_group), want);
  EXPECT_EQ(got_max_group, want_max_group);
}

TEST(ShuffleSpillTest, BudgetOfTwoArenasYieldsSingleRunFastPath) {
  const std::vector<KeyValue> records = RandomRecords(240, 22);
  uint64_t want_max_group = 0;
  const Groups want = InMemoryReference(records, 3, &want_max_group);

  auto dir = store::TempSpillDir::Create("", "fsjoin-shuffle-test");
  ASSERT_TRUE(dir.ok());
  std::vector<KvBuffer> buffers = MakeBuffers(records, 3);
  // Exactly the first two arenas fit; the third charge trips and spills
  // everything held so far as one run. Nothing arrives afterwards, so
  // Seal() is a no-op and the reduce exercises the merge-of-one path.
  store::MemoryBudget budget(buffers[0].PayloadBytes() +
                             buffers[1].PayloadBytes());
  ShuffleShard shard;
  shard.EnableSpill(&budget, dir->path(), "single");
  for (KvBuffer& b : buffers) {
    ASSERT_TRUE(shard.AddBuffer(std::move(b)).ok());
  }
  ASSERT_TRUE(shard.Seal().ok());

  EXPECT_EQ(shard.spill_runs(), 1u);
  EXPECT_EQ(shard.spilled_bytes(), shard.PayloadBytes());

  uint64_t got_max_group = 0;
  EXPECT_EQ(ShardGroups(shard, &got_max_group), want);
  EXPECT_EQ(got_max_group, want_max_group);
}

TEST(ShuffleSpillTest, SealSpillsTheInMemoryRemainderAsTheLastRun) {
  const std::vector<KeyValue> records = RandomRecords(400, 23);
  uint64_t want_max_group = 0;
  const Groups want = InMemoryReference(records, 4, &want_max_group);

  auto dir = store::TempSpillDir::Create("", "fsjoin-shuffle-test");
  ASSERT_TRUE(dir.ok());
  std::vector<KvBuffer> buffers = MakeBuffers(records, 4);
  // Buffers 0+1 fit, buffer 2 trips (run 0 = buffers 0..2), buffer 3 fits
  // again and must be flushed by Seal() as run 1 — the highest-numbered
  // run, so the merge tie-break still sees arrival order.
  store::MemoryBudget budget(buffers[0].PayloadBytes() +
                             buffers[1].PayloadBytes());
  ShuffleShard shard;
  shard.EnableSpill(&budget, dir->path(), "seal");
  for (KvBuffer& b : buffers) {
    ASSERT_TRUE(shard.AddBuffer(std::move(b)).ok());
  }
  ASSERT_TRUE(shard.Seal().ok());

  EXPECT_EQ(shard.spill_runs(), 2u);
  EXPECT_EQ(shard.spilled_bytes(), shard.PayloadBytes());
  EXPECT_EQ(budget.used(), 0u);

  uint64_t got_max_group = 0;
  EXPECT_EQ(ShardGroups(shard, &got_max_group), want);
  EXPECT_EQ(got_max_group, want_max_group);
}

TEST(ShuffleSpillTest, RecordLargerThanTheWholeBudgetPassesThrough) {
  // The governor never rejects: a single record bigger than the budget is
  // charged, trips, and is spilled as its own run.
  std::vector<KeyValue> records;
  records.push_back(KeyValue{"big", std::string(4096, 'x')});
  records.push_back(KeyValue{"a", "1"});
  records.push_back(KeyValue{"big", "2"});
  uint64_t want_max_group = 0;
  const Groups want = InMemoryReference(records, 1, &want_max_group);

  auto dir = store::TempSpillDir::Create("", "fsjoin-shuffle-test");
  ASSERT_TRUE(dir.ok());
  store::MemoryBudget budget(64);
  ShuffleShard shard;
  shard.EnableSpill(&budget, dir->path(), "big");
  KvBuffer oversized;
  oversized.Append(records[0].key, records[0].value);
  ASSERT_TRUE(shard.AddBuffer(std::move(oversized)).ok());
  EXPECT_EQ(shard.spill_runs(), 1u);
  KvBuffer small;  // fits in the budget, flushed by Seal()
  small.Append(records[1].key, records[1].value);
  small.Append(records[2].key, records[2].value);
  ASSERT_TRUE(shard.AddBuffer(std::move(small)).ok());
  ASSERT_TRUE(shard.Seal().ok());
  EXPECT_EQ(shard.spill_runs(), 2u);

  uint64_t got_max_group = 0;
  EXPECT_EQ(ShardGroups(shard, &got_max_group), want);
  EXPECT_EQ(got_max_group, want_max_group);
}

}  // namespace
}  // namespace fsjoin::mr

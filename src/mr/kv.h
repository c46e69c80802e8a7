#ifndef FSJOIN_MR_KV_H_
#define FSJOIN_MR_KV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fsjoin::mr {

/// One record flowing through the engine. As in Hadoop, keys and values are
/// opaque byte strings; typed layers (util/serde.h) sit on top. Keys are
/// grouped by bytewise equality and sorted bytewise during the shuffle, so
/// multi-field keys should use order-preserving encodings (PutFixed*BE).
struct KeyValue {
  std::string key;
  std::string value;

  uint64_t SizeBytes() const { return key.size() + value.size(); }
};

/// An in-memory dataset: a job's input or output, passed by the driver
/// from one job to the next. Inside a job the engine moves KvBuffer arenas instead; a
/// Dataset only materializes at job boundaries.
using Dataset = std::vector<KeyValue>;

/// Total serialized size of a dataset.
uint64_t DatasetBytes(const Dataset& dataset);

/// Append-only arena of key/value records: one contiguous byte buffer plus
/// a (offset, key_len, val_len) entry vector. Emitting a record appends its
/// bytes once; everything downstream (combiner sort, shuffle, grouped
/// reduce) works on string_views into the arena, so a record is never
/// re-copied between map emit and the reducer seeing it. Moving a KvBuffer
/// moves two pointers — the shuffle ships arenas, not records.
class KvBuffer {
 public:
  void Append(std::string_view key, std::string_view value) {
    entries_.push_back(Entry{data_.size(), static_cast<uint32_t>(key.size()),
                             static_cast<uint32_t>(value.size())});
    data_.append(key);
    data_.append(value);
  }

  /// Number of records.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Total key+value bytes — the arena holds nothing else, so this is the
  /// exact shuffle byte count of the buffer.
  uint64_t PayloadBytes() const { return data_.size(); }

  std::string_view key(size_t i) const {
    const Entry& e = entries_[i];
    return std::string_view(data_.data() + e.offset, e.key_len);
  }

  std::string_view value(size_t i) const {
    const Entry& e = entries_[i];
    return std::string_view(data_.data() + e.offset + e.key_len, e.val_len);
  }

  /// key.size() + value.size() of record i.
  uint64_t RecordBytes(size_t i) const {
    const Entry& e = entries_[i];
    return static_cast<uint64_t>(e.key_len) + e.val_len;
  }

  /// The raw arena (for tests asserting views alias it).
  std::string_view arena() const { return data_; }

  void clear() {
    data_.clear();
    entries_.clear();
  }

 private:
  struct Entry {
    uint64_t offset;
    uint32_t key_len;
    uint32_t val_len;
  };

  std::string data_;
  std::vector<Entry> entries_;
};

}  // namespace fsjoin::mr

#endif  // FSJOIN_MR_KV_H_

#ifndef FSJOIN_UTIL_SERDE_H_
#define FSJOIN_UTIL_SERDE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fsjoin {

/// Binary encoding helpers for MapReduce keys and values. Records flowing
/// through the MR engine are opaque byte strings (as in Hadoop); these
/// helpers give typed views on top.
///
/// Two integer encodings are provided:
///  * Varint (LEB128)     — compact, for values.
///  * BigEndian32/64      — fixed width, order-preserving, for keys that must
///                          sort correctly under bytewise comparison.

/// Appends an unsigned LEB128 varint.
void PutVarint64(std::string* dst, uint64_t v);
void PutVarint32(std::string* dst, uint32_t v);

/// Appends a 32/64-bit integer in big-endian order (bytewise-sortable).
void PutFixed32BE(std::string* dst, uint32_t v);
void PutFixed64BE(std::string* dst, uint64_t v);

/// Appends a length-prefixed byte string.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Appends a varint-length-prefixed vector of uint32 (each varint coded):
/// the count, then PutVarint32Run.
void PutUint32Vector(std::string* dst, const std::vector<uint32_t>& v);

/// Bytes PutVarint64 writes for `v`.
inline size_t VarintLength(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Writes `v` as a LEB128 varint at `p`; returns the byte after it.
inline char* EncodeVarint64(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

/// Appends `n` values as varints, the same bytes as n PutVarint32 calls.
/// A run sizes `dst` once and writes through a pointer.
inline void PutVarint32Run(std::string* dst, const uint32_t* v, size_t n) {
  size_t len = 0;
  for (size_t i = 0; i < n; ++i) len += VarintLength(v[i]);
  const size_t start = dst->size();
  dst->resize(start + len);
  char* p = dst->data() + start;
  for (size_t i = 0; i < n; ++i) p = EncodeVarint64(p, v[i]);
}

/// Appends a strictly ascending run as gaps: v[0] as a varint, then each
/// v[i] - v[i-1] (always >= 1). GetAscendingVarint32Run inverts it.
inline void PutAscendingVarint32Run(std::string* dst, const uint32_t* v,
                                    size_t n) {
  size_t len = 0;
  uint32_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    len += VarintLength(v[i] - prev);
    prev = v[i];
  }
  const size_t start = dst->size();
  dst->resize(start + len);
  char* p = dst->data() + start;
  prev = 0;
  for (size_t i = 0; i < n; ++i) {
    p = EncodeVarint64(p, v[i] - prev);
    prev = v[i];
  }
}

/// Parses one LEB128 varint from [p, end). Returns the byte after it, or
/// null with `*error` set when the input ends first or the value exceeds
/// 64 bits. The one varint parser: Decoder's getters and runs all use it.
inline const char* ParseVarint64(const char* p, const char* end, uint64_t* v,
                                 Status* error) {
  uint64_t result = 0;
  int shift = 0;
  while (p < end) {
    const unsigned char byte = static_cast<unsigned char>(*p++);
    if (shift >= 63 && byte > 1) {
      *error = Status::OutOfRange("varint64 overflow");
      return nullptr;
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return p;
    }
    shift += 7;
  }
  *error = Status::OutOfRange("truncated varint64");
  return nullptr;
}

/// ParseVarint64 for a value that must fit 32 bits, with a one-byte fast
/// path.
inline const char* ParseVarint32(const char* p, const char* end, uint32_t* v,
                                 Status* error) {
  if (p < end && static_cast<unsigned char>(*p) < 0x80) {
    *v = static_cast<unsigned char>(*p);
    return p + 1;
  }
  uint64_t wide = 0;
  p = ParseVarint64(p, end, &wide, error);
  if (p == nullptr) return nullptr;
  if (wide > 0xffffffffULL) {
    *error = Status::OutOfRange("varint32 overflow");
    return nullptr;
  }
  *v = static_cast<uint32_t>(wide);
  return p;
}

/// Cursor-style decoder over a byte string. All Get* methods return an
/// error status on truncated or malformed input instead of crashing, so a
/// corrupted shuffle record surfaces as a job failure.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data), pos_(0) {}

  Status GetVarint64(uint64_t* v);
  Status GetVarint32(uint32_t* v);
  Status GetFixed32BE(uint32_t* v);
  Status GetFixed64BE(uint64_t* v);
  Status GetLengthPrefixed(std::string_view* value);
  Status GetUint32Vector(std::vector<uint32_t>* v);

  /// Reads `n` varint32s into out[0..n). On error `out` holds garbage and
  /// the cursor has not moved.
  Status GetVarint32Run(uint32_t* out, size_t n) {
    const char* p = data_.data() + pos_;
    const char* end = data_.data() + data_.size();
    Status error;
    for (size_t i = 0; i < n; ++i) {
      p = ParseVarint32(p, end, &out[i], &error);
      if (p == nullptr) return error;
    }
    pos_ = static_cast<size_t>(p - data_.data());
    return Status::OK();
  }

  /// Reads a PutAscendingVarint32Run of `n` values into out[0..n). A zero
  /// gap (the run is a set) and a running sum past 2^32 - 1 are errors, as
  /// are the varint errors of GetVarint32Run; the cursor then has not moved.
  Status GetAscendingVarint32Run(uint32_t* out, size_t n) {
    const char* p = data_.data() + pos_;
    const char* end = data_.data() + data_.size();
    Status error;
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      uint32_t gap = 0;
      p = ParseVarint32(p, end, &gap, &error);
      if (p == nullptr) return error;
      if (gap == 0 && i > 0) {
        return Status::Corruption("ascending run: zero gap");
      }
      sum += gap;
      if (sum > 0xffffffffULL) {
        return Status::Corruption("ascending run: value past 2^32 - 1");
      }
      out[i] = static_cast<uint32_t>(sum);
    }
    pos_ = static_cast<size_t>(p - data_.data());
    return Status::OK();
  }

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_;
};

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_SERDE_H_

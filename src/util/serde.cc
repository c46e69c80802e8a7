#include "util/serde.h"

namespace fsjoin {

void PutVarint64(std::string* dst, uint64_t v) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, v));
}

void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutFixed32BE(std::string* dst, uint32_t v) {
  dst->push_back(static_cast<char>((v >> 24) & 0xff));
  dst->push_back(static_cast<char>((v >> 16) & 0xff));
  dst->push_back(static_cast<char>((v >> 8) & 0xff));
  dst->push_back(static_cast<char>(v & 0xff));
}

void PutFixed64BE(std::string* dst, uint64_t v) {
  PutFixed32BE(dst, static_cast<uint32_t>(v >> 32));
  PutFixed32BE(dst, static_cast<uint32_t>(v & 0xffffffffULL));
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

void PutUint32Vector(std::string* dst, const std::vector<uint32_t>& v) {
  PutVarint64(dst, v.size());
  PutVarint32Run(dst, v.data(), v.size());
}

Status Decoder::GetVarint64(uint64_t* v) {
  Status error;
  const char* p = ParseVarint64(data_.data() + pos_,
                                data_.data() + data_.size(), v, &error);
  if (p == nullptr) return error;
  pos_ = static_cast<size_t>(p - data_.data());
  return Status::OK();
}

Status Decoder::GetVarint32(uint32_t* v) { return GetVarint32Run(v, 1); }

Status Decoder::GetFixed32BE(uint32_t* v) {
  if (remaining() < 4) return Status::OutOfRange("truncated fixed32");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  *v = (static_cast<uint32_t>(p[0]) << 24) |
       (static_cast<uint32_t>(p[1]) << 16) |
       (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  pos_ += 4;
  return Status::OK();
}

Status Decoder::GetFixed64BE(uint64_t* v) {
  uint32_t hi = 0, lo = 0;
  FSJOIN_RETURN_NOT_OK(GetFixed32BE(&hi));
  FSJOIN_RETURN_NOT_OK(GetFixed32BE(&lo));
  *v = (static_cast<uint64_t>(hi) << 32) | lo;
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string_view* value) {
  uint64_t len = 0;
  FSJOIN_RETURN_NOT_OK(GetVarint64(&len));
  if (len > remaining()) return Status::OutOfRange("truncated string");
  *value = data_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetUint32Vector(std::vector<uint32_t>* v) {
  uint64_t n = 0;
  FSJOIN_RETURN_NOT_OK(GetVarint64(&n));
  if (n > remaining()) {
    // Each element takes at least one byte, so n > remaining is malformed.
    return Status::OutOfRange("truncated uint32 vector");
  }
  v->resize(n);
  return GetVarint32Run(v->data(), n);
}

}  // namespace fsjoin

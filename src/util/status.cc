#include "util/status.h"

namespace fsjoin {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace fsjoin

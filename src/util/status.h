#ifndef FSJOIN_UTIL_STATUS_H_
#define FSJOIN_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace fsjoin {

/// Error categories used across the library. Mirrors the Arrow/RocksDB
/// convention of status-code based error handling: no exceptions cross the
/// public API boundary.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInternal = 6,
  kIoError = 7,
  kUnimplemented = 8,
  kResourceExhausted = 9,
  kCorruption = 10,
  /// A task attempt was lost before it could report its own status: its
  /// process crashed, was killed or timed out, or its worker died. The
  /// only failure the task scheduler retries.
  kUnavailable = 11,
};

/// Returns a stable, human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result carrying a code and a message.
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error holder, analogous to arrow::Result.
///
/// Usage:
///   Result<Corpus> r = LoadCorpus(path);
///   if (!r.ok()) return r.status();
///   Corpus c = std::move(r).value();
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from a non-OK status (error).
  Result(Status status) : repr_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns the error status, or OK if this holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  /// Requires ok(). Accessors for the stored value.
  const T& value() const& { return std::get<T>(repr_); }
  T& value() & { return std::get<T>(repr_); }
  T&& value() && { return std::move(std::get<T>(repr_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> repr_;
};

/// Propagates a non-OK status from an expression to the caller.
#define FSJOIN_RETURN_NOT_OK(expr)                  \
  do {                                              \
    ::fsjoin::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                      \
  } while (false)

/// Assigns the value of a Result<T> expression to `lhs`, or returns its
/// error status. `lhs` may include a declaration: FSJOIN_ASSIGN_OR_RETURN(
/// auto x, MakeX());
#define FSJOIN_ASSIGN_OR_RETURN(lhs, rexpr)         \
  FSJOIN_ASSIGN_OR_RETURN_IMPL(                     \
      FSJOIN_STATUS_CONCAT(_result_, __LINE__), lhs, rexpr)

#define FSJOIN_STATUS_CONCAT_INNER(a, b) a##b
#define FSJOIN_STATUS_CONCAT(a, b) FSJOIN_STATUS_CONCAT_INNER(a, b)
#define FSJOIN_ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                                 \
  if (!result.ok()) return result.status();              \
  lhs = std::move(result).value();

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_STATUS_H_

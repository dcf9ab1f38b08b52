#ifndef PGHIVE_UTIL_STATUS_H_
#define PGHIVE_UTIL_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace pghive::util {

/// Error categories used across the library. The public API never throws;
/// fallible operations return Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kParseError,
  kIoError,
  kInternal,
};

/// Returns a short human-readable name for a status code ("OK", "NOT_FOUND").
const char* StatusCodeName(StatusCode code);

/// A lightweight success-or-error value. Cheap to copy on the OK path.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-Status union: the return type of every fallible factory path
/// (graph loading, schema parsing, option parsing, session creation) so
/// errors propagate without sentinel values or bool/out-param pairs.
/// Access to value() / operator* on an error aborts, so callers must check
/// ok() (or use value_or) first.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : data_(std::move(value)) {}          // NOLINT(runtime/explicit)
  StatusOr(Status status) : data_(std::move(status)) {}   // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(data_); }

  const Status& status() const {
    static const Status kOkStatus;
    if (ok()) return kOkStatus;
    return std::get<Status>(data_);
  }
  /// The status code (kOk when this holds a value).
  StatusCode code() const { return status().code(); }

  const T& value() const& {
    CheckOk();
    return std::get<T>(data_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(data_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(data_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    if (ok()) return std::get<T>(data_);
    return fallback;
  }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::fprintf(stderr, "StatusOr::value() on error: %s\n",
                   std::get<Status>(data_).ToString().c_str());
      std::abort();
    }
  }

  std::variant<T, Status> data_;
};

}  // namespace pghive::util

/// Aborts with a message when `cond` is false. Used for internal invariants
/// only (never for user input, which goes through Status).
#define PGHIVE_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "PGHIVE_CHECK failed at %s:%d: %s\n",        \
                   __FILE__, __LINE__, #cond);                          \
      std::abort();                                                     \
    }                                                                   \
  } while (0)

#endif  // PGHIVE_UTIL_STATUS_H_

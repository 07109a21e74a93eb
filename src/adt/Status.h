//===- Status.h - Structured error reporting --------------------*- C++ -*-===//
//
// Part of the grasshopper project, reproducing Hardekopf & Lin, PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small structured-error type for library-path failures. Anything that
/// can be reached from file or command-line input (constraint-file parsing,
/// solver selection, resource budgets) reports failures as an ag::Status
/// instead of asserting, so release builds reject bad input cleanly rather
/// than exhibiting undefined behaviour. Asserts remain for programmer
/// errors that no external input can trigger.
///
//===----------------------------------------------------------------------===//

#ifndef AG_ADT_STATUS_H
#define AG_ADT_STATUS_H

#include <cstdint>
#include <string>
#include <utility>

namespace ag {

/// Machine-readable failure categories.
enum class StatusCode : uint8_t {
  Ok,               ///< No error.
  InvalidArgument,  ///< Caller-supplied value out of the accepted domain.
  ParseError,       ///< Malformed textual input (.cons files, mini-C).
  IoError,          ///< File could not be read or written.
  DeadlineExceeded, ///< SolveBudget wall-clock limit tripped.
  MemoryLimit,      ///< SolveBudget peak-memory cap tripped.
  StepLimit,        ///< SolveBudget propagation/edge ceiling tripped.
  Cancelled,        ///< Cooperative cancellation was requested.
  FaultInjected,    ///< A test-armed FaultInjector site fired.
  Internal,         ///< Invariant violation surfaced as an error.
};

/// Returns a stable name for \p Code ("ok", "deadline_exceeded", ...).
inline const char *statusCodeName(StatusCode Code) {
  switch (Code) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::InvalidArgument:
    return "invalid_argument";
  case StatusCode::ParseError:
    return "parse_error";
  case StatusCode::IoError:
    return "io_error";
  case StatusCode::DeadlineExceeded:
    return "deadline_exceeded";
  case StatusCode::MemoryLimit:
    return "memory_limit";
  case StatusCode::StepLimit:
    return "step_limit";
  case StatusCode::Cancelled:
    return "cancelled";
  case StatusCode::FaultInjected:
    return "fault_injected";
  case StatusCode::Internal:
    return "internal";
  }
  return "unknown";
}

/// An error code plus a human-readable message. Cheap to return by value;
/// the OK status carries no allocation.
class Status {
public:
  /// Default-constructs the OK status.
  Status() = default;

  Status(StatusCode Code, std::string Message)
      : Code(Code), Msg(std::move(Message)) {}

  static Status okStatus() { return Status(); }
  static Status invalidArgument(std::string Msg) {
    return Status(StatusCode::InvalidArgument, std::move(Msg));
  }
  static Status parseError(std::string Msg) {
    return Status(StatusCode::ParseError, std::move(Msg));
  }
  static Status ioError(std::string Msg) {
    return Status(StatusCode::IoError, std::move(Msg));
  }
  static Status deadlineExceeded(std::string Msg) {
    return Status(StatusCode::DeadlineExceeded, std::move(Msg));
  }
  static Status memoryLimit(std::string Msg) {
    return Status(StatusCode::MemoryLimit, std::move(Msg));
  }
  static Status stepLimit(std::string Msg) {
    return Status(StatusCode::StepLimit, std::move(Msg));
  }
  static Status cancelled(std::string Msg) {
    return Status(StatusCode::Cancelled, std::move(Msg));
  }
  static Status faultInjected(std::string Msg) {
    return Status(StatusCode::FaultInjected, std::move(Msg));
  }
  static Status internal(std::string Msg) {
    return Status(StatusCode::Internal, std::move(Msg));
  }

  bool ok() const { return Code == StatusCode::Ok; }
  StatusCode code() const { return Code; }
  const std::string &message() const { return Msg; }

  /// True if this is a resource-budget trip (the degradable failures).
  bool isBudgetTrip() const {
    return Code == StatusCode::DeadlineExceeded ||
           Code == StatusCode::MemoryLimit ||
           Code == StatusCode::StepLimit ||
           Code == StatusCode::Cancelled ||
           Code == StatusCode::FaultInjected;
  }

  /// "code: message" rendering for diagnostics.
  std::string toString() const {
    if (ok())
      return "ok";
    std::string Out = statusCodeName(Code);
    if (!Msg.empty()) {
      Out += ": ";
      Out += Msg;
    }
    return Out;
  }

private:
  StatusCode Code = StatusCode::Ok;
  std::string Msg;
};

} // namespace ag

#endif // AG_ADT_STATUS_H

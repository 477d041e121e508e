// Typed error propagation for API boundaries that must not throw.
//
// The library's internal layers throw (`std::runtime_error` from the codec,
// `std::invalid_argument` from shape checks): that is the right contract for
// programming errors and for single-process tools. A serving process is
// different — a malformed bitstream from one client must become a typed,
// per-request error, never an exception unwinding through a worker thread
// that is batching other clients' requests. The `Status`-returning variants
// use this type at that boundary: `jpeg::try_decode_jfif`, which the server
// runs on every submit, and everything in `src/serve`. Two more return it:
// `core::try_receiver_reconstruct`, the whole receiver for one-shot callers
// that must not throw, and `nn::plan::PlanCache`, whose refused builds a
// running batch answers by running eager.
//
// Header-only; usable from every layer (no target links required beyond the
// src/ include path).
#pragma once

#include <string>
#include <utility>

namespace dcdiff {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,    // malformed request (bad bitstream, bad config)
  kDataLoss,           // parsed but provably corrupt payload
  kResourceExhausted,  // backpressure: queue full, try again later
  kDeadlineExceeded,   // request expired before (or while) being served
  kUnavailable,        // server shutting down / not accepting work
  kInternal,           // unexpected failure inside the pipeline
};

// Human-readable code name ("ok", "invalid_argument", ...).
inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kDataLoss: return "data_loss";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kDeadlineExceeded: return "deadline_exceeded";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kInternal: return "internal";
  }
  return "?";
}

class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }
  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status data_loss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status resource_exhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status deadline_exceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (is_ok()) return "ok";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

}  // namespace dcdiff

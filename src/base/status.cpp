#include "src/base/status.h"

#include <cstring>
#include <exception>
#include <new>

namespace t2m {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::ok: return "ok";
    case ErrorCode::io_error: return "io_error";
    case ErrorCode::parse_error: return "parse_error";
    case ErrorCode::resource_exhausted: return "resource_exhausted";
    case ErrorCode::deadline_exceeded: return "deadline_exceeded";
    case ErrorCode::internal: return "internal";
    case ErrorCode::cancelled: return "cancelled";
    case ErrorCode::clause_budget: return "clause_budget";
  }
  return "internal";
}

bool parse_error_code(const std::string& name, ErrorCode& code) {
  // The codes are contiguous from ok to clause_budget, the last one.
  for (int i = 0; i <= static_cast<int>(ErrorCode::clause_budget); ++i) {
    if (name == error_code_name(static_cast<ErrorCode>(i))) {
      code = static_cast<ErrorCode>(i);
      return true;
    }
  }
  return false;
}

bool cut_short(ErrorCode code) {
  return code == ErrorCode::deadline_exceeded || code == ErrorCode::cancelled ||
         code == ErrorCode::clause_budget || code == ErrorCode::resource_exhausted;
}

int error_code_exit_status(ErrorCode code) {
  switch (code) {
    case ErrorCode::ok: return 0;
    case ErrorCode::io_error: return 10;
    case ErrorCode::parse_error: return 11;
    case ErrorCode::resource_exhausted: return 12;
    case ErrorCode::deadline_exceeded: return 13;
    case ErrorCode::internal: return 14;
    case ErrorCode::cancelled: return 15;
    case ErrorCode::clause_budget: return 12;
  }
  return 14;
}

std::string Status::to_string() const {
  if (ok()) return "ok";
  std::string out = error_code_name(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::string errno_message(const std::string& what, const std::string& path,
                          int errno_value) {
  std::string out = what;
  if (!path.empty()) {
    out += " ";
    out += path;
  }
  out += " (";
  out += std::strerror(errno_value);
  out += ")";
  return out;
}

Status status_from_current_exception() {
  try {
    throw;
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("allocation failed (std::bad_alloc)");
  } catch (const std::invalid_argument& e) {
    return Status::ParseError(e.what());
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("unknown exception");
  }
}

}  // namespace t2m

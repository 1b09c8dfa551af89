// Precondition / invariant checking helpers.
//
// Following the C++ Core Guidelines (I.5, I.6, E.x) we express preconditions
// as explicit checks that throw typed exceptions. These helpers keep call
// sites terse while preserving a useful message.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rainshine::util {

/// Thrown when a caller violates a documented precondition.
class precondition_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is broken (a library bug, not a caller
/// bug). Distinct from precondition_error so tests can tell them apart.
class invariant_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Throws precondition_error with `message` (annotated with the call site)
/// unless `condition` holds. A literal message costs nothing when the check
/// passes; a message the caller concatenates is built on every call.
inline void require(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw precondition_error(std::string(loc.file_name()) + ":" +
                             std::to_string(loc.line()) + ": " +
                             std::string(message));
  }
}

/// Throws invariant_error with `message` unless `condition` holds.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw invariant_error(std::string(loc.file_name()) + ":" +
                          std::to_string(loc.line()) + ": " +
                          std::string(message));
  }
}

}  // namespace rainshine::util

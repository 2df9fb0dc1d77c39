// Error types and precondition checks shared across the library.
//
// The library throws exceptions for contract violations at API boundaries
// (bad parameters, malformed data) and uses the util/contracts.hpp macros
// (ADIV_ASSERT / ADIV_UNREACHABLE) for internal invariants that indicate a
// library bug rather than caller error.
//
// require() and require_data() sit on every hot loop, so a passing check
// costs one branch: the message is a view, copied into a std::string only
// when the check fails. Pass a literal (or a view that outlives the call).
// A message that needs formatting must be formatted only on failure — write
// `if (!cond) throw DataError("..." + std::to_string(x));` instead of
// building the string for require() on every call.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "util/contracts.hpp"

namespace adiv {

/// Caller passed an argument that violates a documented precondition.
class InvalidArgument : public std::invalid_argument {
public:
    using std::invalid_argument::invalid_argument;
};

/// Input data (stream, corpus, model file) is malformed or inconsistent.
class DataError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A synthesis / search procedure could not satisfy its constraints
/// (e.g. no injectable minimal foreign sequence exists for the request).
class SynthesisError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Throws InvalidArgument with the given message unless cond holds.
inline void require(bool cond, std::string_view message) {
    if (!cond) [[unlikely]]
        throw InvalidArgument(std::string(message));
}

/// Throws DataError with the given message unless cond holds.
inline void require_data(bool cond, std::string_view message) {
    if (!cond) [[unlikely]]
        throw DataError(std::string(message));
}

}  // namespace adiv

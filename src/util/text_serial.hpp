// Helpers for the line-oriented text serialization format used by model and
// stream persistence (io/model_io, io/stream_io).
//
// The format is whitespace-separated tokens with literal tags; doubles are
// written with 17 significant digits, which round-trips IEEE-754 doubles
// exactly. Readers throw DataError with the offending tag on any mismatch,
// so a truncated or corrupted file fails loudly. A count read from a file
// bounds a loop, never an allocation: loaders grow their containers as the
// items arrive, so a corrupt header ends in DataError when the input runs
// out, not in a huge reserve.
#pragma once

#include <cstdint>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace adiv {

/// Writes a double with enough digits for exact round-tripping.
inline void write_double(std::ostream& out, double value) {
    out << std::setprecision(17) << value;
}

/// Reads the next whitespace-separated token; throws DataError at EOF.
/// `what` names the value in the error message, which is built only on
/// failure.
inline std::string read_token(std::istream& in, std::string_view what) {
    std::string token;
    if (!(in >> token))
        throw DataError("input truncated while reading " + std::string(what));
    return token;
}

/// Reads a token and requires it to equal `tag` exactly.
inline void expect_tag(std::istream& in, std::string_view tag) {
    std::string token;
    if (!(in >> token))
        throw DataError("input truncated while reading tag '" +
                        std::string(tag) + "'");
    if (token != tag)
        throw DataError("input corrupt: expected '" + std::string(tag) +
                        "', found '" + token + "'");
}

/// Parses an unsigned integer token of decimal digits. std::stoull alone
/// would also take a leading sign, and read "-1" as 2^64 - 1.
inline std::uint64_t parse_u64(const std::string& token, std::string_view what) {
    if (!token.empty() && token[0] >= '0' && token[0] <= '9') {
        try {
            std::size_t consumed = 0;
            const std::uint64_t value = std::stoull(token, &consumed);
            if (consumed != token.size())
                throw DataError("trailing junk in " + std::string(what));
            return value;
        } catch (const std::out_of_range&) {
        }
    }
    throw DataError("input corrupt: '" + token + "' is not a valid " +
                    std::string(what));
}

/// Reads an unsigned integer token (see parse_u64).
inline std::uint64_t read_u64(std::istream& in, std::string_view what) {
    return parse_u64(read_token(in, what), what);
}

/// Reads a size_t token.
inline std::size_t read_size(std::istream& in, std::string_view what) {
    return static_cast<std::size_t>(read_u64(in, what));
}

/// Parses a symbol id (a 32-bit Symbol, seq/types.hpp) and requires it to
/// be below `alphabet_size`. The check runs on the 64-bit value, before the
/// narrowing, so an id of 2^32 + 1 is rejected rather than read as 1.
inline std::uint32_t parse_symbol(const std::string& token,
                                  std::uint64_t alphabet_size,
                                  std::string_view what) {
    const std::uint64_t id = parse_u64(token, what);
    if (id >= alphabet_size)
        throw DataError(std::string(what) + " outside alphabet");
    return static_cast<std::uint32_t>(id);
}

/// Reads a symbol id token (see parse_symbol).
inline std::uint32_t read_symbol(std::istream& in, std::uint64_t alphabet_size,
                                 std::string_view what) {
    return parse_symbol(read_token(in, what), alphabet_size, what);
}

/// Reads a double token.
inline double read_double(std::istream& in, std::string_view what) {
    const std::string token = read_token(in, what);
    try {
        std::size_t consumed = 0;
        const double value = std::stod(token, &consumed);
        if (consumed != token.size())
            throw DataError("trailing junk in " + std::string(what));
        return value;
    } catch (const std::logic_error&) {
        throw DataError("input corrupt: '" + token + "' is not a valid " +
                        std::string(what));
    }
}

}  // namespace adiv

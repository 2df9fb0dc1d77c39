// Trace persistence: event streams and named traces as plain text.
//
// Two formats:
//
//   * Raw stream: `adiv-stream 1 <alphabet> <length>` followed by symbol ids
//     (whitespace separated). For corpora and intermediate artifacts.
//
//   * Named trace: `adiv-trace 1 <alphabet> <length>`, one line per alphabet
//     name, then symbol NAMES whitespace separated — the shape of real audit
//     data (system-call or command logs), importable from other tools.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/stream.hpp"

namespace adiv {

/// What follows an `adiv-stream` or `adiv-trace` tag.
struct StreamHeader {
    std::size_t alphabet_size = 0;
    std::size_t length = 0;          ///< declared event count
    std::vector<std::string> names;  ///< a trace's alphabet names; empty for a stream
};

/// Reads the header after `tag` ("adiv-stream" or "adiv-trace", already
/// consumed by the caller): the format version (checked), the alphabet
/// size, the length and, for a trace, the alphabet names. The names grow
/// as they are read; nothing is sized from a declared count. Throws
/// DataError on a malformed or truncated header.
StreamHeader read_stream_header(std::istream& in, std::string_view tag);

void save_stream(const EventStream& stream, std::ostream& out);
EventStream load_stream(std::istream& in);

void save_stream_file(const EventStream& stream, const std::string& path);
EventStream load_stream_file(const std::string& path);

void save_trace(const Alphabet& alphabet, const EventStream& stream,
                std::ostream& out);
std::pair<Alphabet, EventStream> load_trace(std::istream& in);

void save_trace_file(const Alphabet& alphabet, const EventStream& stream,
                     const std::string& path);
std::pair<Alphabet, EventStream> load_trace_file(const std::string& path);

}  // namespace adiv

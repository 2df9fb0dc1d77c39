#include "io/stream_io.hpp"

#include <fstream>
#include <ostream>

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

namespace {
constexpr int kFormatVersion = 1;

std::ofstream open_out(const std::string& path) {
    std::ofstream out(path);
    require_data(out.good(), "cannot open '" + path + "' for writing");
    return out;
}

std::ifstream open_in(const std::string& path) {
    std::ifstream in(path);
    require_data(in.good(), "cannot open '" + path + "' for reading");
    return in;
}
}  // namespace

void save_stream(const EventStream& stream, std::ostream& out) {
    out << "adiv-stream " << kFormatVersion << ' ' << stream.alphabet_size() << ' '
        << stream.size() << '\n';
    for (std::size_t i = 0; i < stream.size(); ++i) {
        out << stream[i];
        out << ((i + 1) % 20 == 0 ? '\n' : ' ');
    }
    out << '\n';
}

StreamHeader read_stream_header(std::istream& in, std::string_view tag) {
    const bool trace = tag == "adiv-trace";
    const std::uint64_t version = read_u64(in, "format version");
    if (version != kFormatVersion)
        throw DataError("unsupported " + std::string(tag) + " format version " +
                        std::to_string(version));
    StreamHeader header;
    header.alphabet_size = read_size(in, "alphabet size");
    header.length = read_size(in, trace ? "trace length" : "stream length");
    if (trace)
        for (std::size_t i = 0; i < header.alphabet_size; ++i)
            header.names.push_back(read_token(in, "alphabet name"));
    return header;
}

EventStream load_stream(std::istream& in) {
    expect_tag(in, "adiv-stream");
    const StreamHeader header = read_stream_header(in, "adiv-stream");
    Sequence events;
    for (std::size_t i = 0; i < header.length; ++i)
        events.push_back(read_symbol(in, header.alphabet_size, "stream symbol"));
    return EventStream(header.alphabet_size, std::move(events));
}

void save_stream_file(const EventStream& stream, const std::string& path) {
    auto out = open_out(path);
    save_stream(stream, out);
    require_data(out.good(), "write to '" + path + "' failed");
}

EventStream load_stream_file(const std::string& path) {
    auto in = open_in(path);
    return load_stream(in);
}

void save_trace(const Alphabet& alphabet, const EventStream& stream,
                std::ostream& out) {
    require(alphabet.size() == stream.alphabet_size(),
            "alphabet does not match the stream's alphabet size");
    out << "adiv-trace " << kFormatVersion << ' ' << alphabet.size() << ' '
        << stream.size() << '\n';
    for (std::size_t i = 0; i < alphabet.size(); ++i)
        out << alphabet.name(static_cast<Symbol>(i)) << '\n';
    for (std::size_t i = 0; i < stream.size(); ++i) {
        out << alphabet.name(stream[i]);
        out << ((i + 1) % 10 == 0 ? '\n' : ' ');
    }
    out << '\n';
}

std::pair<Alphabet, EventStream> load_trace(std::istream& in) {
    expect_tag(in, "adiv-trace");
    const StreamHeader header = read_stream_header(in, "adiv-trace");
    Alphabet alphabet(header.names);
    Sequence events;
    for (std::size_t i = 0; i < header.length; ++i)
        events.push_back(alphabet.id(read_token(in, "trace symbol")));
    return {std::move(alphabet), EventStream(header.alphabet_size, std::move(events))};
}

void save_trace_file(const Alphabet& alphabet, const EventStream& stream,
                     const std::string& path) {
    auto out = open_out(path);
    save_trace(alphabet, stream, out);
    require_data(out.good(), "write to '" + path + "' failed");
}

std::pair<Alphabet, EventStream> load_trace_file(const std::string& path) {
    auto in = open_in(path);
    return load_trace(in);
}

}  // namespace adiv

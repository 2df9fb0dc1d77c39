// Fuzz target for stream and trace deserialization (io/stream_io.cpp), the
// files adiv_score --input and adiv_train --input read. The contract:
// arbitrary bytes fed to load_stream or load_trace may produce DataError or
// InvalidArgument, but never a crash or an allocation sized by a header
// count alone. Whatever loads must re-save and load again equal.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "io/stream_io.hpp"
#include "util/error.hpp"

namespace {

void check_stream(const std::string& bytes) {
    std::istringstream in(bytes);
    const adiv::EventStream stream = adiv::load_stream(in);
    std::ostringstream out;
    adiv::save_stream(stream, out);
    std::istringstream again(out.str());
    const adiv::EventStream reloaded = adiv::load_stream(again);
    if (reloaded.alphabet_size() != stream.alphabet_size() ||
        reloaded.events() != stream.events())
        __builtin_trap();
}

void check_trace(const std::string& bytes) {
    std::istringstream in(bytes);
    const auto [alphabet, stream] = adiv::load_trace(in);
    std::ostringstream out;
    adiv::save_trace(alphabet, stream, out);
    std::istringstream again(out.str());
    const auto [alphabet_again, reloaded] = adiv::load_trace(again);
    if (alphabet_again.size() != alphabet.size() ||
        reloaded.alphabet_size() != stream.alphabet_size() ||
        reloaded.events() != stream.events())
        __builtin_trap();
    for (std::size_t i = 0; i < alphabet.size(); ++i) {
        const auto s = static_cast<adiv::Symbol>(i);
        if (alphabet_again.name(s) != alphabet.name(s)) __builtin_trap();
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string bytes(reinterpret_cast<const char*>(data), size);
    try {
        check_stream(bytes);
    } catch (const adiv::DataError&) {
    } catch (const adiv::InvalidArgument&) {
    }
    try {
        check_trace(bytes);
    } catch (const adiv::DataError&) {
    } catch (const adiv::InvalidArgument&) {
    }
    return 0;
}

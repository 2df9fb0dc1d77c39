#include "io/stream_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "datagen/trace_model.hpp"
#include "support/corpus_fixture.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

TEST(StreamIo, RoundTripsSmallStream) {
    const EventStream original(8, {0, 1, 2, 3, 4, 5, 6, 7, 0, 1});
    std::stringstream buffer;
    save_stream(original, buffer);
    const EventStream restored = load_stream(buffer);
    EXPECT_EQ(restored.alphabet_size(), 8u);
    EXPECT_EQ(restored.events(), original.events());
}

TEST(StreamIo, RoundTripsLargeStream) {
    const EventStream original = test::small_corpus().generate_heldout(30'000, 5);
    std::stringstream buffer;
    save_stream(original, buffer);
    EXPECT_EQ(load_stream(buffer).events(), original.events());
}

TEST(StreamIo, RoundTripsEmptyStream) {
    const EventStream original(4);
    std::stringstream buffer;
    save_stream(original, buffer);
    const EventStream restored = load_stream(buffer);
    EXPECT_TRUE(restored.empty());
    EXPECT_EQ(restored.alphabet_size(), 4u);
}

TEST(StreamIo, RejectsBadHeader) {
    std::istringstream in("adiv-noise 1 4 0");
    EXPECT_THROW((void)load_stream(in), DataError);
}

TEST(StreamIo, RejectsTruncation) {
    std::istringstream in("adiv-stream 1 4 5 0 1 2");
    EXPECT_THROW((void)load_stream(in), DataError);
}

TEST(StreamIo, RejectsOutOfAlphabetSymbol) {
    std::istringstream in("adiv-stream 1 4 2 0 7");
    EXPECT_THROW((void)load_stream(in), DataError);
}

TEST(StreamIo, RejectsSymbolIdThatWrapsIn32Bits) {
    // 2^32 + 1 must not be read as symbol 1 (which would make the first
    // window the known window 1 2 3 4).
    std::istringstream in("adiv-stream 1 8 6\n4294967297 2 3 4 5 6\n");
    EXPECT_THROW((void)load_stream(in), DataError);
}

TEST(StreamIo, FileHelpersRoundTrip) {
    const EventStream original(8, {3, 1, 4, 1, 5});
    const std::string path = test::temp_path("adiv_stream_io_test.adiv");
    save_stream_file(original, path);
    EXPECT_EQ(load_stream_file(path).events(), original.events());
    std::remove(path.c_str());
    EXPECT_THROW((void)load_stream_file(path), DataError);
}

TEST(TraceIo, RoundTripsNamedTrace) {
    const TraceModel model = make_syscall_model();
    const EventStream stream = model.generate(500, 11);
    std::stringstream buffer;
    save_trace(model.alphabet(), stream, buffer);
    const auto [alphabet, restored] = load_trace(buffer);
    EXPECT_EQ(alphabet.size(), model.alphabet().size());
    EXPECT_EQ(alphabet.name(0), model.alphabet().name(0));
    EXPECT_EQ(restored.events(), stream.events());
}

TEST(TraceIo, RejectsMismatchedAlphabet) {
    const Alphabet alphabet({"a", "b"});
    const EventStream stream(3, {0, 1, 2});
    std::ostringstream out;
    EXPECT_THROW(save_trace(alphabet, stream, out), InvalidArgument);
}

TEST(TraceIo, RejectsUnknownSymbolName) {
    std::istringstream in("adiv-trace 1 2 2 open close open missing");
    EXPECT_THROW((void)load_trace(in), InvalidArgument);
}

TEST(TraceIo, FileHelpersRoundTrip) {
    const TraceModel model = make_command_model();
    const EventStream stream = model.generate(200, 3);
    const std::string path = test::temp_path("adiv_trace_io_test.adiv");
    save_trace_file(model.alphabet(), stream, path);
    const auto [alphabet, restored] = load_trace_file(path);
    EXPECT_EQ(restored.events(), stream.events());
    EXPECT_EQ(alphabet.id("vi"), model.alphabet().id("vi"));
    std::remove(path.c_str());
}

}  // namespace
}  // namespace adiv

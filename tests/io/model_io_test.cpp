#include "io/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "detect/nn_detector.hpp"
#include "support/corpus_fixture.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

// Round-trip property, parameterized over every detector kind: a model saved
// and reloaded produces bit-identical responses on both normal data and an
// anomaly stream, with no retraining.
class ModelRoundTrip : public ::testing::TestWithParam<DetectorKind> {};

TEST_P(ModelRoundTrip, ReloadedModelScoresIdentically) {
    const DetectorKind kind = GetParam();
    DetectorSettings settings;
    settings.nn.epochs = 150;
    settings.hmm.iterations = 10;
    const std::size_t dw = 5;
    auto original = make_detector(kind, dw, settings);
    original->train(test::small_corpus().training());

    std::stringstream buffer;
    save_detector(*original, buffer);
    const auto restored = load_detector(buffer);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->name(), original->name());
    EXPECT_EQ(restored->window_length(), dw);
    EXPECT_EQ(restored->alphabet_size(), original->alphabet_size());

    const EventStream heldout = test::small_corpus().generate_heldout(5'000, 42);
    EXPECT_EQ(restored->score(heldout), original->score(heldout));
    const EventStream& anomaly_stream =
        test::small_suite().entry(4, dw).stream.stream;
    EXPECT_EQ(restored->score(anomaly_stream), original->score(anomaly_stream));
}

TEST_P(ModelRoundTrip, ReloadedModelReplaysOnlineIdentically) {
    // The serving property: a daemon that load_detector()s a model must
    // produce the same per-window responses through an OnlineScorer as the
    // process that trained it — event-at-a-time, for every registered kind.
    const DetectorKind kind = GetParam();
    DetectorSettings settings;
    settings.nn.epochs = 150;
    settings.hmm.iterations = 10;
    const std::size_t dw = 5;
    auto original = make_detector(kind, dw, settings);
    original->train(test::small_corpus().training());

    std::stringstream buffer;
    save_detector(*original, buffer);
    const auto restored = load_detector(buffer);
    ASSERT_NE(restored, nullptr);

    const EventStream heldout = test::small_corpus().generate_heldout(3'000, 7);
    OnlineScorer trained_side(*original);
    OnlineScorer loaded_side(*restored);
    for (std::size_t i = 0; i < heldout.size(); ++i) {
        const auto expected = trained_side.push(heldout[i]);
        const auto actual = loaded_side.push(heldout[i]);
        ASSERT_EQ(actual.has_value(), expected.has_value()) << "event " << i;
        if (expected) ASSERT_EQ(*actual, *expected) << "event " << i;
    }
    EXPECT_EQ(loaded_side.windows_scored(), trained_side.windows_scored());
    EXPECT_EQ(loaded_side.alarms(), trained_side.alarms());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelRoundTrip,
                         ::testing::ValuesIn(all_detectors()),
                         [](const auto& info) {
                             std::string name = to_string(info.param);
                             for (char& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });

TEST(ModelIo, SavingUntrainedDetectorThrows) {
    for (DetectorKind kind : all_detectors()) {
        const auto d = make_detector(kind, 4);
        std::ostringstream out;
        EXPECT_THROW(save_detector(*d, out), InvalidArgument) << to_string(kind);
    }
}

TEST(ModelIo, RejectsWrongEnvelopeTag) {
    std::istringstream in("not-a-model 1 stide");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsUnsupportedVersion) {
    std::istringstream in("adiv-model 99 stide 2 8 0");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsUnknownKind) {
    std::istringstream in("adiv-model 1 quantum");
    EXPECT_THROW((void)load_detector(in), InvalidArgument);
}

TEST(ModelIo, RejectsTruncatedBody) {
    auto d = make_detector(DetectorKind::Stide, 3);
    d->train(test::small_corpus().training());
    std::ostringstream out;
    save_detector(*d, out);
    const std::string full = out.str();
    std::istringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_THROW((void)load_detector(truncated), DataError);
}

TEST(ModelIo, RejectsOutOfAlphabetSymbols) {
    std::istringstream in("adiv-model 1 stide 2 8 1 9 9 5");
    EXPECT_THROW((void)load_detector(in), DataError);
}

TEST(ModelIo, RejectsSymbolIdsThatWrapIn32Bits) {
    // 4294967297 is 2^32 + 1, which a narrowing cast would read as symbol 1
    // (a lookahead pair (1, 1, 2) in the first model). Every loader checks
    // the id against the alphabet before it narrows.
    for (const char* text : {
             "adiv-model 1 lookahead-pairs 4 8 1\n1 4294967297 2\n",
             "adiv-model 1 stide 2 8 1\n4294967297 1 5\n",
             "adiv-model 1 t-stide 0.001 2 8 1\n4294967297 1 5\n",
             "adiv-model 1 markov 2 8 0.005 0 1\n4294967297 1 1 1 1 1 1 1 1\n",
             "adiv-model 1 lane-brodley 2 8 1\n4294967297 1\n",
             "adiv-model 1 rule 3 8 0.9 2 10 0.005 1\n0 4294967297 0.5 10\n"}) {
        SCOPED_TRACE(text);
        std::istringstream in(text);
        EXPECT_THROW((void)load_detector(in), DataError);
    }
}

/// A trained neural-net model file, split before its context section: the
/// text up to and including the parameters, and the context lines.
struct NnModelText {
    std::string head;
    std::vector<std::string> contexts;
};

NnModelText nn_model_text(std::size_t window) {
    auto d = make_detector(DetectorKind::NeuralNet, window);
    d->train(test::small_corpus().training());
    std::ostringstream out;
    save_detector(*d, out);
    std::istringstream in(out.str());
    NnModelText text;
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    // The envelope, then a header line ending in the parameter count, one
    // line per parameter, and the context count.
    EXPECT_GE(lines.size(), 2u);
    const std::size_t params = std::stoull(lines[1].substr(lines[1].rfind(' ') + 1));
    const std::size_t count_line = 2 + params;
    EXPECT_LT(count_line, lines.size());
    EXPECT_EQ(lines[count_line], std::to_string(lines.size() - count_line - 1));
    for (std::size_t i = 0; i < count_line; ++i) text.head += lines[i] + "\n";
    text.contexts.assign(lines.begin() + static_cast<std::ptrdiff_t>(count_line) + 1,
                         lines.end());
    return text;
}

std::string with_contexts(const NnModelText& text, const std::string& count,
                          const std::vector<std::string>& contexts) {
    std::string out = text.head + count + "\n";
    for (const std::string& context : contexts) out += context + "\n";
    return out;
}

TEST(ModelIo, NeuralNetFileListsItsTrainingContexts) {
    const NnModelText text = nn_model_text(4);
    ASSERT_FALSE(text.contexts.empty());
    const std::string full =
        with_contexts(text, std::to_string(text.contexts.size()), text.contexts);
    std::istringstream in(full);
    const auto loaded = load_detector(in);
    EXPECT_EQ(dynamic_cast<const NnDetector&>(*loaded).context_count(),
              text.contexts.size());
    std::ostringstream again;
    save_detector(*loaded, again);
    EXPECT_EQ(again.str(), full);
}

TEST(ModelIo, NeuralNetRejectsBadContextSections) {
    const NnModelText text = nn_model_text(2);
    ASSERT_GE(text.contexts.size(), 2u);
    std::vector<std::string> wrapped = text.contexts;
    wrapped[0] = "4294967297";  // 2^32 + 1
    std::vector<std::string> twice = text.contexts;
    twice[1] = twice[0];
    for (const std::string& bad : {
             // A declared count far beyond the lines present: read as they
             // come, never reserved.
             with_contexts(text, "2305843009213693952", text.contexts),
             with_contexts(text, std::to_string(text.contexts.size()), wrapped),
             with_contexts(text, std::to_string(text.contexts.size()), twice),
             text.head}) {
        std::istringstream in(bad);
        EXPECT_THROW((void)load_detector(in), DataError);
    }
}

TEST(ModelIo, FileHelpersRoundTrip) {
    auto d = make_detector(DetectorKind::Markov, 4);
    d->train(test::small_corpus().training());
    const std::string path = test::temp_path("adiv_model_io_test.adiv");
    save_detector_file(*d, path);
    const auto restored = load_detector_file(path);
    const EventStream heldout = test::small_corpus().generate_heldout(2'000, 9);
    EXPECT_EQ(restored->score(heldout), d->score(heldout));
    std::remove(path.c_str());
}

TEST(ModelIo, MissingFileThrows) {
    EXPECT_THROW((void)load_detector_file("/nonexistent/path/model.adiv"),
                 DataError);
}

TEST(ModelIo, RuleModelPreservesRuleList) {
    RuleDetector original(4);
    original.train(test::small_corpus().training());
    std::stringstream buffer;
    original.save_model(buffer);
    const RuleDetector restored = RuleDetector::load_model(buffer);
    ASSERT_EQ(restored.rules().size(), original.rules().size());
    for (std::size_t i = 0; i < original.rules().size(); ++i) {
        EXPECT_EQ(restored.rules()[i].prediction, original.rules()[i].prediction);
        EXPECT_DOUBLE_EQ(restored.rules()[i].confidence,
                         original.rules()[i].confidence);
        EXPECT_EQ(restored.rules()[i].conditions.size(),
                  original.rules()[i].conditions.size());
    }
}

TEST(ModelIo, HmmModelPreservesParametersExactly) {
    HmmDetectorConfig cfg;
    cfg.iterations = 8;
    HmmDetector original(3, cfg);
    original.train(test::small_corpus().training());
    std::stringstream buffer;
    original.save_model(buffer);
    const HmmDetector restored = HmmDetector::load_model(buffer);
    EXPECT_DOUBLE_EQ(restored.training_log_likelihood(),
                     original.training_log_likelihood());
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j)
            EXPECT_DOUBLE_EQ(restored.model().transitions().at(i, j),
                             original.model().transitions().at(i, j));
}

}  // namespace
}  // namespace adiv

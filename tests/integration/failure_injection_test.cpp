// Integration: failure injection across module boundaries — the library must
// fail loudly and precisely on malformed inputs, impossible syntheses, and
// mismatched configurations rather than produce quietly wrong science.
#include <gtest/gtest.h>

#include "anomaly/mfs_builder.hpp"
#include "anomaly/suite.hpp"
#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

TEST(FailureInjection, CorpusShorterThanOneCycleIsRejected) {
    CorpusSpec spec;
    spec.training_length = 4;
    EXPECT_THROW((void)TrainingCorpus::generate(spec), InvalidArgument);
}

TEST(FailureInjection, CorpusWithInvalidDeviationRateIsRejected) {
    CorpusSpec spec;
    spec.deviation_rate = 1.0;
    EXPECT_THROW((void)TrainingCorpus::generate(spec), InvalidArgument);
    spec.deviation_rate = -0.1;
    EXPECT_THROW((void)TrainingCorpus::generate(spec), InvalidArgument);
}

TEST(FailureInjection, CorpusWithInvalidRareThresholdIsRejected) {
    CorpusSpec spec;
    spec.rare_threshold = 0.0;
    EXPECT_THROW((void)TrainingCorpus::generate(spec), InvalidArgument);
}

TEST(FailureInjection, SuiteOnDeterministicCorpusCannotSynthesize) {
    // With deviation_rate 0 the corpus is a pure cycle: no rare sequences
    // exist, so no MFS "composed of rare sub-sequences" of size >= 3 can be
    // built, and the suite reports the synthesis failure.
    CorpusSpec spec;
    spec.training_length = 50'000;
    spec.deviation_rate = 0.0;
    const TrainingCorpus corpus = TrainingCorpus::generate(spec);
    SuiteConfig cfg;
    cfg.min_anomaly_size = 3;
    cfg.max_anomaly_size = 3;
    cfg.max_window = 4;
    cfg.background_length = 512;
    EXPECT_THROW((void)EvaluationSuite::build(corpus, cfg), SynthesisError);
}

TEST(FailureInjection, DetectorScoredOnWrongAlphabetThrows) {
    auto d = make_detector(DetectorKind::Stide, 3);
    d->train(test::small_corpus().training());
    const EventStream wrong(16, {0, 1, 2, 3, 4});
    EXPECT_THROW((void)d->score(wrong), InvalidArgument);
}

TEST(FailureInjection, InjectingOutOfAlphabetAnomalyThrows) {
    const SubsequenceOracle oracle(test::small_corpus().training());
    const Injector injector(test::small_corpus(), oracle);
    // Symbol 9 is outside the corpus alphabet of 8: appending it to the
    // background stream must fail validation at the stream layer.
    EXPECT_THROW((void)injector.try_inject(Sequence{0, 9}, 4, 512), DataError);
}

TEST(FailureInjection, UntrainedDetectorsRefuseToScore) {
    const EvaluationSuite& suite = test::small_suite();
    for (DetectorKind kind : paper_detectors()) {
        const auto d = make_detector(kind, 4);
        EXPECT_THROW((void)d->score(suite.entry(3, 4).stream.stream),
                     InvalidArgument)
            << to_string(kind);
    }
}

TEST(FailureInjection, ExperimentRejectsNullFactory) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector("broken", [](std::size_t) {
        return std::unique_ptr<SequenceDetector>{};
    });
    EXPECT_THROW((void)run_plan(plan), InvalidArgument);
}

TEST(FailureInjection, ExperimentRejectsWrongWindowFactory) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector("wrong", [](std::size_t) {
        return make_detector(DetectorKind::Stide, 3);  // ignores requested DW
    });
    EXPECT_THROW((void)run_plan(plan), InvalidArgument);
}

TEST(FailureInjection, EmptyTrainingStreamRejectedByDetectors) {
    const EventStream empty(8);
    auto markov = make_detector(DetectorKind::Markov, 3);
    EXPECT_THROW(markov->train(empty), DataError);
    auto nn = make_detector(DetectorKind::NeuralNet, 3);
    EXPECT_THROW(nn->train(empty), DataError);
}

TEST(FailureInjection, TrainingShorterThanWindowYieldsEmptyStideModel) {
    // Stide trained on a stream shorter than its window has an empty normal
    // database; every window is then "foreign". This is degenerate but
    // well-defined behaviour.
    auto stide = make_detector(DetectorKind::Stide, 10);
    stide->train(EventStream(8, {0, 1, 2}));
    const EventStream test = test::small_corpus().background(32, 0);
    for (double r : stide->score(test)) EXPECT_DOUBLE_EQ(r, 1.0);
}

TEST(FailureInjection, SuiteEntriesRejectForeignWindowLengths) {
    EXPECT_THROW((void)test::small_suite().entry(2, 1), InvalidArgument);
    EXPECT_THROW((void)test::small_suite().entry(10, 5), InvalidArgument);
}

}  // namespace
}  // namespace adiv

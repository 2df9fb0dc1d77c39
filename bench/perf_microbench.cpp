// Engineering microbenchmarks (google-benchmark): training and scoring
// throughput of each detector at single window lengths (DW 2, 6, 15) and of
// the substrate builds they lean on (n-gram tables, conditional models, MFS
// synthesis). perfbench/ is the repository's benchmark; it reports one
// number per detector over a whole workload, so these cases are where one
// DW or one substrate build is timed alone.
#include <benchmark/benchmark.h>

#include "anomaly/mfs_builder.hpp"
#include "anomaly/subsequence_oracle.hpp"
#include "datagen/corpus.hpp"
#include "detect/registry.hpp"
#include "seq/conditional_model.hpp"
#include "seq/ngram_table.hpp"

namespace {

using namespace adiv;

const TrainingCorpus& corpus() {
    static const TrainingCorpus c = [] {
        CorpusSpec spec;
        spec.training_length = 200'000;
        return TrainingCorpus::generate(spec);
    }();
    return c;
}

const EventStream& heldout() {
    static const EventStream h = corpus().generate_heldout(50'000, 1234);
    return h;
}

void BM_NgramTableBuild(benchmark::State& state) {
    const auto length = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        NgramTable t = NgramTable::from_stream(corpus().training(), length);
        benchmark::DoNotOptimize(t.total());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(corpus().training().size()));
}
BENCHMARK(BM_NgramTableBuild)->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_ConditionalModelBuild(benchmark::State& state) {
    const auto context = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ConditionalModel m(corpus().training(), context);
        benchmark::DoNotOptimize(m.distinct_contexts());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(corpus().training().size()));
}
BENCHMARK(BM_ConditionalModelBuild)->Arg(1)->Arg(5)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_DetectorTrain(benchmark::State& state, DetectorKind kind) {
    const auto dw = static_cast<std::size_t>(state.range(0));
    DetectorSettings settings;
    settings.nn.epochs = 100;  // keep the NN benchmark bounded
    for (auto _ : state) {
        auto d = make_detector(kind, dw, settings);
        d->train(corpus().training());
        benchmark::DoNotOptimize(d.get());
    }
}
BENCHMARK_CAPTURE(BM_DetectorTrain, stide, DetectorKind::Stide)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorTrain, markov, DetectorKind::Markov)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorTrain, lane_brodley, DetectorKind::LaneBrodley)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorTrain, neural_net, DetectorKind::NeuralNet)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_DetectorScore(benchmark::State& state, DetectorKind kind) {
    const auto dw = static_cast<std::size_t>(state.range(0));
    DetectorSettings settings;
    settings.nn.epochs = 100;
    auto d = make_detector(kind, dw, settings);
    d->train(corpus().training());
    for (auto _ : state) {
        auto responses = d->score(heldout());
        benchmark::DoNotOptimize(responses.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(heldout().size()));
}
BENCHMARK_CAPTURE(BM_DetectorScore, stide, DetectorKind::Stide)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, markov, DetectorKind::Markov)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, lane_brodley, DetectorKind::LaneBrodley)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, t_stide, DetectorKind::TStide)
    ->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, neural_net, DetectorKind::NeuralNet)
    ->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_MfsSynthesis(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    const SubsequenceOracle oracle(corpus().training());
    const MfsBuilder builder(oracle);
    (void)builder.build(size);  // warm the oracle tables outside the loop
    for (auto _ : state) {
        auto mfs = builder.build(size);
        benchmark::DoNotOptimize(mfs.data());
    }
}
BENCHMARK(BM_MfsSynthesis)->Arg(2)->Arg(5)->Arg(9)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// coverage_explorer: chart any detector's performance map over the
// (anomaly size x detector window) plane — the tool a defender would use to
// answer "under what conditions does my detector actually see this
// anomaly?" before deploying it.
//
// Usage:
//   ./examples/coverage_explorer --detector markov
//   ./examples/coverage_explorer --detector t-stide --max-window 10
//   ./examples/coverage_explorer --detector neural-net --nn-epochs 200
#include <cstdio>
#include <iostream>

#include "adiv.hpp"

using namespace adiv;

int main(int argc, char** argv) {
    CliParser cli("coverage_explorer",
                  "performance map of one detector over the AS x DW plane");
    cli.add_option("detector", "stide",
                   "stide | t-stide | markov | lane-brodley | neural-net");
    cli.add_option("training-length", "300000", "training stream length");
    cli.add_option("max-anomaly", "9", "largest anomaly size");
    cli.add_option("max-window", "15", "largest detector window");
    cli.add_option("background", "2048", "test-stream background length");
    cli.add_option("floor", "0.005",
                   "probability floor for markov/neural-net responses");
    cli.add_option("nn-epochs", "400", "neural-net training epochs");
    cli.add_flag("csv", "emit CSV instead of the chart");
    if (!cli.parse(argc, argv)) return 0;

    const DetectorKind kind = detector_kind_from_string(cli.get("detector"));

    CorpusSpec spec;
    spec.training_length = static_cast<std::size_t>(cli.get_int("training-length"));
    const TrainingCorpus corpus = TrainingCorpus::generate(spec);

    SuiteConfig cfg;
    cfg.max_anomaly_size = static_cast<std::size_t>(cli.get_int("max-anomaly"));
    cfg.max_window = static_cast<std::size_t>(cli.get_int("max-window"));
    cfg.background_length = static_cast<std::size_t>(cli.get_int("background"));
    const EvaluationSuite suite = EvaluationSuite::build(corpus, cfg);

    DetectorSettings settings;
    settings.markov.probability_floor = cli.get_double("floor");
    settings.nn.probability_floor = cli.get_double("floor");
    settings.nn.epochs = static_cast<std::size_t>(cli.get_int("nn-epochs"));

    ExperimentPlan plan(suite);
    plan.add_detector(to_string(kind), factory_for(kind, settings));
    const PerformanceMap map = run_plan(plan).maps.front();

    if (cli.get_flag("csv")) {
        map.write_csv(std::cout);
    } else {
        std::cout << map.render();
        std::printf("\ncapable %zu | weak %zu | blind %zu of %zu cells\n",
                    map.count(DetectionOutcome::Capable),
                    map.count(DetectionOutcome::Weak),
                    map.count(DetectionOutcome::Blind), map.cell_count());
    }
    return 0;
}

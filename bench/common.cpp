#include "common.hpp"

#include <cstdio>
#include <iostream>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace adiv::bench {

void add_common_options(CliParser& cli) {
    cli.add_option("training-length", "1000000",
                   "training stream length (paper: 1,000,000)");
    cli.add_option("background", "4096", "test-stream background length");
    cli.add_option("min-anomaly", "2", "smallest anomaly size (paper: 2)");
    cli.add_option("max-anomaly", "9", "largest anomaly size (paper: 9)");
    cli.add_option("min-window", "2", "smallest detector window (paper: 2)");
    cli.add_option("max-window", "15", "largest detector window (paper: 15)");
    cli.add_option("seed", "20050628", "corpus generation seed");
    cli.add_option("jobs", "0",
                   "experiment worker threads (0 = hardware concurrency); "
                   "maps are identical for any value");
    add_observability_options(cli);
}

Context make_context(const CliParser& cli, bool build_suite,
                     const std::string& program) {
    Context ctx;
    ctx.spec.training_length =
        static_cast<std::size_t>(cli.get_int("training-length"));
    ctx.spec.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    ctx.suite_config.background_length =
        static_cast<std::size_t>(cli.get_int("background"));
    ctx.suite_config.min_anomaly_size =
        static_cast<std::size_t>(cli.get_int("min-anomaly"));
    ctx.suite_config.max_anomaly_size =
        static_cast<std::size_t>(cli.get_int("max-anomaly"));
    ctx.suite_config.min_window = static_cast<std::size_t>(cli.get_int("min-window"));
    ctx.suite_config.max_window = static_cast<std::size_t>(cli.get_int("max-window"));
    ctx.jobs = resolve_jobs(static_cast<std::size_t>(cli.get_int("jobs")));

    RunManifest manifest = make_manifest(program);
    manifest.seed = ctx.spec.seed;
    manifest.alphabet_size = ctx.spec.alphabet_size;
    manifest.training_length = ctx.spec.training_length;
    manifest.deviation_rate = ctx.spec.deviation_rate;
    manifest.deviation_targets = ctx.spec.deviation_targets;
    manifest.rare_threshold = ctx.spec.rare_threshold;
    manifest.min_anomaly_size = ctx.suite_config.min_anomaly_size;
    manifest.max_anomaly_size = ctx.suite_config.max_anomaly_size;
    manifest.min_window = ctx.suite_config.min_window;
    manifest.max_window = ctx.suite_config.max_window;
    ctx.obs = std::make_unique<ObsSession>(cli, std::move(manifest));

    std::printf("# engine: jobs=%zu\n", ctx.jobs);
    // The setup spans are roots beside the plan's engine.plan, so a traced
    // run's root spans cover its wall clock.
    Stopwatch sw;
    {
        TraceSpan corpus_span("datagen.corpus");
        ctx.corpus = std::make_unique<TrainingCorpus>(TrainingCorpus::generate(ctx.spec));
    }
    std::printf("# corpus: %zu elements, alphabet %zu (%.2fs)\n",
                ctx.corpus->training().size(), ctx.spec.alphabet_size, sw.lap());
    if (build_suite) {
        {
            TraceSpan suite_span("experiment.suite");
            ctx.suite = std::make_unique<EvaluationSuite>(
                EvaluationSuite::build(*ctx.corpus, ctx.suite_config));
        }
        std::printf("# suite: %zu test streams (AS %zu..%zu x DW %zu..%zu) (%.2fs)\n",
                    ctx.suite->entry_count(), ctx.suite_config.min_anomaly_size,
                    ctx.suite_config.max_anomaly_size, ctx.suite_config.min_window,
                    ctx.suite_config.max_window, sw.lap());
    }
    return ctx;
}

std::unique_ptr<Context> context_from_args(const std::string& program,
                                           const std::string& summary, int argc,
                                           char** argv, bool build_suite) {
    CliParser cli(program, summary);
    add_common_options(cli);
    if (!cli.parse(argc, argv)) return nullptr;
    return std::make_unique<Context>(make_context(cli, build_suite, program));
}

void banner(const std::string& title) {
    std::printf("\n==== %s ====\n\n", title.c_str());
}

PlanRun run_and_render(const Context& ctx, const ExperimentPlan& plan) {
    PlanRun run = run_plan(plan, ctx.engine_options());
    render_plan_run(std::cout, run);
    return run;
}

PlanRun run_quiet(const Context& ctx, const ExperimentPlan& plan) {
    return run_plan(plan, ctx.engine_options());
}

}  // namespace adiv::bench

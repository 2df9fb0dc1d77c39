// Shared setup for the figure-regeneration harnesses.
//
// Every bench binary reproduces one table/figure of the paper at paper scale
// by default (1M-element corpus, AS 2..9, DW 2..15) and accepts a few
// overrides for quick runs. Output goes to stdout: the rendered chart first,
// then a CSV block for replotting.
#pragma once

#include <memory>
#include <string>

#include "anomaly/suite.hpp"
#include "datagen/corpus.hpp"
#include "engine/plan.hpp"
#include "engine/render.hpp"
#include "engine/scheduler.hpp"
#include "obs/session.hpp"
#include "util/cli.hpp"

namespace adiv::bench {

struct Context {
    CorpusSpec spec;
    SuiteConfig suite_config;
    /// Resolved --jobs value (never 0): worker threads for plan runs.
    std::size_t jobs = 1;
    /// Installed before corpus generation when --metrics/--trace are given.
    /// Dumps the final metrics when the context is destroyed.
    std::unique_ptr<ObsSession> obs;
    std::unique_ptr<TrainingCorpus> corpus;
    std::unique_ptr<EvaluationSuite> suite;

    /// Engine options carrying the context's --jobs value.
    [[nodiscard]] EngineOptions engine_options() const {
        EngineOptions options;
        options.jobs = jobs;
        return options;
    }
};

/// Registers the common options on a parser (including --metrics/--trace).
void add_common_options(CliParser& cli);

/// Builds corpus (always) and suite (when build_suite) from parsed options.
/// `program` labels the run manifest.
Context make_context(const CliParser& cli, bool build_suite = true,
                     const std::string& program = "bench");

/// Convenience: parse argv with the common options; returns nullptr if
/// --help was requested.
std::unique_ptr<Context> context_from_args(const std::string& program,
                                           const std::string& summary, int argc,
                                           char** argv, bool build_suite = true);

/// Prints a section header to stdout.
void banner(const std::string& title);

/// Runs the plan with the context's --jobs setting and renders it to stdout
/// (render_plan_run: chart, outcome counts, CSV block per map, plan line).
PlanRun run_and_render(const Context& ctx, const ExperimentPlan& plan);

/// Runs the plan with the context's --jobs setting, no rendering.
PlanRun run_quiet(const Context& ctx, const ExperimentPlan& plan);

}  // namespace adiv::bench

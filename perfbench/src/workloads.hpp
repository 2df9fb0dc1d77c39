// The three workloads. Each fills every end-to-end metric; a traced run also
// fills the per-layer metrics its layers reach (see perfbench/README.md).
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;   // path of the adiv_serve binary
    std::string workdir;  // model files, daemon log and traces, in the checkout
};

/// Figs. 3-6 in-process: the four paper detectors over the full suite
/// through run_plan, repeated for the run's seconds.
Result run_maps(const Options& options);

/// serve_small / serve_fused: a fresh adiv_serve child per run, driven over
/// TCP by an open-loop phase at a fixed rate and a capacity phase.
Result run_serve(const Options& options);

}  // namespace perfbench

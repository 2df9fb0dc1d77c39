// The invariant rule engine: scans adiv's own sources for violations of the
// project contracts that the compiler cannot see.
//
// Rules (names are stable; suppressions and --rules refer to them):
//
//   nondeterminism       Banned wall-clock / libc-randomness APIs: rand(),
//                        srand(), rand_r(), drand48()-family,
//                        std::random_device, std::time / time(nullptr), and
//                        std::chrono::system_clock::now. The repro's claims
//                        (bit-identical parallel maps, bit-identical session
//                        replay) require every output to be a function of
//                        seeds and inputs alone; randomness goes through
//                        util/rng.hpp, timestamps through the injectable
//                        manifest clock (obs/manifest.hpp).
//
//   unordered-iteration  Range-for over a std::unordered_{map,set} (or an
//                        alias of one) declared in the same file or its
//                        header twin. Iteration order is
//                        implementation-defined, so any such loop feeding a
//                        serialized, CSV, or JSON output path is a silent
//                        reproducibility bug. Loops that fold commutatively
//                        or sort afterwards carry a suppression stating so.
//
//   detector-mutable     No `mutable` member under src/detect/, of any
//                        type. The detector contract (detect/detector.hpp)
//                        has score() read only what train() or load_model()
//                        wrote, so concurrent score() calls on one shared
//                        model take no lock; a mutable cache, guarded or
//                        not, breaks that. TSan sees only the races the
//                        tests happen to run concurrently; this sees the
//                        declaration.
//
//   metric-name          String literals passed to counter()/gauge()/
//                        sketch(), naming a TraceSpan, or naming a
//                        WaitSite (whose name expands into
//                        `.acquires`/`.contended`/`.wait_us` instruments)
//                        must follow the dotted-lowercase convention:
//                        `subsystem.metric` for registry instruments,
//                        `subsystem.span` for trace spans; segments
//                        [a-z][a-z0-9_]*, at least one dot. All constructor
//                        shapes are covered, including TraceSpan
//                        span(sink, "name") where the literal is not the
//                        first argument. The leading segment must also name
//                        a known subsystem (datagen, detect, engine,
//                        experiment, fusion, online, score, serve): a typo'd
//                        or invented namespace would silently fork the
//                        exposition's `subsystem_*` family grouping.
//
//   header-hygiene       Every header carries `#pragma once`, and every
//                        header under src/ is reachable from the umbrella
//                        src/adiv.hpp (so `#include "adiv.hpp"` really is
//                        the full API). The lint library itself is tooling,
//                        not part of the adiv API, and is exempt from the
//                        umbrella requirement.
//
// Suppressions: a comment `// adiv-lint: allow(rule)` (comma-separated
// rules, or `all`) suppresses findings on its own line and the next line.
// Suppressions are deliberate, reviewable exceptions — each one should state
// why the invariant holds anyway, as a trailing quoted reason:
// `// adiv-lint: allow(unordered-iteration, "sorted below")`.
//
// The daemon's concurrency invariants (lock order, fields read only under
// their mutex, an allocation-free PUSH path) are checked where the code
// runs, not here: the TSan pass of tools/ci_check.sh runs the whole suite,
// and tests/alloc counts the allocations of a PUSH served through a Server.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace adiv::lint {

struct Finding {
    std::string rule;
    std::string file;      // repo-relative path, '/' separators
    std::size_t line = 0;  // 1-based
    std::string message;
};

/// One source file to scan. `path` is repo-relative with '/' separators;
/// rules use it for scoping (e.g. detector-mutable applies under src/detect/).
struct SourceFile {
    std::string path;
    std::string text;
};

struct LintOptions {
    /// Rule names to run; empty means all rules.
    std::vector<std::string> rules;
};

/// All rule names, in reporting order.
std::vector<std::string> rule_names();

/// Scans the given sources and returns unsuppressed findings, sorted by
/// (file, line, rule). Cross-file rules (unordered-iteration's header-twin
/// declarations, header-hygiene's umbrella coverage) see exactly the files
/// passed in. Throws InvalidArgument on an unknown rule name in options.
std::vector<Finding> run_lint(const std::vector<SourceFile>& sources,
                              const LintOptions& options = {});

}  // namespace adiv::lint

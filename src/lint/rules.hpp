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
//   score-memo           `mutable` members in src/detect/ must be ScoreMemo,
//                        a mutex, or an atomic. The detector concurrency
//                        contract (detect/detector.hpp) allows concurrent
//                        score() on one trained instance; a bare mutable
//                        cache breaks it.
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
//   hot-alloc            Allocation ban for the serve hot path. A comment
//                        whose first word is `adiv-hot` marks the next
//                        function body (the first balanced brace block at or
//                        after the comment's line) as allocation-free: no
//                        operator new, no std::string / std::to_string
//                        construction, and no push_back/emplace_back on a
//                        container the body does not reserve() first. The
//                        serve per-request function (serve/server.cpp
//                        handle_request) carries the annotation; per-event
//                        work there must go through the connection's reused
//                        request, response and output buffers, never the
//                        heap.
//
//   lock-order           Whole-tree deadlock detection. Every acquisition of
//                        lock L while lock M is held — directly or through a
//                        resolved call chain — contributes an edge M -> L to
//                        the global lock-order graph; every cycle is reported
//                        once, with a witness path for each edge. Locks are
//                        identified by header/source twin stem plus member
//                        name, and self-edges (two instances of the same
//                        class's lock) are not reported.
//
//   guarded-by           A field annotated `// adiv-guarded-by(mu_)` may only
//                        be touched from a scope that holds `mu_`, or from a
//                        function every resolved caller of which holds it
//                        (the `*_locked` helper pattern). Any other access in
//                        the twin group is a finding.
//
//   hot-path             Interprocedural extension of hot-alloc: a function
//                        is hazardous when it allocates or blocks (condition
//                        waits, sleeps, joins, I/O) directly or via a call to
//                        a hazardous function. An `// adiv-hot` function's
//                        blocking sites and its calls into hazardous
//                        functions are findings, each with the witness chain
//                        down to the concrete hazard.
//
// Suppressions: a comment `// adiv-lint: allow(rule)` (comma-separated
// rules, or `all`) suppresses findings on its own line and the next line.
// Suppressions are deliberate, reviewable exceptions — each one should state
// why the invariant holds anyway. For the interprocedural rules (lock-order,
// guarded-by, hot-path) the reason is mandatory and machine-checked:
// `// adiv-lint: allow(hot-path, "cold admin path, replies are rare")`. A
// bare allow of one of those rules suppresses nothing and is itself a
// finding.
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
/// rules use it for scoping (e.g. score-memo applies under src/detect/).
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

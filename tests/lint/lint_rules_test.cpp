// Fixture tests for every lint rule: one violating and one clean sample per
// rule, plus suppression-comment behavior. The snippets live in raw strings
// inside this file — which is exactly why tests/ is outside the linter's
// default scan set.
#include "lint/rules.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace adiv::lint {
namespace {

std::vector<Finding> lint_one(const std::string& path, const std::string& text,
                              const std::vector<std::string>& rules = {}) {
    LintOptions options;
    options.rules = rules;
    return run_lint({SourceFile{path, text}}, options);
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
    std::size_t n = 0;
    for (const Finding& finding : findings)
        if (finding.rule == rule) ++n;
    return n;
}

// --- nondeterminism --------------------------------------------------------

TEST(LintNondeterminism, FlagsRandFamilyCalls) {
    const auto findings = lint_one("src/x.cpp", R"(
        int noise() { return rand(); }
        void reseed() { srand(42); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 2u);
}

TEST(LintNondeterminism, FlagsRandomDevice) {
    const auto findings = lint_one("src/x.cpp", R"(
        #include <random>
        std::mt19937 make() { std::random_device rd; return std::mt19937(rd()); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 1u);
}

TEST(LintNondeterminism, FlagsWallClockReads) {
    const auto findings = lint_one("src/x.cpp", R"(
        long a() { return std::time(nullptr); }
        long b() { return time(0); }
        long c() { return std::chrono::system_clock::now().time_since_epoch().count(); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 3u);
}

TEST(LintNondeterminism, CleanSeededRngAndSteadyClock) {
    const auto findings = lint_one("src/x.cpp", R"(
        #include "util/rng.hpp"
        #include <chrono>
        double draw(adiv::Rng& rng) { return rng.uniform(); }
        auto tick() { return std::chrono::steady_clock::now(); }
        // Words like time_t, timer, timestamp must not fire:
        std::time_t convert(std::time_t t) { return t; }
        int local_time(int timer) { return timer; }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 0u);
}

TEST(LintNondeterminism, IgnoresStringsAndComments) {
    const auto findings = lint_one("src/x.cpp", R"__(
        // rand() in a comment is fine
        const char* doc = "call rand() and time(nullptr)";
    )__");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 0u);
}

// --- unordered-iteration ---------------------------------------------------

TEST(LintUnorderedIteration, FlagsRangeForOverUnorderedMember) {
    const auto findings = lint_one("src/seq/t.cpp", R"(
        #include <unordered_map>
        struct T {
            std::unordered_map<int, int> counts_;
            void dump(std::ostream& out) {
                for (const auto& [k, v] : counts_) out << k << v;
            }
        };
    )");
    EXPECT_EQ(count_rule(findings, "unordered-iteration"), 1u);
}

TEST(LintUnorderedIteration, TracksDeclarationsAcrossHeaderTwin) {
    const std::vector<SourceFile> pair = {
        {"src/seq/t.hpp", R"(
            #pragma once
            #include <unordered_set>
            struct T { std::unordered_set<int> seen_; void dump(); };
        )"},
        {"src/seq/t.cpp", R"(
            #include "t.hpp"
            void T::dump() { for (int v : seen_) use(v); }
        )"},
    };
    LintOptions options;
    options.rules = {"unordered-iteration"};
    const auto findings = run_lint(pair, options);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/seq/t.cpp");
}

TEST(LintUnorderedIteration, TracksUsingAliases) {
    const auto findings = lint_one("src/x.cpp", R"(
        #include <unordered_map>
        using Map = std::unordered_map<int, int>;
        struct T {
            Map entries_;
            int sum() { int s = 0; for (auto& [k, v] : entries_) s += v; return s; }
        };
    )", {"unordered-iteration"});
    EXPECT_EQ(count_rule(findings, "unordered-iteration"), 1u);
}

TEST(LintUnorderedIteration, CleanSortedVectorAndOrderedMap) {
    const auto findings = lint_one("src/x.cpp", R"(
        #include <map>
        #include <vector>
        struct T {
            std::map<int, int> ordered_;
            std::vector<int> items_;
            void dump(std::ostream& out) {
                for (const auto& [k, v] : ordered_) out << k << v;
                for (int v : items_) out << v;
            }
        };
    )", {"unordered-iteration"});
    EXPECT_EQ(count_rule(findings, "unordered-iteration"), 0u);
}

TEST(LintUnorderedIteration, LookupsAndMembershipAreClean) {
    const auto findings = lint_one("src/x.cpp", R"(
        #include <unordered_set>
        struct T {
            std::unordered_set<int> seen_;
            bool has(int v) const { return seen_.contains(v); }
        };
    )", {"unordered-iteration"});
    EXPECT_EQ(count_rule(findings, "unordered-iteration"), 0u);
}

// --- detector-mutable ------------------------------------------------------
// (The suite keeps the name of the rule this one replaced, score-memo.)

TEST(LintScoreMemo, FlagsBareMutableCacheInDetector) {
    const auto findings = lint_one("src/detect/d.hpp", R"(
        #pragma once
        #include <unordered_map>
        class D {
            mutable std::unordered_map<int, double> cache_;
        };
    )", {"detector-mutable"});
    EXPECT_EQ(count_rule(findings, "detector-mutable"), 1u);
}

TEST(LintScoreMemo, FlagsScoreMemoMutexAndAtomic) {
    // A synchronized cache is still shared state that score() changes.
    const auto findings = lint_one("src/detect/d.hpp", R"(
        #pragma once
        class D {
            mutable ScoreMemo<int, double> memo_;
            mutable std::mutex mutex_;
            mutable std::atomic<int> hits_{0};
        };
    )", {"detector-mutable"});
    EXPECT_EQ(count_rule(findings, "detector-mutable"), 3u);
}

TEST(LintScoreMemo, LambdaMutableIsNotADeclaration) {
    const auto findings = lint_one("src/detect/d.cpp", R"(
        void f() { auto g = [x = 0]() mutable { return ++x; }; g(); }
    )", {"detector-mutable"});
    EXPECT_EQ(count_rule(findings, "detector-mutable"), 0u);
}

TEST(LintScoreMemo, OutsideDetectIsOutOfScope) {
    const auto findings = lint_one("src/core/c.hpp", R"(
        #pragma once
        class C { mutable int scratch_ = 0; };
    )", {"detector-mutable"});
    EXPECT_EQ(count_rule(findings, "detector-mutable"), 0u);
}

// --- metric-name -----------------------------------------------------------

TEST(LintMetricName, FlagsNonConventionalNames) {
    const auto findings = lint_one("src/x.cpp", R"(
        void f(adiv::MetricsRegistry& m) {
            m.counter("EventsPushed").add(1);
            m.gauge("depth").set(0.0);
            m.sketch("serve.Latency_US").record(1.0);
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 3u);
}

TEST(LintMetricName, FlagsTraceSpanNames) {
    const auto findings = lint_one("src/x.cpp", R"(
        void f() { TraceSpan span("TrainPhase"); }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 1u);
}

TEST(LintMetricName, FlagsSpanNameAfterSinkArgument) {
    // The literal is the second constructor argument; the rule must still
    // find it inside the balanced argument list.
    const auto findings = lint_one("src/x.cpp", R"(
        void f(std::shared_ptr<TraceSink> sink) {
            TraceSpan span(sink, "TrainPhase");
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 1u);
}

TEST(LintMetricName, NestedCallStringsAreNotThisSitesName) {
    // make_name("Bad") is a different call site; its literal sits at nesting
    // depth 2 and must not be attributed to the TraceSpan constructor.
    const auto findings = lint_one("src/x.cpp", R"(
        void f(std::shared_ptr<TraceSink> sink) {
            TraceSpan span(sink, make_name("Bad"));
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 0u);
}

TEST(LintMetricName, CleanSpanNameAfterSinkArgument) {
    const auto findings = lint_one("src/x.cpp", R"(
        void f(std::shared_ptr<TraceSink> sink) {
            TraceSpan span(sink, "serve.push");
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 0u);
}

TEST(LintMetricName, FlagsWaitSiteNames) {
    // A wait-site name expands into `<site>.acquires` / `.contended` /
    // `.wait_us`, so both construction shapes are checked: a member
    // initialized from a WaitSite(...) expression, and a named local. The
    // well-formed third site is not flagged.
    const auto findings = lint_one("src/x.cpp", R"(
        Manager::Manager(adiv::MetricsRegistry& metrics)
            : table_site_(WaitSite("Serve-Shard-Table", metrics)) {}
        void f(adiv::MetricsRegistry& m) {
            WaitSite site("shardtable", m);
            WaitSite good("serve.shard.table", m);
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 2u);
}

TEST(LintMetricName, FlagsUnknownSubsystemNamespace) {
    // Well-formed dotted lowercase, but the leading segment names no known
    // subsystem — a typo'd namespace would fork the exposition's family
    // grouping silently.
    const auto findings = lint_one("src/x.cpp", R"(
        void f(adiv::MetricsRegistry& m) {
            m.counter("server.events_pushed").add(1);
            m.gauge("fussion.threshold").set(0.5);
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 2u);
}

TEST(LintMetricName, CleanFusionNamespace) {
    const auto findings = lint_one("src/x.cpp", R"(
        void f(adiv::MetricsRegistry& m) {
            m.counter("fusion.fused_alarms").add(1);
            m.gauge("fusion.threshold.m0").set(0.75);
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 0u);
}

TEST(LintMetricName, CleanDottedLowercase) {
    const auto findings = lint_one("src/x.cpp", R"(
        void f(adiv::MetricsRegistry& m) {
            m.counter("serve.events_pushed").add(1);
            m.sketch("experiment.cell_us").record(2.0);
            TraceSpan span("engine.plan");
            TraceSpan named_span("experiment.train2");
        }
    )", {"metric-name"});
    EXPECT_EQ(count_rule(findings, "metric-name"), 0u);
}

// --- header-hygiene --------------------------------------------------------

TEST(LintHeaderHygiene, FlagsMissingPragmaOnce) {
    const auto findings = lint_one("src/x.hpp", "struct X {};\n", {"header-hygiene"});
    ASSERT_EQ(count_rule(findings, "header-hygiene"), 1u);
}

TEST(LintHeaderHygiene, CleanHeaderWithPragmaOnce) {
    const auto findings =
        lint_one("src/x.hpp", "#pragma once\nstruct X {};\n", {"header-hygiene"});
    EXPECT_EQ(count_rule(findings, "header-hygiene"), 0u);
}

TEST(LintHeaderHygiene, UmbrellaMustCoverEveryHeader) {
    const std::vector<SourceFile> tree = {
        {"src/adiv.hpp", "#pragma once\n#include \"util/a.hpp\"\n"},
        {"src/util/a.hpp", "#pragma once\n"},
        {"src/util/b.hpp", "#pragma once\n"},  // missing from the umbrella
    };
    LintOptions options;
    options.rules = {"header-hygiene"};
    const auto findings = run_lint(tree, options);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/adiv.hpp");
    EXPECT_NE(findings[0].message.find("util/b.hpp"), std::string::npos);
}

TEST(LintHeaderHygiene, LintLibraryIsExemptFromUmbrella) {
    const std::vector<SourceFile> tree = {
        {"src/adiv.hpp", "#pragma once\n"},
        {"src/lint/rules.hpp", "#pragma once\n"},
    };
    LintOptions options;
    options.rules = {"header-hygiene"};
    EXPECT_TRUE(run_lint(tree, options).empty());
}

// --- suppressions ----------------------------------------------------------

TEST(LintSuppression, AllowCommentOnPreviousLineSuppresses) {
    const auto findings = lint_one("src/x.cpp", R"(
        // adiv-lint: allow(nondeterminism)
        int noisy() { return rand(); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 0u);
}

TEST(LintSuppression, AllowCommentOnSameLineSuppresses) {
    const auto findings = lint_one(
        "src/x.cpp", "int noisy() { return rand(); }  // adiv-lint: allow(nondeterminism)\n");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 0u);
}

TEST(LintSuppression, WrongRuleNameDoesNotSuppress) {
    const auto findings = lint_one("src/x.cpp", R"(
        // adiv-lint: allow(metric-name)
        int noisy() { return rand(); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 1u);
}

TEST(LintSuppression, AllWildcardAndListsSuppress) {
    const auto wildcard = lint_one("src/x.cpp", R"(
        // adiv-lint: allow(all)
        int noisy() { return rand(); }
    )");
    EXPECT_TRUE(wildcard.empty());
    const auto list = lint_one("src/x.cpp", R"(
        // adiv-lint: allow(metric-name, nondeterminism)
        int noisy() { return rand(); }
    )");
    EXPECT_EQ(count_rule(list, "nondeterminism"), 0u);
}

TEST(LintSuppression, QuotedReasonIsSkipped) {
    // The reason may hold commas, parentheses and rule names; only the
    // names outside the quotes are suppressed.
    const auto findings = lint_one("src/x.cpp", R"(
        // adiv-lint: allow(nondeterminism, "seeded (see metric-name), ok")
        int noisy() { m.counter("Bad").add(rand()); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 0u);
    EXPECT_EQ(count_rule(findings, "metric-name"), 1u);
}

TEST(LintSuppression, DoesNotLeakPastTheNextLine) {
    const auto findings = lint_one("src/x.cpp", R"(
        // adiv-lint: allow(nondeterminism)
        int fine() { return 1; }
        int noisy() { return rand(); }
    )");
    EXPECT_EQ(count_rule(findings, "nondeterminism"), 1u);
}

// --- engine ----------------------------------------------------------------

TEST(LintEngine, UnknownRuleNameThrows) {
    LintOptions options;
    options.rules = {"no-such-rule"};
    EXPECT_THROW((void)run_lint({SourceFile{"src/x.cpp", ""}}, options),
                 InvalidArgument);
}

TEST(LintEngine, FindingsAreSortedByFileLineRule) {
    const std::vector<SourceFile> tree = {
        {"src/b.cpp", "int f() { return rand(); }\n"},
        {"src/a.cpp", "int g() { return rand(); }\nint h() { return srand(1), 0; }\n"},
    };
    const auto findings = run_lint(tree);
    ASSERT_EQ(findings.size(), 3u);
    EXPECT_EQ(findings[0].file, "src/a.cpp");
    EXPECT_EQ(findings[0].line, 1u);
    EXPECT_EQ(findings[1].file, "src/a.cpp");
    EXPECT_EQ(findings[1].line, 2u);
    EXPECT_EQ(findings[2].file, "src/b.cpp");
}

TEST(LintEngine, RuleNamesAreStable) {
    const std::vector<std::string> names = rule_names();
    const std::vector<std::string> expected = {
        "nondeterminism", "unordered-iteration", "detector-mutable",
        "metric-name", "header-hygiene"};
    EXPECT_EQ(names, expected);
}

}  // namespace
}  // namespace adiv::lint

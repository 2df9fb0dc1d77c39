#include "lint/rules.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "lint/lexer.hpp"
#include "lint/parse.hpp"
#include "util/error.hpp"

// The linter is scanned by itself, so this file works only with ordered
// containers and names the banned APIs exclusively inside string literals.

namespace adiv::lint {

namespace {

// --- rule: nondeterminism --------------------------------------------------

const std::set<std::string>& rand_family() {
    static const std::set<std::string> kRandFamily{
        "rand",    "srand",   "rand_r",  "drand48", "erand48",
        "lrand48", "nrand48", "mrand48", "jrand48", "srand48"};
    return kRandFamily;
}

void check_nondeterminism(const ParsedFile& data, std::vector<Finding>& out) {
    const std::vector<Tok>& toks = data.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier) continue;
        const std::string& name = toks[i].text;
        if (rand_family().count(name) > 0 && is_punct(toks, i + 1, "(")) {
            out.push_back({"nondeterminism", data.path, toks[i].line,
                           "call to " + name +
                               "(): use the seeded util/rng.hpp generators so "
                               "outputs are a function of the recorded seed"});
        } else if (name == "random_device") {
            out.push_back({"nondeterminism", data.path, toks[i].line,
                           "std::random_device draws entropy from the "
                           "environment; seed a util/rng.hpp generator "
                           "explicitly instead"});
        } else if (name == "time") {
            const bool qualified =
                i >= 2 && is_punct(toks, i - 1, "::") && is_ident(toks, i - 2, "std");
            const bool wall_call =
                is_punct(toks, i + 1, "(") && is_punct(toks, i + 3, ")") &&
                (is_ident(toks, i + 2, "nullptr") || is_ident(toks, i + 2, "NULL") ||
                 (i + 2 < toks.size() && toks[i + 2].kind == TokKind::Number &&
                  toks[i + 2].text == "0"));
            if (qualified || wall_call) {
                out.push_back({"nondeterminism", data.path, toks[i].line,
                               "wall-clock read via std::time: route "
                               "timestamps through the injectable manifest "
                               "clock (obs/manifest.hpp) so runs replay "
                               "bit-identically"});
            }
        } else if (name == "system_clock" && is_punct(toks, i + 1, "::") &&
                   is_ident(toks, i + 2, "now")) {
            out.push_back({"nondeterminism", data.path, toks[i].line,
                           "system_clock::now() is a wall-clock read: use "
                           "util/stopwatch.hpp (steady_clock) for intervals "
                           "or the manifest clock for timestamps"});
        }
    }
}

// --- rule: unordered-iteration ---------------------------------------------

const std::set<std::string>& unordered_types() {
    static const std::set<std::string> kUnordered{
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    return kUnordered;
}

/// Index just past a balanced template-argument list starting at `i` (which
/// must be '<'), or `i` when there is none.
std::size_t skip_template_args(const std::vector<Tok>& toks, std::size_t i) {
    if (!is_punct(toks, i, "<")) return i;
    std::size_t depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (is_punct(toks, j, "<")) ++depth;
        if (is_punct(toks, j, ">") && --depth == 0) return j + 1;
    }
    return toks.size();
}

/// Variable names declared with an unordered container type (or a local
/// `using` alias of one) in this file.
void collect_unordered_names(const std::vector<Tok>& toks,
                             std::set<std::string>& names) {
    std::set<std::string> aliases;
    // Pass 1: direct declarations and `using X = std::unordered_...` aliases.
    std::string pending_alias;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (is_ident(toks, i, "using") && i + 2 < toks.size() &&
            toks[i + 1].kind == TokKind::Identifier && is_punct(toks, i + 2, "=")) {
            pending_alias = toks[i + 1].text;
            continue;
        }
        if (is_punct(toks, i, ";")) pending_alias.clear();
        if (toks[i].kind != TokKind::Identifier ||
            unordered_types().count(toks[i].text) == 0)
            continue;
        if (!pending_alias.empty()) {
            aliases.insert(pending_alias);
            pending_alias.clear();
            continue;
        }
        const std::size_t after = skip_template_args(toks, i + 1);
        // The declared name; skip function declarations (name followed by
        // '(') — a call result is a fresh container, not shared state.
        if (after < toks.size() && toks[after].kind == TokKind::Identifier &&
            !is_punct(toks, after + 1, "("))
            names.insert(toks[after].text);
    }
    // Pass 2: declarations through a collected alias.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind == TokKind::Identifier && aliases.count(toks[i].text) > 0 &&
            toks[i + 1].kind == TokKind::Identifier &&
            !is_punct(toks, i + 2, "("))
            names.insert(toks[i + 1].text);
    }
}

void check_unordered_iteration(const ParsedFile& data,
                               const std::set<std::string>& tracked,
                               std::vector<Finding>& out) {
    const std::vector<Tok>& toks = data.toks;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!is_ident(toks, i, "for") || !is_punct(toks, i + 1, "(")) continue;
        std::size_t depth = 0;
        bool past_colon = false;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (is_punct(toks, j, "(")) ++depth;
            if (is_punct(toks, j, ")") && --depth == 0) break;
            if (depth == 1 && is_punct(toks, j, ":")) {
                past_colon = true;
                continue;
            }
            if (past_colon && toks[j].kind == TokKind::Identifier &&
                tracked.count(toks[j].text) > 0) {
                out.push_back(
                    {"unordered-iteration", data.path, toks[i].line,
                     "range-for over unordered container '" + toks[j].text +
                         "': iteration order is implementation-defined and "
                         "must not reach any serialized output (sort first, "
                         "or fold commutatively and suppress with a "
                         "justification)"});
                break;
            }
        }
    }
}

// --- rule: detector-mutable ------------------------------------------------

void check_detector_mutable(const ParsedFile& data, std::vector<Finding>& out) {
    if (data.path.find("detect/") == std::string::npos) return;
    const std::vector<Tok>& toks = data.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is_ident(toks, i, "mutable")) continue;
        // Lambda `mutable` qualifier, not a member declaration.
        if (is_punct(toks, i + 1, "{") || is_punct(toks, i + 1, "-") ||
            is_punct(toks, i + 1, ")") || is_ident(toks, i + 1, "noexcept"))
            continue;
        out.push_back(
            {"detector-mutable", data.path, toks[i].line,
             "mutable member in a detector: score() reads only what train() "
             "or load_model() wrote (detect/detector.hpp contract), so "
             "concurrent score() calls share nothing that changes; keep "
             "per-call scratch local to score()"});
    }
}

// --- rule: metric-name -----------------------------------------------------

bool valid_metric_name(const std::string& name) {
    std::size_t segments = 0;
    std::size_t pos = 0;
    while (pos <= name.size()) {
        const std::size_t dot = std::min(name.find('.', pos), name.size());
        if (dot == pos) return false;  // empty segment
        if (!(name[pos] >= 'a' && name[pos] <= 'z')) return false;
        for (std::size_t i = pos + 1; i < dot; ++i) {
            const char c = name[i];
            const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
            if (!ok) return false;
        }
        ++segments;
        if (dot == name.size()) break;
        pos = dot + 1;
    }
    return segments >= 2;
}

void check_metric_name(const ParsedFile& data, std::vector<Finding>& out) {
    // WaitSite covers the profiling layer: a wait-site name becomes
    // `<site>.acquires` / `.contended` / `.wait_us` instruments, so the
    // site name itself must satisfy the same dotted-lowercase convention.
    static const std::set<std::string> kSinks{
        "counter", "gauge", "sketch", "TraceSpan", "WaitSite"};
    const std::vector<Tok>& toks = data.toks;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier || kSinks.count(toks[i].text) == 0)
            continue;
        // Call shapes: counter("name"), TraceSpan span("name"),
        // TraceSpan span(sink, "name") and WaitSite("name", metrics) —
        // locate the argument list, then the first string literal at its
        // top nesting level. Nested calls keep their own string arguments
        // out of this site's check.
        std::size_t open = 0;
        if (is_punct(toks, i + 1, "(")) {
            open = i + 1;
        } else if (toks[i + 1].kind == TokKind::Identifier &&
                   is_punct(toks, i + 2, "(")) {
            open = i + 2;
        } else {
            continue;
        }
        std::size_t lit = 0;
        std::size_t depth = 0;
        for (std::size_t j = open; j < toks.size(); ++j) {
            if (is_punct(toks, j, "(")) {
                ++depth;
            } else if (is_punct(toks, j, ")")) {
                if (--depth == 0) break;
            } else if (depth == 1 && toks[j].kind == TokKind::String) {
                lit = j;
                break;
            }
        }
        if (lit == 0) continue;
        const std::string& name = toks[lit].text;
        if (!valid_metric_name(name)) {
            out.push_back({"metric-name", data.path, toks[lit].line,
                           "instrument name '" + name +
                               "' violates the `subsystem.metric` convention "
                               "(dotted lowercase, segments [a-z][a-z0-9_]*)"});
            continue;
        }
        // The leading segment is the exposition's family grouping; an
        // unknown namespace is almost always a typo (serve vs server) or an
        // instrument that skipped the naming review.
        static const std::set<std::string> kNamespaces{
            "datagen", "detect",  "engine", "experiment",
            "fusion",  "online",  "score",  "serve"};
        const std::string subsystem = name.substr(0, name.find('.'));
        if (kNamespaces.count(subsystem) == 0)
            out.push_back({"metric-name", data.path, toks[lit].line,
                           "instrument name '" + name +
                               "' starts with unknown subsystem '" + subsystem +
                               "' (known: datagen, detect, engine, "
                               "experiment, fusion, online, score, serve)"});
    }
}

// --- rule: header-hygiene --------------------------------------------------

bool is_header(const std::string& path) {
    return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

void check_pragma_once(const ParsedFile& data, std::vector<Finding>& out) {
    if (!is_header(data.path)) return;
    for (const Tok& tok : data.toks) {
        if (tok.kind == TokKind::Preprocessor &&
            tok.text.find("pragma") != std::string::npos &&
            tok.text.find("once") != std::string::npos)
            return;
    }
    out.push_back({"header-hygiene", data.path, 1,
                   "header is missing `#pragma once`"});
}

void check_umbrella(const std::vector<ParsedFile>& files, std::vector<Finding>& out) {
    const ParsedFile* umbrella = nullptr;
    for (const ParsedFile& data : files)
        if (data.path == "src/adiv.hpp") umbrella = &data;
    if (umbrella == nullptr) return;
    std::set<std::string> included;
    for (const Tok& tok : umbrella->toks) {
        if (tok.kind != TokKind::Preprocessor) continue;
        const std::size_t open = tok.text.find('"');
        const std::size_t close = tok.text.rfind('"');
        if (open != std::string::npos && close > open)
            included.insert(tok.text.substr(open + 1, close - open - 1));
    }
    for (const ParsedFile& data : files) {
        const std::string& path = data.path;
        if (!is_header(path) || path.compare(0, 4, "src/") != 0) continue;
        if (path == "src/adiv.hpp") continue;
        if (path.find("/lint/") != std::string::npos) continue;  // tooling
        const std::string rel = path.substr(4);
        if (included.count(rel) == 0)
            out.push_back({"header-hygiene", umbrella->path, 1,
                           "umbrella src/adiv.hpp does not include \"" + rel +
                               "\" — the umbrella must cover the full API"});
    }
}

// --- engine ----------------------------------------------------------------

bool suppressed(const ParsedFile& data, const Finding& finding) {
    return line_suppressed(data, finding.line, finding.rule);
}

}  // namespace

std::vector<std::string> rule_names() {
    return {"nondeterminism", "unordered-iteration", "detector-mutable",
            "metric-name", "header-hygiene"};
}

std::vector<Finding> run_lint(const std::vector<SourceFile>& sources,
                              const LintOptions& options) {
    const std::vector<std::string> known = rule_names();
    std::set<std::string> enabled(known.begin(), known.end());
    if (!options.rules.empty()) {
        enabled.clear();
        for (const std::string& rule : options.rules) {
            require(std::find(known.begin(), known.end(), rule) != known.end(),
                    "unknown lint rule '" + rule + "'");
            enabled.insert(rule);
        }
    }

    std::vector<ParsedFile> files;
    files.reserve(sources.size());
    for (const SourceFile& src : sources) files.push_back(parse_cpp_file(src));

    // unordered-iteration tracks declarations across a .hpp/.cpp twin pair.
    std::map<std::string, std::set<std::string>> names_by_stem;
    if (enabled.count("unordered-iteration") > 0)
        for (const ParsedFile& data : files)
            collect_unordered_names(data.toks, names_by_stem[stem_of(data.path)]);

    std::vector<Finding> findings;
    for (const ParsedFile& data : files) {
        std::vector<Finding> raw;
        if (enabled.count("nondeterminism") > 0) check_nondeterminism(data, raw);
        if (enabled.count("unordered-iteration") > 0)
            check_unordered_iteration(data, names_by_stem[stem_of(data.path)],
                                      raw);
        if (enabled.count("detector-mutable") > 0) check_detector_mutable(data, raw);
        if (enabled.count("metric-name") > 0) check_metric_name(data, raw);
        if (enabled.count("header-hygiene") > 0) check_pragma_once(data, raw);
        for (Finding& finding : raw)
            if (!suppressed(data, finding)) findings.push_back(std::move(finding));
    }
    if (enabled.count("header-hygiene") > 0) {
        std::vector<Finding> raw;
        check_umbrella(files, raw);
        for (const ParsedFile& data : files)
            if (data.path == "src/adiv.hpp")
                for (Finding& finding : raw)
                    if (!suppressed(data, finding))
                        findings.push_back(std::move(finding));
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  if (a.rule != b.rule) return a.rule < b.rule;
                  return a.message < b.message;
              });
    return findings;
}

}  // namespace adiv::lint

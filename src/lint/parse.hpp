// One source file prepared for the rule engine (lint/rules.hpp): its code
// tokens with comments stripped, and the `adiv-lint: allow(...)` suppression
// comments found among them, keyed by line.
//
// Suppression syntax: `// adiv-lint: allow(rule)`, comma-separated rules or
// `all`, optionally followed by a quoted reason that says why the invariant
// holds anyway: `// adiv-lint: allow(unordered-iteration, "sorted below")`.
// The reason is for the reader; the engine only parses past it.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace adiv::lint {

/// One `adiv-lint: allow(...)` suppression comment, parsed.
struct Allow {
    bool all = false;             // allow(all) wildcard present
    std::set<std::string> rules;  // rule names listed
};

struct ParsedFile {
    std::string path;
    std::vector<Tok> toks;                // comments stripped
    std::map<std::size_t, Allow> allows;  // line -> suppression
};

ParsedFile parse_cpp_file(const SourceFile& src);

// --- shared helpers (used by the rule implementations) ----------------------

bool is_punct(const std::vector<Tok>& toks, std::size_t i, const char* text);
bool is_ident(const std::vector<Tok>& toks, std::size_t i, const char* text);

/// Path without its extension: "src/serve/server.cpp" -> "src/serve/server".
/// Header/source twins share a stem; cross-file rules group by it.
std::string stem_of(const std::string& path);

/// Whether an `allow()` on `line` or the line above suppresses `rule` there.
bool line_suppressed(const ParsedFile& file, std::size_t line,
                     const std::string& rule);

}  // namespace adiv::lint

// A lightweight declaration parser on top of the lexer (lint/lexer.hpp).
//
// This is still not a compiler front end. It recovers just enough structure
// for whole-tree semantic rules — which functions exist (including
// out-of-line `Class::method` definitions), which classes declare which
// fields, where locks are acquired, which calls each body makes, and where
// allocation or blocking hazards sit — so the rule engine can reason across
// files instead of one token stream at a time. The parser is deliberately
// permissive: anything it cannot classify it skips, so analysis degrades to
// fewer facts, never to wrong line numbers or crashes.
//
// Annotation vocabulary recognized here (all are comments; membership is
// positional — the first word of the comment — so prose that merely mentions
// a marker does not annotate):
//
//   // adiv-hot                      the next function body is hot: the
//                                    hot-alloc and hot-path rules apply
//   // adiv-guarded-by(mu_)         the field declared on this line (or the
//                                    next) must only be accessed while `mu_`
//                                    is held; enforced by the guarded-by rule
//   // adiv-lint: allow(rule, "why") suppression with a reason; the reason
//                                    string is mandatory for the
//                                    interprocedural rules (lock-order,
//                                    guarded-by, hot-path)
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hpp"
#include "lint/rules.hpp"

namespace adiv::lint {

/// One `adiv-lint: allow(...)` suppression comment, parsed. A reason is the
/// trailing quoted string inside the parentheses; it applies to every rule
/// named in the same allow().
struct Allow {
    bool all = false;             // allow(all) wildcard present
    bool all_has_reason = false;  // ...and it carried a reason
    // rule name -> whether the allow() carried a reason string.
    std::map<std::string, bool> rules;
};

/// A lock acquisition inside a function body: a scoped guard declaration
/// (lock_guard / unique_lock / scoped_lock / shared_lock) or
/// a manual `.lock()` call. The hold extends to `release_tok` (the enclosing
/// block's closing brace for guards; the matching `.unlock()` or the body
/// end for manual locks).
struct LockSite {
    std::size_t tok = 0;          // token index of the acquisition
    std::size_t line = 0;
    std::string expr;             // mutex expression, e.g. "shard.mutex"
    std::string name;             // last identifier of the expression
    std::size_t release_tok = 0;  // first token index past the hold
};

/// A call site inside a function body. Resolution to callee definitions
/// happens in lint/callgraph.hpp; the parser only records the shape.
struct CallSite {
    std::size_t tok = 0;  // token index of the callee name
    std::size_t line = 0;
    std::string name;       // callee identifier
    std::string receiver;   // `x` in `x.f()` / `x->f()`, "" for free calls
    std::string qualifier;  // `A` in `A::f()`, "" otherwise
    bool member = false;    // receiver call via '.' or '->'
};

/// A direct allocation or blocking hazard inside a function body, as the
/// hot-path rule defines them: operator new, std::string / std::to_string /
/// make_shared / make_unique construction, push_back / emplace_back on a
/// container the body does not reserve() first (Alloc); condition-variable
/// or future waits, sleeps, thread joins, and stream / stdio I/O (Block).
struct HazardSite {
    enum class Kind { Alloc, Block };
    Kind kind = Kind::Alloc;
    std::size_t tok = 0;
    std::size_t line = 0;
    std::string what;  // human-readable site description, e.g. "operator new"
};

struct FunctionDecl {
    std::string name;        // unqualified; "~X" for destructors
    std::string class_name;  // enclosing or explicit `X::` class, "" for free
    std::size_t line = 0;    // line of the name token
    std::size_t body_begin = 0;  // token range inside the braces
    std::size_t body_end = 0;
    bool hot = false;  // carries an `// adiv-hot` annotation
    std::vector<LockSite> locks;
    std::vector<CallSite> calls;
    std::vector<HazardSite> hazards;
    // Declared parameter / local names -> the identifiers of their type, in
    // source order. The index resolves these against known class names to
    // type call receivers.
    std::map<std::string, std::vector<std::string>> value_types;

    [[nodiscard]] std::string qualified() const {
        return class_name.empty() ? name : class_name + "::" + name;
    }
};

struct FieldDecl {
    std::string class_name;
    std::string name;
    std::size_t line = 0;
    std::vector<std::string> type_idents;  // type identifiers, in order
    std::string guarded_by;  // mutex name from adiv-guarded-by, "" if none
};

/// Everything the parser recovers from one source file.
struct ParsedFile {
    std::string path;
    std::vector<Tok> toks;  // comments stripped
    std::map<std::size_t, Allow> allows;  // line -> suppression
    std::vector<std::size_t> hot_lines;   // lines carrying `// adiv-hot`
    std::vector<FunctionDecl> functions;  // in source order
    std::vector<FieldDecl> fields;        // in source order
    std::set<std::string> classes;        // class/struct definitions here
};

ParsedFile parse_cpp_file(const SourceFile& src);

// --- shared helpers (used by the rule implementations) ----------------------

bool is_punct(const std::vector<Tok>& toks, std::size_t i, const char* text);
bool is_ident(const std::vector<Tok>& toks, std::size_t i, const char* text);

/// Path without its extension: "src/serve/server.cpp" -> "src/serve/server".
/// Header/source twins share a stem; cross-file rules group by it.
std::string stem_of(const std::string& path);

/// Whether suppressing `rule` requires a reason string. True for the
/// interprocedural rules (lock-order, guarded-by, hot-path): their findings
/// encode cross-file reasoning, so an exception must say why it is safe.
bool reason_required(const std::string& rule);

/// Whether an `allow()` on `line` or the line above suppresses `rule` there,
/// honoring the reason requirement: a bare allow of a reason-required rule
/// (including a bare `allow(all)`) does not suppress it.
bool line_suppressed(const ParsedFile& file, std::size_t line,
                     const std::string& rule);

}  // namespace adiv::lint

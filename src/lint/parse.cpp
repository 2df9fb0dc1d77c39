#include "lint/parse.hpp"

#include <algorithm>

// The linter is scanned by itself, so this file works only with ordered
// containers and names the APIs it pattern-matches inside string literals.

namespace adiv::lint {

bool is_punct(const std::vector<Tok>& toks, std::size_t i, const char* text) {
    return i < toks.size() && toks[i].kind == TokKind::Punct && toks[i].text == text;
}

bool is_ident(const std::vector<Tok>& toks, std::size_t i, const char* text) {
    return i < toks.size() && toks[i].kind == TokKind::Identifier &&
           toks[i].text == text;
}

std::string stem_of(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
        return path;
    return path.substr(0, dot);
}

bool reason_required(const std::string& rule) {
    return rule == "lock-order" || rule == "guarded-by" || rule == "hot-path";
}

bool line_suppressed(const ParsedFile& file, std::size_t line,
                     const std::string& rule) {
    const bool need_reason = reason_required(rule);
    for (std::size_t at = line > 0 ? line - 1 : 0; at <= line; ++at) {
        const auto it = file.allows.find(at);
        if (it == file.allows.end()) continue;
        const Allow& allow = it->second;
        if (allow.all && (allow.all_has_reason || !need_reason)) return true;
        const auto rule_it = allow.rules.find(rule);
        if (rule_it != allow.rules.end() &&
            (rule_it->second || !need_reason))
            return true;
    }
    return false;
}

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// --- annotation comments -----------------------------------------------------

void parse_allow(const Tok& comment, ParsedFile& out) {
    const std::string& text = comment.text;
    const std::size_t tag = text.find("adiv-lint:");
    if (tag == std::string::npos) return;
    const std::size_t open = text.find("allow(", tag);
    if (open == std::string::npos) return;
    // Find the closing paren outside any quoted reason string.
    std::size_t close = std::string::npos;
    bool in_quote = false;
    for (std::size_t i = open + 6; i < text.size(); ++i) {
        if (text[i] == '"') in_quote = !in_quote;
        if (text[i] == ')' && !in_quote) {
            close = i;
            break;
        }
    }
    if (close == std::string::npos) return;
    // Split on top-level commas: rule names, plus at most one quoted reason.
    std::vector<std::string> items;
    std::string item;
    in_quote = false;
    for (std::size_t i = open + 6; i <= close; ++i) {
        const char c = i < close ? text[i] : ',';
        if (c == '"') in_quote = !in_quote;
        if (c == ',' && !in_quote) {
            if (!item.empty()) items.push_back(item);
            item.clear();
        } else if (in_quote || (c != ' ' && c != '\t')) {
            item += c;
        }
    }
    bool has_reason = false;
    std::vector<std::string> names;
    for (const std::string& entry : items) {
        if (!entry.empty() && entry[0] == '"')
            has_reason = true;
        else
            names.push_back(entry);
    }
    Allow& allow = out.allows[comment.line];
    for (const std::string& name : names) {
        if (name == "all") {
            allow.all = true;
            allow.all_has_reason = allow.all_has_reason || has_reason;
        } else {
            auto [it, inserted] = allow.rules.emplace(name, has_reason);
            if (!inserted) it->second = it->second || has_reason;
        }
    }
}

/// First word of the comment when it is an adiv marker; returns the marker's
/// argument for `adiv-guarded-by(arg)` via `guard_arg`.
bool comment_first_word_is(const Tok& comment, const char* marker,
                           std::string* guard_arg = nullptr) {
    const std::string& text = comment.text;
    const std::size_t start = text.find_first_not_of(" \t");
    if (start == std::string::npos) return false;
    const std::string word(marker);
    if (text.compare(start, word.size(), word) != 0) return false;
    const std::size_t after = start + word.size();
    if (guard_arg == nullptr)
        return after == text.size() || text[after] == ' ' || text[after] == ':';
    if (after >= text.size() || text[after] != '(') return false;
    const std::size_t close = text.find(')', after);
    if (close == std::string::npos) return false;
    std::string arg = text.substr(after + 1, close - after - 1);
    while (!arg.empty() && (arg.front() == ' ' || arg.front() == '\t'))
        arg.erase(arg.begin());
    while (!arg.empty() && (arg.back() == ' ' || arg.back() == '\t'))
        arg.pop_back();
    if (arg.empty()) return false;
    *guard_arg = arg;
    return true;
}

// --- the parser --------------------------------------------------------------

const std::set<std::string>& control_keywords() {
    static const std::set<std::string> kControl{
        "if",     "for",    "while",  "switch",   "catch",  "return",
        "sizeof", "alignof", "decltype", "static_assert", "case",
        "default", "else",  "do",     "goto",     "throw",  "new",
        "delete", "co_await", "co_return", "co_yield"};
    return kControl;
}

const std::set<std::string>& type_qualifiers() {
    static const std::set<std::string> kQualifiers{
        "const",    "constexpr", "consteval", "constinit", "static",
        "mutable",  "inline",    "explicit",  "virtual",   "typename",
        "volatile", "register",  "thread_local", "unsigned", "signed",
        "long",     "short",     "auto"};
    return kQualifiers;
}

class Parser {
public:
    explicit Parser(const SourceFile& src) : src_(src) {}

    ParsedFile run() {
        out_.path = src_.path;
        std::map<std::size_t, std::pair<std::string, bool>> guard_lines;
        std::size_t last_code_line = 0;
        for (Tok& tok : lex_cpp(src_.text)) {
            if (tok.kind == TokKind::Comment) {
                parse_allow(tok, out_);
                std::string guard;
                if (comment_first_word_is(tok, "adiv-hot")) {
                    out_.hot_lines.push_back(tok.line);
                } else if (comment_first_word_is(tok, "adiv-guarded-by",
                                                 &guard)) {
                    // A trailing annotation (code earlier on the line) binds
                    // to that line only; a standalone comment line also
                    // covers the declaration below it.
                    guard_lines[tok.line] = {guard, last_code_line != tok.line};
                }
            } else {
                last_code_line = tok.line;
                out_.toks.push_back(std::move(tok));
            }
        }
        guard_lines_ = std::move(guard_lines);
        match_braces();
        scan_scope(0, out_.toks.size(), "");
        mark_hot_functions();
        return std::move(out_);
    }

private:
    const std::vector<Tok>& toks() const { return out_.toks; }

    /// Precomputes the matching close index for every '{' (and the reverse).
    void match_braces() {
        brace_match_.assign(toks().size(), kNone);
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < toks().size(); ++i) {
            if (is_punct(toks(), i, "{")) stack.push_back(i);
            if (is_punct(toks(), i, "}") && !stack.empty()) {
                brace_match_[stack.back()] = i;
                brace_match_[i] = stack.back();
                stack.pop_back();
            }
        }
    }

    [[nodiscard]] std::size_t close_of(std::size_t open, std::size_t fallback) const {
        return brace_match_[open] == kNone ? fallback : brace_match_[open];
    }

    /// Index just past a balanced template-argument list at `i` ('<'), or `i`.
    [[nodiscard]] std::size_t skip_angles(std::size_t i) const {
        if (!is_punct(toks(), i, "<")) return i;
        std::size_t depth = 0;
        for (std::size_t j = i; j < toks().size(); ++j) {
            if (is_punct(toks(), j, "<")) ++depth;
            if (is_punct(toks(), j, ">") && --depth == 0) return j + 1;
            // A template argument list never crosses these; bail out so a
            // stray less-than comparison cannot swallow the file.
            if (is_punct(toks(), j, ";") || is_punct(toks(), j, "{")) return i + 1;
        }
        return toks().size();
    }

    /// Index just past a balanced paren group at `i` ('('), or end.
    [[nodiscard]] std::size_t skip_parens(std::size_t i) const {
        std::size_t depth = 0;
        for (std::size_t j = i; j < toks().size(); ++j) {
            if (is_punct(toks(), j, "(")) ++depth;
            if (is_punct(toks(), j, ")") && --depth == 0) return j + 1;
        }
        return toks().size();
    }

    // --- class / namespace structure ---------------------------------------

    /// Scans declarations in [begin, end) at namespace or class scope.
    /// `class_name` is "" at namespace scope.
    void scan_scope(std::size_t begin, std::size_t end,
                    const std::string& class_name) {
        std::size_t i = begin;
        while (i < end) {
            const Tok& t = toks()[i];
            if (t.kind == TokKind::Preprocessor || is_punct(toks(), i, ";") ||
                is_punct(toks(), i, "}")) {
                ++i;
            } else if (is_ident(toks(), i, "namespace")) {
                i = enter_namespace(i, end);
            } else if (is_ident(toks(), i, "class") || is_ident(toks(), i, "struct") ||
                       is_ident(toks(), i, "union")) {
                i = enter_class(i, end);
            } else if (is_ident(toks(), i, "enum")) {
                i = skip_enum(i, end);
            } else if (is_ident(toks(), i, "template")) {
                ++i;
                i = skip_angles(i);
            } else if (is_ident(toks(), i, "using") || is_ident(toks(), i, "typedef") ||
                       is_ident(toks(), i, "friend") ||
                       is_ident(toks(), i, "static_assert") ||
                       is_ident(toks(), i, "extern")) {
                while (i < end && !is_punct(toks(), i, ";")) ++i;
            } else if ((is_ident(toks(), i, "public") || is_ident(toks(), i, "private") ||
                        is_ident(toks(), i, "protected")) &&
                       is_punct(toks(), i + 1, ":")) {
                i += 2;
            } else {
                i = scan_declaration(i, end, class_name);
            }
        }
    }

    std::size_t enter_namespace(std::size_t i, std::size_t end) {
        std::size_t j = i + 1;
        while (j < end && !is_punct(toks(), j, "{") && !is_punct(toks(), j, ";")) ++j;
        if (j >= end || is_punct(toks(), j, ";")) return j + 1;
        const std::size_t close = close_of(j, end);
        scan_scope(j + 1, close, "");  // namespaces do not qualify class names
        return close + 1;
    }

    std::size_t enter_class(std::size_t i, std::size_t end) {
        // class NAME [final] [: bases] { ... } | class NAME; | anonymous.
        std::size_t j = i + 1;
        std::string name;
        if (j < end && toks()[j].kind == TokKind::Identifier) {
            name = toks()[j].text;
            ++j;
        }
        std::size_t angle = 0;
        while (j < end) {
            if (is_punct(toks(), j, "<")) ++angle;
            if (is_punct(toks(), j, ">") && angle > 0) --angle;
            if (angle == 0 && (is_punct(toks(), j, "{") || is_punct(toks(), j, ";")))
                break;
            if (angle == 0 && is_punct(toks(), j, "(")) {
                // `struct X x(args);` — a variable, not a definition.
                j = skip_parens(j);
                continue;
            }
            ++j;
        }
        if (j >= end || is_punct(toks(), j, ";")) return j + 1;
        const std::size_t close = close_of(j, end);
        if (!name.empty()) out_.classes.insert(name);
        scan_scope(j + 1, close, name);
        return close + 1;
    }

    std::size_t skip_enum(std::size_t i, std::size_t end) {
        std::size_t j = i + 1;
        while (j < end && !is_punct(toks(), j, "{") && !is_punct(toks(), j, ";")) ++j;
        if (j >= end || is_punct(toks(), j, ";")) return j + 1;
        return close_of(j, end) + 1;
    }

    // --- declarations at class / namespace scope ----------------------------

    /// One declaration run: a function definition (descend into the body), a
    /// field (collect it when at class scope), or something to skip.
    std::size_t scan_declaration(std::size_t i, std::size_t end,
                                 const std::string& class_name) {
        std::size_t j = i;
        std::size_t angle = 0;
        bool saw_paren = false;
        while (j < end) {
            if (is_punct(toks(), j, "<")) ++angle;
            if (is_punct(toks(), j, ">") && angle > 0) --angle;
            if (angle != 0) {
                ++j;
                continue;
            }
            if (is_punct(toks(), j, ";"))
                return field_from_run(i, j, class_name, saw_paren), j + 1;
            if (is_punct(toks(), j, "(")) {
                const bool named = j > i && toks()[j - 1].kind == TokKind::Identifier;
                if (named) {
                    const std::size_t after = function_at(j - 1, j, end, class_name);
                    if (after != kNone) return after;
                }
                saw_paren = true;
                j = skip_parens(j);
                continue;
            }
            if (is_punct(toks(), j, "{")) {
                const bool after_signature =
                    j > i && (is_punct(toks(), j - 1, ")") ||
                              is_ident(toks(), j - 1, "const") ||
                              is_ident(toks(), j - 1, "noexcept") ||
                              is_ident(toks(), j - 1, "override") ||
                              is_ident(toks(), j - 1, "final"));
                const std::size_t close = close_of(j, end);
                if (after_signature) return close + 1;  // unnamed function body
                j = close + 1;  // brace initializer; continue to the ';'
                continue;
            }
            ++j;
        }
        return end;
    }

    /// Tries to parse a function definition whose name token is `name_idx`
    /// and whose parameter list opens at `open`. Returns the index past the
    /// body, or kNone when this is not a function definition.
    std::size_t function_at(std::size_t name_idx, std::size_t open,
                            std::size_t end, const std::string& scope_class) {
        const std::string& name = toks()[name_idx].text;
        if (control_keywords().count(name) > 0 || name == "operator") return kNone;
        const std::size_t close = skip_parens(open) - 1;
        std::size_t k = close + 1;
        // Trailing signature parts: const, noexcept(...), override, final,
        // trailing return, constructor initializers — then '{' or ';'.
        while (k < end) {
            if (is_ident(toks(), k, "const") || is_ident(toks(), k, "override") ||
                is_ident(toks(), k, "final") || is_ident(toks(), k, "mutable")) {
                ++k;
            } else if (is_ident(toks(), k, "noexcept")) {
                ++k;
                if (is_punct(toks(), k, "(")) k = skip_parens(k);
            } else if (is_punct(toks(), k, "-") && is_punct(toks(), k + 1, ">")) {
                k += 2;
                std::size_t angle = 0;
                while (k < end) {
                    if (is_punct(toks(), k, "<")) ++angle;
                    if (is_punct(toks(), k, ">") && angle > 0) --angle;
                    if (angle == 0 &&
                        (is_punct(toks(), k, "{") || is_punct(toks(), k, ";")))
                        break;
                    ++k;
                }
            } else if (is_punct(toks(), k, ":")) {
                // Constructor initializer list: ident (...)|{...} [, ...].
                ++k;
                while (k < end) {
                    while (k < end && (toks()[k].kind == TokKind::Identifier ||
                                       is_punct(toks(), k, "::")))
                        ++k;
                    if (is_punct(toks(), k, "(")) k = skip_parens(k);
                    else if (is_punct(toks(), k, "{")) k = close_of(k, end) + 1;
                    if (is_punct(toks(), k, ",")) {
                        ++k;
                        continue;
                    }
                    break;
                }
            } else {
                break;
            }
        }
        if (k >= end || !is_punct(toks(), k, "{")) return kNone;

        FunctionDecl fn;
        fn.name = name;
        fn.line = toks()[name_idx].line;
        // Explicit qualification `X::name` (out-of-line definition) wins;
        // destructors carry a '~' between the '::' and the name.
        std::size_t qual = name_idx;
        if (qual >= 1 && is_punct(toks(), qual - 1, "~")) {
            fn.name = "~" + fn.name;
            --qual;
        }
        if (qual >= 2 && is_punct(toks(), qual - 1, "::") &&
            toks()[qual - 2].kind == TokKind::Identifier)
            fn.class_name = toks()[qual - 2].text;
        else
            fn.class_name = scope_class;
        const std::size_t body_close = close_of(k, end);
        fn.body_begin = k + 1;
        fn.body_end = body_close;
        collect_value_types(fn, open + 1, close);      // parameters
        collect_value_types(fn, fn.body_begin, fn.body_end);  // locals
        scan_body(fn);
        out_.functions.push_back(std::move(fn));
        return body_close + 1;
    }

    /// Records a field when the run [begin, end) sits at class scope and is a
    /// plain data-member declaration. Runs containing a top-level paren are
    /// method declarations or function-typed members — skipped.
    void field_from_run(std::size_t begin, std::size_t end,
                        const std::string& class_name, bool saw_paren) {
        if (class_name.empty() || saw_paren || end <= begin) return;
        std::size_t angle = 0;
        std::size_t bracket = 0;
        std::size_t name_idx = kNone;
        for (std::size_t j = begin; j < end; ++j) {
            if (is_punct(toks(), j, "<")) ++angle;
            if (is_punct(toks(), j, ">") && angle > 0) --angle;
            if (is_punct(toks(), j, "[")) ++bracket;
            if (is_punct(toks(), j, "]") && bracket > 0) --bracket;
            if (angle == 0 && bracket == 0 &&
                (is_punct(toks(), j, "=") || is_punct(toks(), j, "{")))
                break;
            if (angle == 0 && bracket == 0 && toks()[j].kind == TokKind::Identifier &&
                type_qualifiers().count(toks()[j].text) == 0)
                name_idx = j;
        }
        if (name_idx == kNone || name_idx == begin) return;  // need a type first
        FieldDecl field;
        field.class_name = class_name;
        field.name = toks()[name_idx].text;
        field.line = toks()[name_idx].line;
        for (std::size_t j = begin; j < name_idx; ++j) {
            if (toks()[j].kind != TokKind::Identifier) continue;
            if (type_qualifiers().count(toks()[j].text) > 0) continue;
            if (is_punct(toks(), j + 1, "::")) continue;  // namespace qualifier
            field.type_idents.push_back(toks()[j].text);
        }
        // The guard annotation sits on the declaration's line (any comment
        // form) or — standalone-comment form only, so one field's trailing
        // annotation cannot bleed onto the next field — on the line directly
        // above its first token.
        const std::size_t first_line = toks()[begin].line;
        for (const std::size_t at :
             {field.line, field.line - 1, first_line > 0 ? first_line - 1 : 0}) {
            const auto it = guard_lines_.find(at);
            if (it != guard_lines_.end() &&
                (at == field.line || it->second.second)) {
                field.guarded_by = it->second.first;
                break;
            }
        }
        out_.fields.push_back(std::move(field));
    }

    // --- function bodies -----------------------------------------------------

    /// Collects `Type name` declaration pairs in [begin, end): parameters and
    /// locals whose type mentions a class the index may know. The recorded
    /// type is the ordered identifier list; resolution happens later.
    void collect_value_types(FunctionDecl& fn, std::size_t begin, std::size_t end) {
        std::size_t i = begin;
        while (i < end) {
            i = decl_pair_at(fn, i, end);
        }
    }

    /// Tries to parse one `Type name` pair starting at `i`; returns the index
    /// to continue from (past the statement on failure).
    std::size_t decl_pair_at(FunctionDecl& fn, std::size_t i, std::size_t end) {
        std::vector<std::string> type_idents;
        bool saw_type = false;
        std::size_t j = i;
        while (j < end) {
            const Tok& t = toks()[j];
            if (t.kind == TokKind::Identifier) {
                if (control_keywords().count(t.text) > 0) {
                    // `for (` may open with a declaration; continue inside.
                    if (t.text == "for" && is_punct(toks(), j + 1, "("))
                        return j + 2;
                    return skip_statement(j, end);
                }
                if (type_qualifiers().count(t.text) > 0) {
                    saw_type = true;
                    ++j;
                    continue;
                }
                if (is_punct(toks(), j + 1, "::")) {
                    j += 2;  // namespace / class qualifier
                    saw_type = true;
                    continue;
                }
                if (is_punct(toks(), j + 1, "<")) {
                    const std::size_t after = skip_angles(j + 1);
                    if (after == j + 2) return skip_statement(j, end);  // a < b
                    type_idents.push_back(t.text);
                    for (std::size_t a = j + 2; a + 1 < after; ++a)
                        if (toks()[a].kind == TokKind::Identifier &&
                            !is_punct(toks(), a + 1, "::") &&
                            type_qualifiers().count(toks()[a].text) == 0)
                            type_idents.push_back(toks()[a].text);
                    saw_type = true;
                    j = after;
                    continue;
                }
                const bool terminator =
                    is_punct(toks(), j + 1, "=") || is_punct(toks(), j + 1, ";") ||
                    is_punct(toks(), j + 1, ",") || is_punct(toks(), j + 1, ")") ||
                    is_punct(toks(), j + 1, "{") || is_punct(toks(), j + 1, "(") ||
                    is_punct(toks(), j + 1, ":");
                if (terminator) {
                    if (saw_type && !type_idents.empty())
                        fn.value_types.emplace(t.text, type_idents);
                    return skip_statement(j, end);
                }
                // Plain type word (`Shard shard`): record and continue.
                type_idents.push_back(t.text);
                saw_type = true;
                ++j;
            } else if (is_punct(toks(), j, "&") || is_punct(toks(), j, "*")) {
                ++j;
            } else if (is_punct(toks(), j, ";") || is_punct(toks(), j, "{") ||
                       is_punct(toks(), j, "}") || is_punct(toks(), j, ",")) {
                return j + 1;
            } else {
                return skip_statement(j, end);
            }
        }
        return end;
    }

    /// Index past the current statement: the next top-level ';', '{', '}'
    /// or ',' (parameter lists), skipping balanced parens.
    [[nodiscard]] std::size_t skip_statement(std::size_t i, std::size_t end) const {
        std::size_t j = i;
        while (j < end) {
            if (is_punct(toks(), j, "(")) {
                j = skip_parens(j);
                continue;
            }
            if (is_punct(toks(), j, ";") || is_punct(toks(), j, "{") ||
                is_punct(toks(), j, "}") || is_punct(toks(), j, ","))
                return j + 1;
            ++j;
        }
        return end;
    }

    /// The mutex expression for the argument range [begin, end): joined text
    /// and its last identifier.
    void mutex_arg(std::size_t begin, std::size_t end, std::string* expr,
                   std::string* name) const {
        for (std::size_t j = begin; j < end; ++j) {
            *expr += toks()[j].text;
            if (toks()[j].kind == TokKind::Identifier) *name = toks()[j].text;
        }
    }

    /// The enclosing-block release point for a guard declared at token `at`
    /// inside `fn`: the closing brace of the innermost open block, or the
    /// body end.
    [[nodiscard]] std::size_t guard_release(const FunctionDecl& fn,
                                            std::size_t at) const {
        std::size_t release = fn.body_end;
        std::size_t best = kNone;
        // Innermost '{' whose matching '}' lies past `at`.
        for (std::size_t j = fn.body_begin; j < at && j < fn.body_end; ++j) {
            if (is_punct(toks(), j, "{")) {
                const std::size_t close = close_of(j, fn.body_end);
                if (close > at && (best == kNone || j > best)) best = j;
            }
        }
        if (best != kNone) release = close_of(best, fn.body_end);
        return release;
    }

    void scan_body(FunctionDecl& fn) {
        const std::vector<Tok>& ts = toks();
        // Containers this body reserves: growth on them is not a hazard.
        std::set<std::string> reserved;
        for (std::size_t j = fn.body_begin; j + 3 < fn.body_end; ++j)
            if (ts[j].kind == TokKind::Identifier &&
                (is_punct(ts, j + 1, ".") || is_punct(ts, j + 1, "->")) &&
                is_ident(ts, j + 2, "reserve") && is_punct(ts, j + 3, "("))
                reserved.insert(ts[j].text);

        static const std::set<std::string> kGuardTypes{
            "lock_guard", "unique_lock", "scoped_lock", "shared_lock"};
        static const std::set<std::string> kBlockingCalls{
            "wait", "wait_for", "wait_until"};
        static const std::set<std::string> kSleeps{"sleep_for", "sleep_until"};
        static const std::set<std::string> kIoTypes{
            "ifstream", "ofstream", "fstream", "fopen",  "fread", "fwrite",
            "fprintf",  "printf",   "fgets",   "getline", "system"};

        for (std::size_t j = fn.body_begin; j < fn.body_end; ++j) {
            if (ts[j].kind != TokKind::Identifier) continue;
            const std::string& name = ts[j].text;

            // Failure paths may allocate: a throw aborts the request, so the
            // thrown expression is exempt from hazard and call collection.
            if (name == "throw") {
                while (j < fn.body_end && !is_punct(ts, j, ";")) ++j;
                continue;
            }

            // Lock acquisitions -------------------------------------------
            if (kGuardTypes.count(name) > 0) {
                std::size_t v = skip_angles(j + 1);
                if (v < fn.body_end && ts[v].kind == TokKind::Identifier &&
                    is_punct(ts, v + 1, "(")) {
                    const std::size_t open = v + 1;
                    const std::size_t args_end = skip_parens(open) - 1;
                    // scoped_lock takes every argument; the others take the
                    // first (later ones are tags or a deadline).
                    const bool all_args = name == "scoped_lock";
                    std::size_t arg_begin = open + 1;
                    std::size_t depth = 0;
                    for (std::size_t a = open + 1; a <= args_end; ++a) {
                        if (is_punct(ts, a, "(")) ++depth;
                        if (is_punct(ts, a, ")") && depth > 0) --depth;
                        const bool at_break =
                            a == args_end || (depth == 0 && is_punct(ts, a, ","));
                        if (!at_break) continue;
                        if (arg_begin < a) {
                            LockSite site;
                            site.tok = v;
                            site.line = ts[v].line;
                            mutex_arg(arg_begin, a, &site.expr, &site.name);
                            site.release_tok = guard_release(fn, v);
                            if (!site.name.empty())
                                fn.locks.push_back(std::move(site));
                        }
                        arg_begin = a + 1;
                        if (!all_args) break;
                    }
                    j = args_end;
                    continue;
                }
            }

            // Manual `.lock()`: held until `.unlock()` on the same name or
            // the body end.
            if (name == "lock" && is_punct(ts, j + 1, "(") && j >= 2 &&
                (is_punct(ts, j - 1, ".") || is_punct(ts, j - 1, "->")) &&
                ts[j - 2].kind == TokKind::Identifier) {
                LockSite site;
                site.tok = j;
                site.line = ts[j].line;
                site.name = ts[j - 2].text;
                site.expr = site.name;
                site.release_tok = fn.body_end;
                for (std::size_t u = j + 1; u + 2 < fn.body_end; ++u)
                    if (is_ident(ts, u, "unlock") && is_punct(ts, u + 1, "(") &&
                        u >= 2 && is_ident(ts, u - 2, site.name.c_str())) {
                        site.release_tok = u;
                        break;
                    }
                fn.locks.push_back(std::move(site));
                continue;
            }

            // Hazards ------------------------------------------------------
            const bool member_prefixed =
                j >= 1 && (is_punct(ts, j - 1, ".") || is_punct(ts, j - 1, "->"));
            if (name == "new") {
                fn.hazards.push_back(
                    {HazardSite::Kind::Alloc, j, ts[j].line, "operator new"});
            } else if (name == "string" || name == "to_string" ||
                       name == "make_shared" || name == "make_unique") {
                fn.hazards.push_back({HazardSite::Kind::Alloc, j, ts[j].line,
                                      "std::" + name + " allocates"});
            } else if ((name == "push_back" || name == "emplace_back") &&
                       member_prefixed) {
                if (!(j >= 2 && ts[j - 2].kind == TokKind::Identifier &&
                      reserved.count(ts[j - 2].text) > 0))
                    fn.hazards.push_back({HazardSite::Kind::Alloc, j, ts[j].line,
                                          name + " on an unreserved container"});
            } else if (kBlockingCalls.count(name) > 0 && member_prefixed &&
                       is_punct(ts, j + 1, "(")) {
                fn.hazards.push_back({HazardSite::Kind::Block, j, ts[j].line,
                                      "blocking " + name + "()"});
            } else if (kSleeps.count(name) > 0 && is_punct(ts, j + 1, "(")) {
                fn.hazards.push_back(
                    {HazardSite::Kind::Block, j, ts[j].line, name + "()"});
            } else if (name == "join" && member_prefixed &&
                       is_punct(ts, j + 1, "(")) {
                fn.hazards.push_back(
                    {HazardSite::Kind::Block, j, ts[j].line, "thread join()"});
            } else if (kIoTypes.count(name) > 0) {
                fn.hazards.push_back(
                    {HazardSite::Kind::Block, j, ts[j].line, name + " I/O"});
            }

            // Call sites ---------------------------------------------------
            if (is_punct(ts, j + 1, "(") && control_keywords().count(name) == 0) {
                CallSite call;
                call.tok = j;
                call.line = ts[j].line;
                call.name = name;
                if (member_prefixed && j >= 2 &&
                    ts[j - 2].kind == TokKind::Identifier) {
                    call.member = true;
                    call.receiver = ts[j - 2].text;
                } else if (member_prefixed) {
                    call.member = true;  // `(*x).f()`, `f()->g()` — untyped
                } else if (j >= 2 && is_punct(ts, j - 1, "::") &&
                           ts[j - 2].kind == TokKind::Identifier) {
                    call.qualifier = ts[j - 2].text;
                }
                fn.calls.push_back(std::move(call));
            }
        }
    }

    /// A function is hot when an `// adiv-hot` comment's next balanced brace
    /// block is its body — the same rule hot-alloc uses, so the two rules
    /// always agree on what "the annotated body" means.
    void mark_hot_functions() {
        for (const std::size_t hot_line : out_.hot_lines) {
            std::size_t open = kNone;
            for (std::size_t i = 0; i < toks().size(); ++i) {
                if (toks()[i].line < hot_line) continue;
                if (is_punct(toks(), i, "{")) {
                    open = i;
                    break;
                }
            }
            if (open == kNone) continue;
            for (FunctionDecl& fn : out_.functions)
                if (fn.body_begin == open + 1) fn.hot = true;
        }
    }

    const SourceFile& src_;
    ParsedFile out_;
    // line -> (mutex name, standalone comment line).
    std::map<std::size_t, std::pair<std::string, bool>> guard_lines_;
    std::vector<std::size_t> brace_match_;
};

}  // namespace

ParsedFile parse_cpp_file(const SourceFile& src) { return Parser(src).run(); }

}  // namespace adiv::lint

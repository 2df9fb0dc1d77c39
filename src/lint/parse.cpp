#include "lint/parse.hpp"

// The linter is scanned by itself, so this file works only with ordered
// containers.

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

bool line_suppressed(const ParsedFile& file, std::size_t line,
                     const std::string& rule) {
    for (std::size_t at = line > 0 ? line - 1 : 0; at <= line; ++at) {
        const auto it = file.allows.find(at);
        if (it == file.allows.end()) continue;
        if (it->second.all || it->second.rules.count(rule) > 0) return true;
    }
    return false;
}

namespace {

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
    // Split on top-level commas: rule names, plus a quoted reason that is
    // skipped.
    Allow& allow = out.allows[comment.line];
    std::string item;
    in_quote = false;
    for (std::size_t i = open + 6; i <= close; ++i) {
        const char c = i < close ? text[i] : ',';
        if (c == '"') in_quote = !in_quote;
        if (c == ',' && !in_quote) {
            if (item == "all")
                allow.all = true;
            else if (!item.empty() && item[0] != '"')
                allow.rules.insert(item);
            item.clear();
        } else if (in_quote || (c != ' ' && c != '\t')) {
            item += c;
        }
    }
}

}  // namespace

ParsedFile parse_cpp_file(const SourceFile& src) {
    ParsedFile out;
    out.path = src.path;
    for (Tok& tok : lex_cpp(src.text)) {
        if (tok.kind == TokKind::Comment)
            parse_allow(tok, out);
        else
            out.toks.push_back(std::move(tok));
    }
    return out;
}

}  // namespace adiv::lint

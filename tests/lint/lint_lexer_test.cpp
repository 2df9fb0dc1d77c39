#include "lint/lexer.hpp"

#include <gtest/gtest.h>

namespace adiv::lint {
namespace {

std::vector<Tok> lex(const char* source) { return lex_cpp(source); }

TEST(LintLexer, SplitsIdentifiersNumbersAndPunct) {
    const auto toks = lex("int x = 42;");
    ASSERT_EQ(toks.size(), 5u);
    EXPECT_EQ(toks[0].kind, TokKind::Identifier);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[2].text, "=");
    EXPECT_EQ(toks[3].kind, TokKind::Number);
    EXPECT_EQ(toks[3].text, "42");
    EXPECT_EQ(toks[4].text, ";");
}

TEST(LintLexer, BannedNameInsideStringIsAStringToken) {
    const auto toks = lex("f(\"rand() inside a string\");");
    ASSERT_GE(toks.size(), 3u);
    EXPECT_EQ(toks[2].kind, TokKind::String);
    EXPECT_EQ(toks[2].text, "rand() inside a string");
}

TEST(LintLexer, BannedNameInsideCommentIsACommentToken) {
    const auto toks = lex("// rand() here\nint x;");
    ASSERT_GE(toks.size(), 3u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[0].text, " rand() here");
    EXPECT_EQ(toks[1].text, "int");
    EXPECT_EQ(toks[1].line, 2u);
}

TEST(LintLexer, BlockCommentSpansLinesAndKeepsStartLine) {
    const auto toks = lex("/* one\n two */ int x;");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[0].line, 1u);
    EXPECT_EQ(toks[1].text, "int");
    EXPECT_EQ(toks[1].line, 2u);
}

TEST(LintLexer, RawStringSwallowsEverything) {
    const auto toks = lex("auto s = R\"(rand() \" // not a comment)\";");
    bool found = false;
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::String) {
            EXPECT_EQ(tok.text, "rand() \" // not a comment");
            found = true;
        }
    EXPECT_TRUE(found);
    for (const Tok& tok : toks) EXPECT_NE(tok.kind, TokKind::Comment);
}

TEST(LintLexer, PreprocessorDirectiveIsOneToken) {
    const auto toks = lex("#include <ctime>\nint x;");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::Preprocessor);
    EXPECT_EQ(toks[0].text, "#include <ctime>");
    EXPECT_EQ(toks[1].text, "int");
}

TEST(LintLexer, ScopeResolutionIsOneToken) {
    const auto toks = lex("std::time(nullptr)");
    ASSERT_EQ(toks.size(), 6u);
    EXPECT_EQ(toks[1].text, "::");
    EXPECT_EQ(toks[1].kind, TokKind::Punct);
}

TEST(LintLexer, RangeForColonStaysSingle) {
    const auto toks = lex("for (auto x : xs) {}");
    std::size_t colons = 0;
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::Punct && tok.text == ":") ++colons;
    EXPECT_EQ(colons, 1u);
}

TEST(LintLexer, CharLiteralsAndEscapes) {
    const auto toks = lex("char c = ':'; char q = '\\'';");
    std::size_t chars = 0;
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::CharLit) ++chars;
    EXPECT_EQ(chars, 2u);
}

TEST(LintLexer, LineNumbersTrackNewlinesInStrings) {
    const auto toks = lex("auto a = \"x\";\n\n\nint y;");
    ASSERT_GE(toks.size(), 5u);
    EXPECT_EQ(toks.back().text, ";");
    EXPECT_EQ(toks.back().line, 4u);
}

TEST(LintLexer, UnterminatedStringDoesNotThrow) {
    EXPECT_NO_THROW((void)lex("auto s = \"unterminated\nint x;"));
    EXPECT_NO_THROW((void)lex("/* unterminated"));
}

TEST(LintLexer, LineCommentContinuesAcrossBackslashNewline) {
    // A backslash-newline splices the next physical line into the comment;
    // the `int x;` is commented out and must NOT appear as code tokens.
    const auto toks = lex("// spliced \\\nint x;\nint y;");
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[1].text, "int");
    EXPECT_EQ(toks[2].text, "y");
    // The comment consumed one extra physical line.
    EXPECT_EQ(toks[1].line, 3u);
}

TEST(LintLexer, LineCommentContinuationHandlesCrLf) {
    const auto toks = lex("// spliced \\\r\nint x;\nint y;");
    ASSERT_GE(toks.size(), 4u);
    EXPECT_EQ(toks[0].kind, TokKind::Comment);
    EXPECT_EQ(toks[1].text, "int");
    EXPECT_EQ(toks[2].text, "y");
}

TEST(LintLexer, StringLiteralContinuesAcrossBackslashNewline) {
    // The splice is deleted from the string's value (phase-2 behavior); the
    // literal stays one token and following code keeps the right line.
    const auto toks = lex("auto s = \"ab\\\ncd\";\nint x;");
    ASSERT_GE(toks.size(), 2u);
    bool found = false;
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::String) {
            EXPECT_EQ(tok.text, "abcd");
            found = true;
        }
    EXPECT_TRUE(found);
    EXPECT_EQ(toks.back().text, ";");
    EXPECT_EQ(toks.back().line, 3u);
}

TEST(LintLexer, RawStringKeepsLintMarkersInert) {
    // An `adiv-lint: allow` marker inside a raw string is string payload,
    // never a Comment token — the suppression parser must not see it.
    const auto toks = lex("auto s = R\"(// adiv-lint: allow(all))\";\nint x;");
    for (const Tok& tok : toks) EXPECT_NE(tok.kind, TokKind::Comment);
    bool found = false;
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::String &&
            tok.text.find("adiv-lint: allow") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
}

TEST(LintLexer, DigraphsLexAsPlainPunct) {
    // Digraph spellings must not pair up into something that swallows
    // tokens: `<:` is '<' then ':', `%>` is '%' then '>'.
    const auto toks = lex("a<:0:> = 1; x = y <% z %> w;");
    std::size_t idents = 0;
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::Identifier) ++idents;
    EXPECT_EQ(idents, 5u);  // a, x, y, z, w — none swallowed
    for (const Tok& tok : toks)
        if (tok.kind == TokKind::Punct) EXPECT_EQ(tok.text.size() == 1u ||
                                                  tok.text == "::", true);
}

}  // namespace
}  // namespace adiv::lint

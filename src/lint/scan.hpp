// Repository scanning for the invariant linter: which files are checked and
// how they are loaded.
//
// The scanned set is `src/**/*.{hpp,cpp}` plus `tools/*.cpp` — the library
// and the binaries that ship with it. Tests, benches, and examples are
// deliberately out of the default set: lint-rule fixture tests must be able
// to contain violating snippets, and harness code may legitimately read the
// wall clock for progress display. Paths are reported repo-relative with
// '/' separators and scanned in sorted order, so output is deterministic.
#pragma once

#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace adiv::lint {

/// Loads the default scan set from a repository root. Throws InvalidArgument
/// when root lacks a src/ directory (a wrong-directory guard, so `adiv_lint
/// .` run from the wrong place fails loudly rather than reporting clean).
std::vector<SourceFile> collect_tree_sources(const std::string& root);

}  // namespace adiv::lint

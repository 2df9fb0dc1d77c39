// A private scratch directory for tests that write files.
//
// gtest_discover_tests runs every case as its own process, so a fixed path
// under ::testing::TempDir() is shared by every concurrently running case
// (`ctest -j`) and by every build tree on the machine: one case can
// truncate a file another is reading. temp_path() hands out paths inside a
// directory that belongs to this process alone.
#pragma once

#include <string>

namespace adiv::test {

/// This process's scratch directory, with a trailing '/': created (mkdtemp,
/// unique even across recycled pids) on first use, removed at exit.
const std::string& temp_dir();

/// temp_dir() + name.
std::string temp_path(const std::string& name);

}  // namespace adiv::test

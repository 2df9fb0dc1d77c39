#include "support/temp_dir.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>  // mkdtemp (POSIX)

#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace adiv::test {

namespace {

class ProcessTempDir {
public:
    ProcessTempDir() {
        std::string pattern = ::testing::TempDir();
        if (!pattern.empty() && pattern.back() != '/') pattern += '/';
        pattern += "adiv_test_XXXXXX";
        std::vector<char> buffer(pattern.begin(), pattern.end());
        buffer.push_back('\0');
        if (::mkdtemp(buffer.data()) == nullptr)
            throw std::runtime_error("cannot create a temp dir from " + pattern);
        path_ = std::string(buffer.data()) + '/';
    }

    ~ProcessTempDir() {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }

    ProcessTempDir(const ProcessTempDir&) = delete;
    ProcessTempDir& operator=(const ProcessTempDir&) = delete;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

}  // namespace

const std::string& temp_dir() {
    static const ProcessTempDir dir;
    return dir.path();
}

std::string temp_path(const std::string& name) { return temp_dir() + name; }

}  // namespace adiv::test

#include "lint/scan.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace adiv::lint {

namespace {

namespace fs = std::filesystem;

bool wanted_extension(const fs::path& path, bool headers_too) {
    const std::string ext = path.extension().string();
    return ext == ".cpp" || (headers_too && ext == ".hpp");
}

std::string relative_slash_path(const fs::path& path, const fs::path& root) {
    std::string rel = fs::relative(path, root).generic_string();
    return rel;
}

void add_dir(const fs::path& root, const fs::path& dir, bool headers_too,
             std::vector<SourceFile>& out) {
    if (!fs::is_directory(dir)) return;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file() || !wanted_extension(entry.path(), headers_too))
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        require_data(in.good(), "cannot read '" + entry.path().string() + "'");
        std::ostringstream text;
        text << in.rdbuf();
        out.push_back(SourceFile{relative_slash_path(entry.path(), root), text.str()});
    }
}

}  // namespace

std::vector<SourceFile> collect_tree_sources(const std::string& root) {
    const fs::path base(root);
    require(fs::is_directory(base / "src"),
            "'" + root + "' does not look like the adiv repository root "
            "(no src/ directory)");
    std::vector<SourceFile> sources;
    add_dir(base, base / "src", /*headers_too=*/true, sources);
    add_dir(base, base / "tools", /*headers_too=*/false, sources);
    std::sort(sources.begin(), sources.end(),
              [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
    return sources;
}

}  // namespace adiv::lint

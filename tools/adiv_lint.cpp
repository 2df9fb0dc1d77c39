// adiv_lint: the in-tree invariant linter.
//
//   tools/adiv_lint [--json] [--rules r1,r2] [--list-rules] [root]
//
// Scans src/**/*.{hpp,cpp} and tools/*.cpp under the repository root
// (default: the current directory) for violations of the project invariants
// documented in src/lint/rules.hpp. Exit status: 0 clean, 1 findings,
// 2 usage or scan error. `--json` writes a single machine-readable object
// (findings sorted by (file, line, rule); `schema_version` bumps whenever a
// field changes meaning). The default output is one `file:line: [rule]
// message` line per finding.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "lint/scan.hpp"
#include "obs/json.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--json] [--rules r1,r2] [--list-rules] [root]\n",
                 argv0);
    return 2;
}

std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    std::string name;
    for (const char c : csv + ",") {
        if (c == ',') {
            if (!name.empty()) out.push_back(name);
            name.clear();
        } else {
            name += c;
        }
    }
    return out;
}

std::string findings_json(const std::vector<adiv::lint::Finding>& findings,
                          std::size_t files_scanned) {
    adiv::JsonWriter w;
    w.begin_object();
    w.key("tool").value("adiv_lint");
    w.key("schema_version").value(static_cast<std::uint64_t>(2));
    w.key("files_scanned").value(static_cast<std::uint64_t>(files_scanned));
    w.key("clean").value(findings.empty());
    w.key("findings").begin_array();
    for (const adiv::lint::Finding& finding : findings) {
        w.begin_object();
        w.key("rule").value(finding.rule);
        w.key("file").value(finding.file);
        w.key("line").value(static_cast<std::uint64_t>(finding.line));
        w.key("message").value(finding.message);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
}

}  // namespace

int main(int argc, char** argv) {
    bool json = false;
    adiv::lint::LintOptions options;
    std::string root = ".";
    bool have_root = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--list-rules") {
            for (const std::string& rule : adiv::lint::rule_names())
                std::printf("%s\n", rule.c_str());
            return 0;
        } else if (arg == "--rules") {
            if (++i >= argc) return usage(argv[0]);
            options.rules = split_csv(argv[i]);
        } else if (arg.rfind("--rules=", 0) == 0) {
            options.rules = split_csv(arg.substr(8));
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (!have_root) {
            root = arg;
            have_root = true;
        } else {
            return usage(argv[0]);
        }
    }

    try {
        const std::vector<adiv::lint::SourceFile> sources =
            adiv::lint::collect_tree_sources(root);
        const std::vector<adiv::lint::Finding> findings =
            adiv::lint::run_lint(sources, options);
        if (json) {
            std::printf("%s\n", findings_json(findings, sources.size()).c_str());
        } else {
            for (const adiv::lint::Finding& finding : findings)
                std::printf("%s:%zu: [%s] %s\n", finding.file.c_str(),
                            finding.line, finding.rule.c_str(),
                            finding.message.c_str());
            std::printf("adiv_lint: %zu finding(s) in %zu file(s) scanned\n",
                        findings.size(), sources.size());
        }
        return findings.empty() ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "adiv_lint: %s\n", error.what());
        return 2;
    }
}

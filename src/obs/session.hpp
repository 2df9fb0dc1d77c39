// ObsSession: the one-liner that wires observability into a CLI program.
//
//   CliParser cli(...);
//   add_observability_options(cli);        // registers --metrics / --trace
//   ...
//   RunManifest manifest = make_manifest("adiv_score");
//   manifest.detector = detector->name();
//   ObsSession obs(cli, std::move(manifest));
//   ... instrumented work ...
//   // destructor: final metrics dump, sink restored
//
// While alive, the session installs the requested trace sink as the global
// sink (first line: the run manifest) and, on destruction or an explicit
// dump_metrics() call, renders the global metrics registry as a human table
// (stdout) and machine JSON (the --metrics file, or stdout for "-").
#pragma once

#include <memory>
#include <string>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace adiv {

/// Registers the shared observability flags on a parser:
///   --metrics PATH            final metrics dump; "-" = stdout (table + JSON)
///   --trace PATH              JSON-lines span trace; "-" = stderr,
///                             "null" = discard
void add_observability_options(CliParser& cli);

class ObsSession {
public:
    /// Reads --metrics / --trace from a parsed CLI.
    ObsSession(const CliParser& cli, RunManifest manifest);

    /// Direct-spec constructor for callers without a CliParser.
    ObsSession(const std::string& metrics_spec, const std::string& trace_spec,
               RunManifest manifest);

    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    /// Dumps metrics (if not already dumped) and restores the previous
    /// global trace sink.
    ~ObsSession();

    /// Final metrics dump; idempotent. Human table to stdout, machine JSON
    /// to the --metrics path ("-" = stdout).
    void dump_metrics();

    [[nodiscard]] const RunManifest& manifest() const noexcept { return manifest_; }
    [[nodiscard]] bool tracing() const noexcept;
    [[nodiscard]] bool metrics_requested() const noexcept {
        return !metrics_spec_.empty();
    }

private:
    void install(const std::string& trace_spec);

    RunManifest manifest_;
    std::string metrics_spec_;
    std::shared_ptr<TraceSink> sink_;
    std::shared_ptr<TraceSink> previous_sink_;
    bool installed_ = false;
    bool dumped_ = false;
};

}  // namespace adiv

#include "obs/session.hpp"

#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace adiv {

void add_observability_options(CliParser& cli) {
    cli.add_option("metrics", "",
                   "dump final metrics to PATH as JSON ('-' = stdout)");
    cli.add_option("trace", "",
                   "stream JSON-lines trace spans to PATH ('-' = stderr, "
                   "'null' = measure but discard)");
}

ObsSession::ObsSession(const CliParser& cli, RunManifest manifest)
    : manifest_(std::move(manifest)), metrics_spec_(cli.get("metrics")) {
    install(cli.get("trace"));
}

ObsSession::ObsSession(const std::string& metrics_spec,
                       const std::string& trace_spec, RunManifest manifest)
    : manifest_(std::move(manifest)), metrics_spec_(metrics_spec) {
    install(trace_spec);
}

void ObsSession::install(const std::string& trace_spec) {
    if (trace_spec.empty()) return;
    sink_ = open_trace_sink(trace_spec);
    previous_sink_ = set_global_trace_sink(sink_);
    installed_ = true;
    if (sink_->enabled()) sink_->write_line(manifest_json_line(manifest_));
}

bool ObsSession::tracing() const noexcept { return sink_ && sink_->enabled(); }

void ObsSession::dump_metrics() {
    if (dumped_ || metrics_spec_.empty()) return;
    dumped_ = true;
    const std::string table = render_metrics_table(global_metrics());
    const std::string json = metrics_to_json(global_metrics());
    std::printf("\n-- metrics --\n%s", table.c_str());
    if (metrics_spec_ == "-") {
        std::printf("-- metrics json --\n%s\n", json.c_str());
    } else {
        std::ofstream out(metrics_spec_);
        require_data(out.good(),
                     "cannot open metrics output file '" + metrics_spec_ + "'");
        out << json << '\n';
        std::printf("# metrics json written to %s\n", metrics_spec_.c_str());
    }
    std::fflush(stdout);
}

ObsSession::~ObsSession() {
    try {
        dump_metrics();
    } catch (...) {
        // A failed metrics dump must not terminate the program from a dtor.
    }
    if (installed_) {
        sink_->flush();
        set_global_trace_sink(previous_sink_);
    }
}

}  // namespace adiv

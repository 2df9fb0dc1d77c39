// adiv_serve: the long-lived detection daemon.
//
//   adiv_train --detector stide --window 6 --out monitor.adiv
//   adiv_serve --model monitor.adiv --port 7007
//
// Loads trained detectors once, then serves the adiv_serve wire
// protocol (src/serve/protocol.hpp) on 127.0.0.1: clients OPEN a session,
// PUSH events through a per-session OnlineScorer, and receive one response
// per completed window — plus STATS / DRAIN / CLOSE. The model is shared
// read-only across all sessions. Each connection's reader thread handles its
// own requests in arrival order, so responses keep request order and every
// session replays bit-identically; --jobs sets the session-table shard count.
//
// --port 0 binds an ephemeral port; the actual port is printed on the
// "listening" line (and is what scripts should parse). SIGINT/SIGTERM
// trigger a graceful drain: requests already received finish, responses
// flush, connections close, exit 0.
//
// --metrics-port N additionally serves `GET /metrics` (plain HTTP/1.0,
// OpenMetrics text) on a second port for Prometheus-style scrapers,
// adiv_top and adiv_loadgen --scrape-http; the bound port is printed on its
// own "metrics on" line. It is the daemon's one live view of its registry.
//
// --model (required) registers each file's detector (comma-separated list)
// as "<name>/<DW>", the first also as "default"; adiv_train writes the
// files. Sessions then OPEN "default", a specific name, or an ensemble spec
// over several registered names — e.g. "stide/6+markov/6;fuse=ds" (see
// src/fusion/spec.hpp) — whose events are scored by every member and fused
// per window. OPEN never reads a file: the daemon serves what it loaded.
//
// --profile turns on the hot-path profile (requires an ADIV_PROFILE build):
// every request's stage times go into the serve.stage.* sketches and the
// shard locks' waits into the serve.shard.table.* instruments, all read
// through the metrics registry — --metrics at drain, or GET /metrics and
// adiv_top live. --dump-on-signal makes SIGUSR1 print
// every session's flight-recorder ring (its last 64 requests) to stderr
// without disturbing the run.
#include <atomic>
#include <csignal>
#include <cstdio>

#include "adiv.hpp"

using namespace adiv;

namespace {
std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump{false};
void handle_stop_signal(int) { g_stop.store(true); }
void handle_dump_signal(int) { g_dump.store(true); }
}  // namespace

int main(int argc, char** argv) {
    CliParser cli("adiv_serve", "serve online anomaly detection over TCP");
    cli.add_option("model", "",
                   "trained model file(s) from adiv_train, comma-separated "
                   "(required)");
    cli.add_option("port", "0", "listen port on 127.0.0.1 (0 = ephemeral)");
    cli.add_option("metrics-port", "",
                   "also serve HTTP GET /metrics (OpenMetrics) on this "
                   "127.0.0.1 port (0 = ephemeral; empty = off)");
    cli.add_option("jobs", "0",
                   "session-table shards (0 = hardware concurrency)");
    cli.add_flag("profile",
                 "enable wait-site and per-event stage profiling "
                 "(ADIV_PROFILE builds)");
    cli.add_flag("dump-on-signal",
                 "print all flight recorders to stderr on SIGUSR1");
    add_observability_options(cli);
    try {
        if (!cli.parse(argc, argv)) return 0;

        serve::ServerConfig config;
        config.shards = static_cast<std::size_t>(cli.get_int("jobs"));
        if (cli.get_flag("profile")) {
            require(profiling_compiled(),
                    "--profile needs an ADIV_PROFILE build (reconfigure with "
                    "-DADIV_PROFILE=ON)");
            set_profiling_enabled(true);
        }

        // --model accepts a comma-separated list so one daemon can serve
        // ensemble sessions over several trained detectors; every entry is
        // registered as "<name>/<DW>" and the first also as "default".
        const std::string paths = cli.get("model");
        require(!paths.empty(), "--model is required (train one with adiv_train)");
        std::vector<std::shared_ptr<const SequenceDetector>> models;
        std::size_t pos = 0;
        while (pos <= paths.size()) {
            const std::size_t comma = std::min(paths.find(',', pos), paths.size());
            const std::string path = paths.substr(pos, comma - pos);
            require(!path.empty(), "--model has an empty path");
            models.push_back(load_detector_file(path));
            if (comma == paths.size()) break;
            pos = comma + 1;
        }
        std::string model_names;
        for (const auto& model : models) {
            if (!model_names.empty()) model_names += ',';
            model_names +=
                model->name() + "/" + std::to_string(model->window_length());
        }

        const auto& primary = models.front();
        RunManifest manifest = make_manifest("adiv_serve");
        manifest.detector = primary->name();
        manifest.alphabet_size = primary->alphabet_size();
        manifest.min_window = manifest.max_window = primary->window_length();
        ObsSession obs(cli, std::move(manifest));

        serve::Server server(config);
        for (const auto& model : models)
            server.add_model(
                model->name() + "/" + std::to_string(model->window_length()),
                model);

        serve::TcpListener listener(
            static_cast<std::uint16_t>(cli.get_int("port")));
        std::unique_ptr<serve::HttpMetricsListener> scrape;
        if (!cli.get("metrics-port").empty()) {
            scrape = std::make_unique<serve::HttpMetricsListener>(
                static_cast<std::uint16_t>(cli.get_int("metrics-port")));
            std::printf("adiv_serve: metrics on 127.0.0.1:%u\n",
                        static_cast<unsigned>(scrape->port()));
        }
        std::signal(SIGINT, handle_stop_signal);
        std::signal(SIGTERM, handle_stop_signal);
        const bool dump_on_signal = cli.get_flag("dump-on-signal");
        if (dump_on_signal) std::signal(SIGUSR1, handle_dump_signal);
        std::printf("adiv_serve: listening on 127.0.0.1:%u (model=%s, shards=%zu)\n",
                    static_cast<unsigned>(listener.port()), model_names.c_str(),
                    server.shard_count());
        std::fflush(stdout);

        // The stop callback runs on the accept loop, not in the signal
        // handler, so it may safely walk the session table and write stderr.
        server.serve(listener, [&server, dump_on_signal] {
            if (dump_on_signal && g_dump.exchange(false)) {
                std::fputs(server.dump_flight_records().c_str(), stderr);
                std::fflush(stderr);
            }
            return g_stop.load();
        });
        listener.close();
        if (scrape) scrape->stop();
        server.shutdown();
        std::printf("adiv_serve: drained; %zu connection(s) served\n",
                    server.connections_accepted());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_serve: %s\n", e.what());
        return 1;
    }
}

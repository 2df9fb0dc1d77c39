// HTTP/1.0 scrape endpoint for the detection server's metrics registry.
//
// The daemon's one live view of its registry: Prometheus-style collectors,
// adiv_top and adiv_loadgen --scrape-http all read the OpenMetrics
// exposition (obs/openmetrics.hpp) on a second, plain-HTTP port:
//
//   GET /metrics HTTP/1.0        -> 200, Content-Type: application/
//                                   openmetrics-text; version=1.0.0
//   GET <anything else>          -> 404
//   non-GET method               -> 405
//   malformed request line       -> 400
//
// Every response carries Content-Length and `Connection: close`; the
// listener serves one request per connection and closes it — the simplest
// protocol that every scraper understands, with no keep-alive state to get
// wrong.
//
// The response builder is a pure function over the request head, so the
// whole HTTP surface is unit-testable without sockets; HttpMetricsListener
// is a thin accept loop over the same function. It serves each request on
// its one background thread, under a fixed whole-request deadline, so a
// scrape leaves no thread behind and an idle or byte-dripping client holds
// the loop for at most kHttpRequestDeadline.
//
// scrape_metrics is the client side, shared by adiv_loadgen --scrape-http
// and adiv_top.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "serve/transport.hpp"

namespace adiv::serve {

/// Builds the full HTTP response (status line, headers, body) for one
/// request head. `request_head` is everything up to the end of the header
/// block; only the request line is examined.
[[nodiscard]] std::string http_response_for(std::string_view request_head,
                                            const MetricsRegistry& metrics);

/// The time budget of one scrape: reading its request head, then writing
/// its response (see serve_one_http_request for how waits are bounded).
inline constexpr std::chrono::milliseconds kHttpRequestDeadline{1000};

/// Reads one HTTP request head (up to 16 KB) from the transport, writes the
/// response, and returns it (for tests / logging). Every read waits at most
/// what is left of kHttpRequestDeadline, and so does each blocked send of
/// the response, counting from when the write starts; a wait that runs out
/// throws DataError. Does not close the transport.
std::string serve_one_http_request(Transport& transport,
                                   const MetricsRegistry& metrics);

/// The bound on a scrape's connect and on each of its reads: a wedged daemon
/// fails a scrape in seconds, not when the kernel gives up.
inline constexpr int kScrapeTimeoutMs = 5000;

/// One `GET /metrics` against host:port: requires an `HTTP/1.0 200` answer
/// and returns its body parsed (and validated) as OpenMetrics. Throws
/// DataError on any other answer, a malformed body, or a connect or read
/// that exceeds kScrapeTimeoutMs.
[[nodiscard]] OpenMetricsDocument scrape_metrics(const std::string& host,
                                                 std::uint16_t port);

/// Background accept loop over a TcpListener: each accepted connection gets
/// one request served on the loop's thread and is closed. Construction
/// binds the port (0 = ephemeral); the destructor stops the loop and joins.
class HttpMetricsListener {
public:
    explicit HttpMetricsListener(std::uint16_t port,
                                 MetricsRegistry& metrics = global_metrics());

    HttpMetricsListener(const HttpMetricsListener&) = delete;
    HttpMetricsListener& operator=(const HttpMetricsListener&) = delete;

    /// Calls stop().
    ~HttpMetricsListener();

    /// The bound port (the ephemeral one when constructed with 0).
    [[nodiscard]] std::uint16_t port() const noexcept;

    /// Stops accepting and joins the accept loop. Idempotent.
    void stop();

private:
    void accept_loop();

    MetricsRegistry* metrics_;
    TcpListener listener_;
    std::atomic<bool> stopping_{false};
    std::mutex stop_mutex_;  // serializes stop() callers across threads
    bool stopped_ = false;
    std::thread accept_thread_;
};

}  // namespace adiv::serve

#include "serve/http_metrics.hpp"

#include <memory>

#include "util/error.hpp"

namespace adiv::serve {

namespace {

constexpr std::string_view kContentType =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

std::string http_response(std::string_view status, std::string_view content_type,
                          std::string_view body) {
    std::string out = "HTTP/1.0 ";
    out += status;
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

std::string plain_response(std::string_view status, std::string_view body) {
    return http_response(status, "text/plain; charset=utf-8", body);
}

}  // namespace

std::string http_response_for(std::string_view request_head,
                              const MetricsRegistry& metrics) {
    // Only the request line matters: "<METHOD> <target> HTTP/<version>".
    const std::size_t line_end =
        std::min(request_head.find('\r'), request_head.find('\n'));
    const std::string_view line = request_head.substr(0, line_end);
    const std::size_t method_end = line.find(' ');
    if (method_end == std::string_view::npos)
        return plain_response("400 Bad Request", "malformed request line\n");
    const std::size_t target_end = line.find(' ', method_end + 1);
    if (target_end == std::string_view::npos ||
        line.compare(target_end + 1, 5, "HTTP/") != 0)
        return plain_response("400 Bad Request", "malformed request line\n");
    const std::string_view method = line.substr(0, method_end);
    const std::string_view target =
        line.substr(method_end + 1, target_end - method_end - 1);
    if (method != "GET")
        return plain_response("405 Method Not Allowed", "only GET is served\n");
    if (target != "/metrics" && target != "/metrics/")
        return plain_response("404 Not Found", "try /metrics\n");
    return http_response("200 OK", kContentType, metrics_to_openmetrics(metrics));
}

std::string serve_one_http_request(Transport& transport,
                                   const MetricsRegistry& metrics) {
    // One deadline for the whole request. A per-read timeout alone would let
    // a client that sends one byte per timeout hold the caller until the
    // head cap; bounding each wait by the time left cannot.
    const auto deadline = std::chrono::steady_clock::now() + kHttpRequestDeadline;
    const auto wait_at_most_the_time_left = [&] {
        const auto left = std::chrono::ceil<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        require_data(left.count() > 0, "http request deadline passed");
        transport.set_timeout(static_cast<int>(left.count()));
    };
    // Read until the end of the header block (or end-of-stream / a size cap
    // — scrape requests are tiny, anything bigger is not one).
    std::string head;
    char buffer[1024];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos && head.size() < 16384) {
        wait_at_most_the_time_left();
        const std::size_t n = transport.read_some(buffer, sizeof buffer);
        if (n == 0) break;
        head.append(buffer, n);
    }
    const std::string response = http_response_for(head, metrics);
    wait_at_most_the_time_left();
    transport.write_all(response.data(), response.size());
    return response;
}

OpenMetricsDocument scrape_metrics(const std::string& host, std::uint16_t port) {
    std::unique_ptr<Transport> transport = tcp_connect(host, port, kScrapeTimeoutMs);
    transport->set_timeout(kScrapeTimeoutMs);
    const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
    transport->write_all(request.data(), request.size());
    std::string response;
    char buffer[4096];
    for (;;) {  // the listener closes the connection after one response
        const std::size_t n = transport->read_some(buffer, sizeof buffer);
        if (n == 0) break;
        response.append(buffer, n);
    }
    transport->close();
    if (response.rfind("HTTP/1.0 200", 0) != 0)
        throw DataError("expected HTTP/1.0 200, got '" +
                        response.substr(0, response.find('\r')) + "'");
    const std::size_t body = response.find("\r\n\r\n");
    require_data(body != std::string::npos, "response has no header/body split");
    return parse_openmetrics(response.substr(body + 4));
}

HttpMetricsListener::HttpMetricsListener(std::uint16_t port,
                                         MetricsRegistry& metrics)
    : metrics_(&metrics), listener_(port) {
    accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpMetricsListener::~HttpMetricsListener() { stop(); }

std::uint16_t HttpMetricsListener::port() const noexcept {
    return listener_.port();
}

void HttpMetricsListener::stop() {
    const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
    stopping_.store(true);
    // Join before closing: the accept loop reads the listener's fd. It sees
    // stopping_ within one 100 ms accept timeout, or when the request it is
    // serving ends (within kHttpRequestDeadline).
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.close();
}

void HttpMetricsListener::accept_loop() {
    while (!stopping_.load()) {
        std::unique_ptr<Transport> transport;
        try {
            transport = listener_.accept(/*timeout_ms=*/100);
        } catch (const std::exception&) {
            return;  // poll or accept failed: stop serving scrapes
        }
        if (!transport) continue;
        try {
            serve_one_http_request(*transport, *metrics_);
        } catch (const std::exception&) {
            // A dropped, silent or too-slow scrape connection is the
            // scraper's problem.
        }
        transport->close();
    }
}

}  // namespace adiv::serve
